// Package exhaustsweep is the resource-exhaustion harness, the sibling of
// crashsweep: where crashsweep proves every crash point recovers, this
// package proves every allocation and journal-append failure degrades
// gracefully. Two passes:
//
//   - Natural fill: a machine with a deliberately tiny arena and journal is
//     filled until it reports out-of-space. Every failure on the way must be
//     typed (errors.Is fsproto.ErrNoSpace / ErrBatchTooLarge / ErrBusy —
//     never a transport error or an untyped validation reject), committed
//     files must still read back exactly, the journal must be idle (no
//     committed-but-unapplied batch stranded), and Fsck must find zero
//     leaked blocks without repairing anything. Deleting files must then
//     free space and let the workload make forward progress — the
//     delete-to-recover path a full volume depends on.
//
//   - Injected sweep: a comfortable machine runs a mutation workload once
//     per sampled ordinal of every exhaustion fault point ("alloc.alloc",
//     "alloc.reserve", "journal.append") with the matching error injected
//     exactly there. The workload must either absorb the failure and
//     complete, or fail typed; either way the volume must verify clean.
//
// The invariant under test is the reservation design's contract: a space
// failure is only ever reported *before* a batch commits, so there is no
// such thing as a partially applied batch — Fsck never finds half-applied
// state, and recovery never replays into a full allocator.
package exhaustsweep

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/journal"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/rpc"
)

// Points swept by the injected pass, with the error each one injects.
var injectedPoints = map[string]error{
	"alloc.alloc":    alloc.ErrNoSpace,
	"alloc.reserve":  alloc.ErrNoSpace,
	"journal.append": journal.ErrFull,
}

// Config tunes a sweep.
type Config struct {
	// Seed drives the deterministic workloads (default 1).
	Seed int64
	// Steps is the injected pass's workload length (default 18).
	Steps int
	// MaxOrdinalsPerPoint caps the ordinals sampled per injected point
	// (default 3: first, middle, last). <=0 sweeps every ordinal.
	MaxOrdinalsPerPoint int
	// Points, when non-empty, restricts the injected pass to these points.
	Points []string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Steps == 0 {
		c.Steps = 18
	}
	if c.MaxOrdinalsPerPoint == 0 {
		c.MaxOrdinalsPerPoint = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// PointResult is the injected-pass outcome for one fault point.
type PointResult struct {
	Point    string
	Hits     uint64   // baseline hit count
	Sampled  []uint64 // ordinals an injection was armed at
	Injected int      // runs where the armed ordinal actually fired
	Typed    int      // runs that surfaced a typed exhaustion error
	Absorbed int      // runs that completed despite the injection
	Failures []string
}

// Result is the outcome of a whole sweep.
type Result struct {
	// FillFiles is how many files the natural-fill pass committed before
	// the volume filled; FillFailures lists its violations.
	FillFiles    int
	FillFailures []string
	Points       []PointResult
	Runs         int
}

// Failures flattens every violation found.
func (r Result) Failures() []string {
	out := append([]string(nil), r.FillFailures...)
	for _, p := range r.Points {
		for _, f := range p.Failures {
			out = append(out, p.Point+": "+f)
		}
	}
	return out
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exhaustsweep: fill committed %d files (%d failures); %d injected runs\n",
		r.FillFiles, len(r.FillFailures), r.Runs)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-16s hits=%d sampled=%d injected=%d typed=%d absorbed=%d failures=%d\n",
			p.Point, p.Hits, len(p.Sampled), p.Injected, p.Typed, p.Absorbed, len(p.Failures))
	}
	return b.String()
}

// typedExhaustion reports whether err is one of the sanctioned exhaustion
// outcomes — and in particular NOT a transport classification: an ENOSPC
// must never look like "TFS unreachable" (which would requeue forever).
func typedExhaustion(err error) bool {
	if !fsproto.IsExhaustion(err) {
		return false
	}
	return !errors.Is(err, libfs.ErrTFSUnreachable) && !errors.Is(err, rpc.ErrUnreachable)
}

// buildTiny assembles the natural-fill machine: an arena and journal small
// enough that a few hundred KiB of files exhaust them.
func buildTiny(inj *faultinject.Injector) (*core.System, error) {
	return core.New(core.Options{
		ArenaSize:        8 << 20,
		JournalSize:      256 << 10,
		TrackPersistence: true,
		Lease:            time.Hour,
		AcquireTimeout:   10 * time.Second,
		Faults:           inj,
	})
}

func buildRoomy(inj *faultinject.Injector) (*core.System, error) {
	return core.New(core.Options{
		ArenaSize:        32 << 20,
		TrackPersistence: true,
		Lease:            time.Hour,
		AcquireTimeout:   10 * time.Second,
		Faults:           inj,
	})
}

func mount(sys *core.System) (*libfs.Session, *pxfs.FS, error) {
	sess, err := sys.NewSession(libfs.Config{
		UID:        1000,
		BatchLimit: 1 << 20,
		PoolRefill: 8,
		RenewEvery: time.Hour,
		// The harness wants the typed shed surfaced, not absorbed by
		// minutes of client-side patience.
		BusyRetries: 2,
	})
	if err != nil {
		return nil, nil, err
	}
	return sess, pxfs.New(sess, pxfs.Options{NameCache: true}), nil
}

// fillContent is the deterministic payload of fill file i.
func fillContent(seed int64, i int) []byte {
	data := make([]byte, 32<<10)
	for j := range data {
		data[j] = byte(int64(i)*131 + seed*31 + int64(j)*7)
	}
	return data
}

func fillName(i int) string { return fmt.Sprintf("/fill/f%04d", i) }

// checkVolume asserts the no-partial-application invariant on a live
// machine: journal idle (nothing committed but unapplied survives an
// ENOSPC) and zero leaked blocks without repair.
func checkVolume(sys *core.System, tag string) []string {
	var fails []string
	if !sys.Set.JournalIdle() {
		fails = append(fails, fmt.Sprintf("%s: journal not idle: committed batch stranded", tag))
	}
	rep, err := sys.Set.Fsck(false)
	if err != nil {
		return append(fails, fmt.Sprintf("%s: fsck: %v", tag, err))
	}
	if rep.LeakedBlocks != 0 {
		fails = append(fails, fmt.Sprintf("%s: fsck found leaks without a crash: %v", tag, rep))
	}
	return fails
}

// naturalFill runs the fill pass. See the package comment for the
// assertions.
func naturalFill(cfg Config) (int, []string) {
	var fails []string
	sys, err := buildTiny(nil)
	if err != nil {
		return 0, []string{fmt.Sprintf("build: %v", err)}
	}
	_, fs, err := mount(sys)
	if err != nil {
		return 0, []string{fmt.Sprintf("mount: %v", err)}
	}
	if err := fs.Mkdir("/fill", 0o755); err != nil {
		return 0, []string{fmt.Sprintf("mkdir: %v", err)}
	}

	// Fill until the volume reports exhaustion. Every file is written once
	// and synced, so files [0, committed) are durably exactly fillContent.
	committed := 0
	var fillErr error
	const maxFiles = 4096
	for i := 0; i < maxFiles; i++ {
		if fillErr = writeFile(fs, fillName(i), fillContent(cfg.Seed, i)); fillErr != nil {
			break
		}
		committed = i + 1
	}
	switch {
	case fillErr == nil:
		return committed, []string{"fill never hit exhaustion: arena too large for the harness"}
	case !typedExhaustion(fillErr):
		fails = append(fails, fmt.Sprintf("fill failure not typed: %v", fillErr))
	}

	// No partial application, no leaks, nothing stranded in the journal.
	fails = append(fails, checkVolume(sys, "post-fill")...)

	// The session must have reconverged with committed state: every
	// committed file reads back exactly.
	for i := 0; i < committed; i++ {
		got, err := readFile(fs, fillName(i), 32<<10)
		if err != nil {
			fails = append(fails, fmt.Sprintf("committed %s unreadable after ENOSPC: %v", fillName(i), err))
			break
		}
		if !bytes.Equal(got, fillContent(cfg.Seed, i)) {
			fails = append(fails, fmt.Sprintf("committed %s corrupted after ENOSPC", fillName(i)))
			break
		}
	}

	// Graceful recovery: deletes must succeed on the full volume and free
	// enough space for new work.
	freeUpTo := committed / 2
	for i := 0; i < freeUpTo; i++ {
		if err := fs.Unlink(fillName(i)); err != nil {
			fails = append(fails, fmt.Sprintf("unlink %s on full volume: %v", fillName(i), err))
			return committed, fails
		}
	}
	if err := fs.Sync(); err != nil {
		fails = append(fails, fmt.Sprintf("sync of deletes on full volume: %v", err))
		return committed, fails
	}
	fails = append(fails, checkVolume(sys, "post-delete")...)

	// Forward progress after freeing space.
	if err := writeFile(fs, "/fill/after", fillContent(cfg.Seed, 9999)); err != nil {
		fails = append(fails, fmt.Sprintf("no forward progress after deletes: %v", err))
	}
	return committed, fails
}

func writeFile(fs *pxfs.FS, name string, data []byte) error {
	f, err := fs.Create(name, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Sync()
}

func readFile(fs *pxfs.FS, name string, size int) ([]byte, error) {
	f, err := fs.Open(name, pxfs.O_RDONLY)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, size)
	n, err := f.ReadAt(buf, 0)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// workload is the injected pass's mutation mix: enough creates, overwrites,
// unlinks, and syncs to hit every exhaustion point repeatedly.
func workload(fs *pxfs.FS, seed int64, steps int) error {
	if err := fs.Mkdir("/d", 0o755); err != nil {
		return fmt.Errorf("mkdir: %w", err)
	}
	for step := 0; step < steps; step++ {
		name := fmt.Sprintf("/d/f%02d", (int(seed)+step*5)%7)
		switch step % 4 {
		case 0, 1:
			if err := writeFile(fs, name, fillContent(seed, step)); err != nil {
				return fmt.Errorf("step %d write: %w", step, err)
			}
		case 2:
			if err := fs.Unlink(name); err != nil && !errors.Is(err, pxfs.ErrNotExist) {
				return fmt.Errorf("step %d unlink: %w", step, err)
			}
		case 3:
			if err := fs.Sync(); err != nil {
				return fmt.Errorf("step %d sync: %w", step, err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		return fmt.Errorf("final sync: %w", err)
	}
	return nil
}

// probe asserts a fresh session can still mutate the volume.
func probe(sys *core.System) []string {
	sess, err := sys.NewSession(libfs.Config{UID: 1001, RenewEvery: time.Hour})
	if err != nil {
		return []string{fmt.Sprintf("probe mount: %v", err)}
	}
	defer sess.Close()
	fs := pxfs.New(sess, pxfs.Options{})
	if err := writeFile(fs, "/probe", []byte("alive")); err != nil {
		return []string{fmt.Sprintf("probe write: %v", err)}
	}
	got, err := readFile(fs, "/probe", 5)
	if err != nil {
		return []string{fmt.Sprintf("probe read: %v", err)}
	}
	if string(got) != "alive" {
		return []string{fmt.Sprintf("probe read back %q", got)}
	}
	return nil
}

// sampleOrdinals picks up to max ordinals in [1, n]: first, last, evenly
// spaced between.
func sampleOrdinals(n uint64, max int) []uint64 {
	if n == 0 {
		return nil
	}
	if max <= 0 || uint64(max) >= n {
		out := make([]uint64, 0, n)
		for o := uint64(1); o <= n; o++ {
			out = append(out, o)
		}
		return out
	}
	if max == 1 {
		return []uint64{1}
	}
	out := make([]uint64, 0, max)
	for i := 0; i < max; i++ {
		o := 1 + (n-1)*uint64(i)/uint64(max-1)
		if len(out) == 0 || out[len(out)-1] != o {
			out = append(out, o)
		}
	}
	return out
}

// runInjected performs one injected-failure experiment.
func runInjected(cfg Config, point string, ord uint64, injectErr error) (fired bool, typed bool, absorbed bool, fails []string) {
	inj := faultinject.New()
	inj.Disable()
	sys, err := buildRoomy(inj)
	if err != nil {
		return false, false, false, []string{fmt.Sprintf("build: %v", err)}
	}
	_, fs, err := mount(sys)
	if err != nil {
		return false, false, false, []string{fmt.Sprintf("mount: %v", err)}
	}
	before := inj.Counts()[point]
	inj.FailAt(point, ord, injectErr)
	inj.Enable()
	werr := workload(fs, cfg.Seed, cfg.Steps)
	inj.Disable()
	fired = inj.Counts()[point]-before >= ord

	tag := fmt.Sprintf("%s@%d", point, ord)
	switch {
	case werr == nil:
		absorbed = true
	case typedExhaustion(werr):
		typed = true
	case fired:
		fails = append(fails, fmt.Sprintf("%s: untyped failure: %v", tag, werr))
	default:
		fails = append(fails, fmt.Sprintf("%s: failed without the injection firing: %v", tag, werr))
	}
	fails = append(fails, checkVolume(sys, tag)...)
	fails = append(fails, probe(sys)...)
	return fired, typed, absorbed, fails
}

// Sweep runs both passes. It returns an error only for harness breakage;
// violations are reported in the Result.
func Sweep(cfg Config) (Result, error) {
	cfg.defaults()
	var res Result

	cfg.Logf("exhaustsweep: natural fill")
	res.FillFiles, res.FillFailures = naturalFill(cfg)
	cfg.Logf("exhaustsweep: fill committed %d files, %d failures", res.FillFiles, len(res.FillFailures))

	// Baseline for the injected pass: count how often each point fires.
	inj := faultinject.New()
	inj.Disable()
	sys, err := buildRoomy(inj)
	if err != nil {
		return res, fmt.Errorf("baseline build: %w", err)
	}
	_, fs, err := mount(sys)
	if err != nil {
		return res, fmt.Errorf("baseline mount: %w", err)
	}
	inj.Enable()
	if err := workload(fs, cfg.Seed, cfg.Steps); err != nil {
		return res, fmt.Errorf("baseline workload: %w", err)
	}
	inj.Disable()
	counts := inj.Counts()

	points := make([]string, 0, len(injectedPoints))
	for p := range injectedPoints {
		points = append(points, p)
	}
	sort.Strings(points)
	if len(cfg.Points) > 0 {
		keep := make(map[string]bool, len(cfg.Points))
		for _, p := range cfg.Points {
			keep[p] = true
		}
		filtered := points[:0]
		for _, p := range points {
			if keep[p] {
				filtered = append(filtered, p)
			}
		}
		points = filtered
	}

	for _, point := range points {
		pr := PointResult{Point: point, Hits: counts[point]}
		for _, ord := range sampleOrdinals(counts[point], cfg.MaxOrdinalsPerPoint) {
			pr.Sampled = append(pr.Sampled, ord)
			fired, typed, absorbed, fails := runInjected(cfg, point, ord, injectedPoints[point])
			res.Runs++
			if fired {
				pr.Injected++
			}
			if typed {
				pr.Typed++
			}
			if absorbed {
				pr.Absorbed++
			}
			pr.Failures = append(pr.Failures, fails...)
			cfg.Logf("exhaustsweep: %s@%d fired=%v typed=%v absorbed=%v failures=%d",
				point, ord, fired, typed, absorbed, len(fails))
		}
		res.Points = append(res.Points, pr)
	}
	return res, nil
}
