// Package crashsweep is the exhaustive crash-recovery harness: it runs a
// deterministic mutation workload against a full Aerie machine, enumerates
// every fault point the workload (and a subsequent recovery) exercises, and
// then re-runs the workload once per sampled ordinal of every point with a
// crash armed exactly there. After each simulated crash it drives the
// appropriate death-and-recovery sequence and asserts the volume came back
// consistent: Fsck(repair) reports no errors, a second Fsck finds zero
// leaked blocks, and a fresh client can still mutate the volume.
//
// Two crash models cover the fault points:
//
//   - Client death (libfs.* and rpc.* points, which fire on the client side
//     of the in-process transport): the session vanishes mid-operation, its
//     leases are force-expired — firing the TFS drop-client hook that
//     discards unshipped state and scavenges the pre-allocation pool — and
//     the TFS keeps running. This substitutes for a real process dying and
//     losing its memory mappings.
//
//   - Machine power loss (scm.*, journal.*, tfs.* points): the volatile
//     image is discarded, leases die with the lock service, and the TFS
//     recovers by journal replay plus pre-allocation scavenging.
//
// Ordinals past the workload phase fall inside recovery itself: for those
// the harness lets the workload finish, crashes the machine, arms the crash
// inside the first recovery, and then recovers a second time — checking
// that recovery is restartable (replay is idempotent, see the journal
// package's property test).
package crashsweep

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

// Config tunes a sweep.
type Config struct {
	// Seed drives the deterministic workload (default 1).
	Seed int64
	// Steps is the number of workload mutation steps (default 24).
	Steps int
	// MaxOrdinalsPerPoint caps how many ordinals of each point are crashed
	// into (default 2: the first and the last hit). <=0 sweeps every
	// ordinal — exhaustive but slow.
	MaxOrdinalsPerPoint int
	// Points, when non-empty, restricts the sweep to these points.
	Points []string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Steps == 0 {
		c.Steps = 24
	}
	if c.MaxOrdinalsPerPoint == 0 {
		c.MaxOrdinalsPerPoint = 2
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// PointResult is the sweep outcome for one fault point.
type PointResult struct {
	Point string
	// WorkloadHits and RecoveryHits partition the baseline hit count: the
	// first WorkloadHits ordinals fire during the mutation workload, the
	// rest during the baseline crash-and-recover.
	WorkloadHits uint64
	RecoveryHits uint64
	// Sampled ordinals a crash was armed at.
	Sampled []uint64
	// Crashes that actually fired (the rest were misses: the armed ordinal
	// was never reached, e.g. timing-free drift between runs).
	Crashes int
	// Failures describes every consistency violation found.
	Failures []string
}

// Result is the outcome of a whole sweep.
type Result struct {
	Points []PointResult
	Runs   int
}

// Crashes totals the crash runs that actually fired.
func (r Result) Crashes() int {
	n := 0
	for _, p := range r.Points {
		n += p.Crashes
	}
	return n
}

// Failures flattens every per-point failure, prefixed with its point.
func (r Result) Failures() []string {
	var out []string
	for _, p := range r.Points {
		for _, f := range p.Failures {
			out = append(out, p.Point+": "+f)
		}
	}
	return out
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crashsweep: %d points, %d runs, %d crashes, %d failures\n",
		len(r.Points), r.Runs, r.Crashes(), len(r.Failures()))
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-28s hits=%d+%d sampled=%d crashes=%d failures=%d\n",
			p.Point, p.WorkloadHits, p.RecoveryHits, len(p.Sampled), p.Crashes, len(p.Failures))
	}
	return b.String()
}

// clientDeathPoint reports whether a point fires on the client side of the
// in-process transport, so a crash there models client death (TFS intact)
// rather than machine power loss.
func clientDeathPoint(point string) bool {
	return strings.HasPrefix(point, "libfs.") || strings.HasPrefix(point, "rpc.")
}

// build assembles a machine with the injector wired through every layer.
// The injector must be disabled around construction so that format-time
// hits don't shift workload ordinals.
func build(inj *faultinject.Injector) (*core.System, error) {
	return core.New(core.Options{
		ArenaSize:        32 << 20,
		TrackPersistence: true,
		// Leases must not lapse mid-workload on their own; expiry is always
		// explicit (ExpireClient or the crash's lock-service shutdown).
		Lease:          time.Hour,
		AcquireTimeout: 10 * time.Second,
		Faults:         inj,
	})
}

// mount opens the workload session. Renewal is off (huge interval) so the
// only goroutine touching fault points is the workload itself, keeping
// ordinal schedules deterministic.
func mount(sys *core.System) (*libfs.Session, *pxfs.FS, error) {
	sess, err := sys.NewSession(libfs.Config{
		UID:        1000,
		BatchLimit: 32 << 10,
		RenewEvery: time.Hour,
	})
	if err != nil {
		return nil, nil, err
	}
	return sess, pxfs.New(sess, pxfs.Options{NameCache: true}), nil
}

// workload runs the deterministic mutation mix: creates, overwrites,
// unlinks, renames, chmods (with and without hardware protection), and
// periodic syncs so every journal/apply/prealloc path is exercised.
func workload(fs *pxfs.FS, seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	if err := fs.Mkdir("/d", 0o755); err != nil {
		return fmt.Errorf("mkdir: %w", err)
	}
	for step := 0; step < steps; step++ {
		name := fmt.Sprintf("/d/f%02d", rng.Intn(8))
		switch rng.Intn(6) {
		case 0, 1: // create or overwrite
			data := make([]byte, rng.Intn(8<<10)+1)
			rng.Read(data)
			f, err := fs.Create(name, 0o644)
			if err != nil {
				return fmt.Errorf("step %d create %s: %w", step, name, err)
			}
			if _, err := f.Write(data); err != nil {
				return fmt.Errorf("step %d write %s: %w", step, name, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("step %d close %s: %w", step, name, err)
			}
		case 2: // unlink
			if err := fs.Unlink(name); err != nil && !isNotExist(err) {
				return fmt.Errorf("step %d unlink %s: %w", step, name, err)
			}
		case 3: // rename
			dst := fmt.Sprintf("/d/f%02d", rng.Intn(8))
			if dst != name {
				if err := fs.Rename(name, dst); err != nil && !isNotExist(err) {
					return fmt.Errorf("step %d rename %s: %w", step, name, err)
				}
			}
		case 4: // chmod, alternating hardware protection
			err := fs.Chmod(name, 0o600, step%2 == 0)
			if err != nil && !isNotExist(err) {
				return fmt.Errorf("step %d chmod %s: %w", step, name, err)
			}
		case 5: // sync mid-stream
			if err := fs.Sync(); err != nil {
				return fmt.Errorf("step %d sync: %w", step, err)
			}
		}
		if step%6 == 5 {
			if err := fs.Sync(); err != nil {
				return fmt.Errorf("step %d periodic sync: %w", step, err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		return fmt.Errorf("final sync: %w", err)
	}
	return nil
}

func isNotExist(err error) bool {
	return errors.Is(err, pxfs.ErrNotExist)
}

// verify asserts the recovered volume is consistent and alive: Fsck with
// repair succeeds and repairs everything it found, a second pass confirms
// zero leaked blocks remain, and a fresh session can create, sync, and read
// back a file.
func verify(sys *core.System) []string {
	var fails []string
	rep, err := sys.Set.Fsck(true)
	if err != nil {
		return append(fails, fmt.Sprintf("fsck(repair): %v", err))
	}
	if rep.LeakedBlocks != rep.RepairedBlocks {
		fails = append(fails, fmt.Sprintf("fsck left unrepaired leaks: %v", rep))
	}
	rep2, err := sys.Set.Fsck(false)
	if err != nil {
		return append(fails, fmt.Sprintf("fsck(recheck): %v", err))
	}
	if rep2.LeakedBlocks != 0 {
		fails = append(fails, fmt.Sprintf("leaks persist after repair: %v", rep2))
	}
	sess, err := sys.NewSession(libfs.Config{UID: 1001, RenewEvery: time.Hour})
	if err != nil {
		return append(fails, fmt.Sprintf("probe mount: %v", err))
	}
	defer sess.Close()
	fs := pxfs.New(sess, pxfs.Options{})
	f, err := fs.Create("/probe", 0o644)
	if err != nil {
		return append(fails, fmt.Sprintf("probe create: %v", err))
	}
	if _, err := f.Write([]byte("alive")); err != nil {
		return append(fails, fmt.Sprintf("probe write: %v", err))
	}
	_ = f.Close()
	if err := fs.Sync(); err != nil {
		return append(fails, fmt.Sprintf("probe sync: %v", err))
	}
	g, err := fs.Open("/probe", pxfs.O_RDONLY)
	if err != nil {
		return append(fails, fmt.Sprintf("probe reopen: %v", err))
	}
	buf := make([]byte, 5)
	if _, err := g.ReadAt(buf, 0); err != nil {
		fails = append(fails, fmt.Sprintf("probe read: %v", err))
	} else if string(buf) != "alive" {
		fails = append(fails, fmt.Sprintf("probe read back %q, want %q", buf, "alive"))
	}
	_ = g.Close()
	return fails
}

// sampleOrdinals picks up to max ordinals in [1, n], always including the
// first and last hit, evenly spaced between.
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
	out := make([]uint64, 0, max)
	for i := 0; i < max; i++ {
		o := 1 + (n-1)*uint64(i)/uint64(max-1)
		if len(out) == 0 || out[len(out)-1] != o {
			out = append(out, o)
		}
	}
	return out
}

// dirtyTrigger is the crash rule used to leave a non-empty journal behind:
// the first batch is committed and applied, but the crash lands before its
// checkpoint, so the subsequent recovery has records to replay. That makes
// the recovery-phase fault points (tfs.recover, journal.replay.record, ...)
// reachable for crash-during-recovery experiments.
const dirtyTrigger = "tfs.apply.checkpoint"

// Sweep runs the full enumeration. It returns an error only for harness
// breakage (e.g. the fault-free baseline failing); consistency violations
// are reported in the Result so the caller sees all of them at once.
func Sweep(cfg Config) (Result, error) {
	cfg.defaults()
	var res Result

	// Pass 1: fault-free baseline enumerates the workload-phase ordinals of
	// every point and proves the harness itself is sound.
	inj := faultinject.New()
	inj.Disable()
	sys, err := build(inj)
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
	workloadCounts := inj.Counts()
	if err := sys.CrashAndRecover(); err != nil {
		return res, fmt.Errorf("baseline recovery: %w", err)
	}
	if fails := verify(sys); len(fails) > 0 {
		return res, fmt.Errorf("baseline verify: %s", strings.Join(fails, "; "))
	}

	// Pass 2: dirty-recovery baseline. Crash the machine mid-apply (journal
	// non-empty), then run the recovery with counting enabled: the counts
	// that appear only after the crash are the recovery-phase windows.
	dinj := faultinject.New()
	dinj.Disable()
	dsys, err := build(dinj)
	if err != nil {
		return res, fmt.Errorf("dirty baseline build: %w", err)
	}
	_, dfs, err := mount(dsys)
	if err != nil {
		return res, fmt.Errorf("dirty baseline mount: %w", err)
	}
	dinj.CrashAt(dirtyTrigger, 1)
	dinj.Enable()
	crash, _ := faultinject.Run(func() error { return workload(dfs, cfg.Seed, cfg.Steps) })
	if crash == nil {
		return res, fmt.Errorf("dirty baseline: trigger crash at %s never fired", dirtyTrigger)
	}
	preRecovery := dinj.Counts()
	rcrash, rerr := faultinject.Run(func() error { return dsys.CrashAndRecover() })
	dinj.Disable()
	if rcrash != nil {
		return res, fmt.Errorf("dirty baseline: unexpected crash during recovery at %s", rcrash.Point)
	}
	if rerr != nil {
		return res, fmt.Errorf("dirty baseline recovery: %w", rerr)
	}
	dirtyTotal := dinj.Counts()
	if fails := verify(dsys); len(fails) > 0 {
		return res, fmt.Errorf("dirty baseline verify: %s", strings.Join(fails, "; "))
	}

	// recWindow[point] = (ordinal base, hits) inside the dirty recovery.
	type window struct{ base, hits uint64 }
	recWindow := map[string]window{}
	for p, tot := range dirtyTotal {
		if d := tot - preRecovery[p]; d > 0 {
			recWindow[p] = window{base: preRecovery[p], hits: d}
		}
	}

	pointSet := map[string]bool{}
	for p := range workloadCounts {
		pointSet[p] = true
	}
	for p := range recWindow {
		pointSet[p] = true
	}
	points := make([]string, 0, len(pointSet))
	for p := range pointSet {
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
	cfg.Logf("crashsweep: baselines found %d fault points", len(points))

	// Pass 3: one run per sampled ordinal of every point — workload-phase
	// ordinals crash mid-workload, recovery-phase ordinals crash inside the
	// first recovery of the dirty scenario and then recover again.
	for _, point := range points {
		w := recWindow[point]
		pr := PointResult{
			Point:        point,
			WorkloadHits: workloadCounts[point],
			RecoveryHits: w.hits,
		}
		for _, ord := range sampleOrdinals(workloadCounts[point], cfg.MaxOrdinalsPerPoint) {
			pr.Sampled = append(pr.Sampled, ord)
			crashed, fails := runOne(cfg, point, ord)
			res.Runs++
			if crashed {
				pr.Crashes++
			}
			pr.Failures = append(pr.Failures, fails...)
			cfg.Logf("crashsweep: %s@%d crashed=%v failures=%d", point, ord, crashed, len(fails))
		}
		for _, rel := range sampleOrdinals(w.hits, cfg.MaxOrdinalsPerPoint) {
			ord := w.base + rel
			pr.Sampled = append(pr.Sampled, ord)
			crashed, fails := runDirty(cfg, point, ord)
			res.Runs++
			if crashed {
				pr.Crashes++
			}
			pr.Failures = append(pr.Failures, fails...)
			cfg.Logf("crashsweep: %s@%d (recovery) crashed=%v failures=%d", point, ord, crashed, len(fails))
		}
		res.Points = append(res.Points, pr)
	}
	return res, nil
}

// runOne performs a single crash experiment: workload with a crash armed at
// the ord'th hit of point, then the death-and-recovery sequence for that
// point's crash model, then verification. Returns whether the crash fired
// and any consistency failures.
func runOne(cfg Config, point string, ord uint64) (bool, []string) {
	inj := faultinject.New()
	inj.Disable()
	sys, err := build(inj)
	if err != nil {
		return false, []string{fmt.Sprintf("build: %v", err)}
	}
	sess, fs, err := mount(sys)
	if err != nil {
		return false, []string{fmt.Sprintf("mount: %v", err)}
	}
	clientID := sess.ClientID()
	inj.CrashAt(point, ord)
	inj.Enable()
	crash, werr := faultinject.Run(func() error {
		return workload(fs, cfg.Seed, cfg.Steps)
	})
	inj.Disable()

	switch {
	case crash != nil:
		if clientDeathPoint(point) {
			// The session is gone; its leases lapse and the TFS reclaims
			// the client's state. The machine itself stays up.
			sys.Set.Locks.ExpireClient(clientID)
		} else {
			if err := sys.CrashAndRecover(); err != nil {
				return true, []string{fmt.Sprintf("recovery after crash@%d: %v", ord, err)}
			}
		}
		return true, tagged(verify(sys), point, ord, "post-crash")

	case werr != nil:
		return false, []string{fmt.Sprintf("workload error without crash @%d: %v", ord, werr)}

	default:
		// The armed ordinal was never reached (drift); nothing to assert
		// beyond the fault-free baseline already covered.
		return false, nil
	}
}

// runDirty performs a crash-during-recovery experiment: the dirty trigger
// crashes the machine with a non-empty journal, the first recovery runs
// with a crash armed at the ord'th hit of point, and a second recovery must
// then bring the volume back — recovery has to be restartable.
func runDirty(cfg Config, point string, ord uint64) (bool, []string) {
	inj := faultinject.New()
	inj.Disable()
	sys, err := build(inj)
	if err != nil {
		return false, []string{fmt.Sprintf("build: %v", err)}
	}
	_, fs, err := mount(sys)
	if err != nil {
		return false, []string{fmt.Sprintf("mount: %v", err)}
	}
	inj.CrashAt(dirtyTrigger, 1)
	inj.CrashAt(point, ord)
	inj.Enable()
	crash, _ := faultinject.Run(func() error { return workload(fs, cfg.Seed, cfg.Steps) })
	if crash == nil {
		inj.Disable()
		return false, []string{fmt.Sprintf("dirty trigger never fired for %s@%d", point, ord)}
	}
	crash2, rerr := faultinject.Run(func() error { return sys.CrashAndRecover() })
	inj.Disable()
	if crash2 == nil {
		if rerr != nil {
			return false, []string{fmt.Sprintf("first recovery error without crash @%d: %v", ord, rerr)}
		}
		// The recovery-phase ordinal drifted out of reach.
		return false, nil
	}
	if err := sys.CrashAndRecover(); err != nil {
		return true, []string{fmt.Sprintf("second recovery after crash-in-recovery@%d: %v", ord, err)}
	}
	return true, tagged(verify(sys), point, ord, "post-recovery-crash")
}

func tagged(fails []string, point string, ord uint64, phase string) []string {
	out := make([]string, 0, len(fails))
	for _, f := range fails {
		out = append(out, fmt.Sprintf("%s@%d [%s]: %s", point, ord, phase, f))
	}
	return out
}
