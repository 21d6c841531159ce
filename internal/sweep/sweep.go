// Package sweep is the fault-sweep engine: a Scenario (machine options, a
// deterministic workload, an oracle) is run by an Executor that decides
// what a fault is — a simulated crash in this process, a real kill -9 of a
// child process, or an injected error. Every combination goes through the
// same loop: a fault-free baseline enumerates each fault point's hits,
// Ordinals samples them, one fresh machine per sampled ordinal runs the
// workload with the fault armed exactly there, and the survivor is judged
// by the engine's own consistency check plus the scenario's oracle.
//
// The engine that builds a machine also releases it (sessions abandoned,
// lock service stopped, volume unmapped), so memory is flat in the number
// of runs and the exhaustive mode — every ordinal of every point — streams.
//
// AERIE_SWEEP_ORDINALS is the one knob. Unset, each scenario runs its
// tier-1 sampling over its tier-1 point set; N samples N ordinals per point
// over the scenario's full point set; 0 sweeps every ordinal.
package sweep

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

// OrdinalsEnv names the sampling knob (see the package comment).
const OrdinalsEnv = "AERIE_SWEEP_ORDINALS"

// ErrNothingFired is Run's verdict on a sweep in which no armed fault ever
// fired: it verified nothing, whatever its oracle says.
var ErrNothingFired = errors.New("sweep fired no crashes")

// Fault names where a run's fault was armed. The zero Fault is the
// fault-free baseline, which every oracle must accept as well.
type Fault struct {
	Point   string
	Ordinal uint64
}

func (f Fault) String() string { return fmt.Sprintf("%s@%d", f.Point, f.Ordinal) }

// Scenario is what gets swept, independent of how faults are delivered.
type Scenario struct {
	// Name identifies the scenario to a re-executed child process.
	Name string
	// Options shapes the machine. Faults, VolumePath, TrackPersistence,
	// Lease and AcquireTimeout belong to the engine.
	Options core.Options
	// Setup, when set, runs before faults are armed or hits counted.
	Setup func(m *Machine) error
	// Workload must hit the same fault points in the same order on every
	// run (per client, when it runs several). It mounts through m.Mount.
	Workload func(m *Machine) error
	// Oracle returns what is wrong with the machine that survived a fault
	// armed at `at`, beyond the engine's own Verify. Nil checks nothing more.
	Oracle func(m *Machine, at Fault) []string
	// Points is the full point set (nil: every point the baseline
	// enumerates); Quick, when set, is the tier-1 subset of it.
	Points, Quick []string
	// Ordinals is the tier-1 per-point sample size (0: every ordinal).
	Ordinals int
	// Horizon, when set, maps a point's baseline hits to the highest
	// ordinal worth arming: concurrent clients make late ordinals drift out
	// of reach between runs.
	Horizon func(hits uint64) uint64
	// Deterministic scenarios promise every armed ordinal fires; a run in
	// which it did not is then a failure instead of a drift-skip.
	Deterministic bool
}

// Machine is one core.System under the engine's lifecycle, with the
// injector wired through every layer and every session accounted for.
type Machine struct {
	Sys *core.System
	Inj *faultinject.Injector

	mu       sync.Mutex
	sessions []*libfs.Session
}

// Build formats a fresh machine: on the volume file when path is set,
// otherwise on a persistence-tracking arena. The injector starts disabled
// so format-time hits do not shift workload ordinals.
func Build(opts core.Options, path string) (*Machine, error) {
	inj := faultinject.New()
	inj.Disable()
	opts.Faults, opts.VolumePath, opts.TrackPersistence = inj, path, path == ""
	sys, err := core.New(leased(opts))
	if err != nil {
		return nil, err
	}
	if err := sys.Degraded(); err != nil {
		_ = sys.Close()
		return nil, fmt.Errorf("volume degraded to volatile: %w", err)
	}
	return &Machine{Sys: sys, Inj: inj}, nil
}

// leased pins the lock service: leases must not lapse mid-workload on their
// own; expiry is always explicit (ExpireClient or the crash's shutdown).
func leased(opts core.Options) core.Options {
	opts.Lease, opts.AcquireTimeout = time.Hour, 10*time.Second
	return opts
}

// Mount opens a session the machine will abandon on release. Renewal is
// off unless asked for, so the only goroutines touching fault points are
// the workload's own and ordinal schedules stay deterministic.
func (m *Machine) Mount(cfg libfs.Config) (*libfs.Session, error) {
	if cfg.RenewEvery == 0 {
		cfg.RenewEvery = time.Hour
	}
	sess, err := m.Sys.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.sessions = append(m.sessions, sess)
	m.mu.Unlock()
	return sess, nil
}

// MountPXFS is Mount plus a PXFS on top of the session.
func (m *Machine) MountPXFS(cfg libfs.Config, opts pxfs.Options) (*pxfs.FS, error) {
	sess, err := m.Mount(cfg)
	if err != nil {
		return nil, err
	}
	return pxfs.New(sess, opts), nil
}

func (m *Machine) takeSessions() []*libfs.Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions
	m.sessions = nil
	return s
}

// ClientDeath kills every session and leaves the machine up: leases are
// force-expired — firing the TFS drop-client hook that discards unshipped
// state and scavenges the pre-allocation pool — and the sessions abandoned.
func (m *Machine) ClientDeath() {
	for _, s := range m.takeSessions() {
		m.Sys.Set.Locks.ExpireClient(s.ClientID())
		s.Abandon()
	}
}

// PowerLoss kills the whole machine and recovers it: sessions die with it,
// the volatile image is discarded, and the TFS replays its journal. The
// dead service must not act on its clients' disconnects — nobody is there
// to — so its disconnect hooks are cleared before the sessions go.
func (m *Machine) PowerLoss() error {
	srv := m.Sys.Srv
	for _, s := range m.takeSessions() {
		srv.OnDisconnect(s.ClientID(), nil)
		s.Abandon()
	}
	return m.Sys.CrashAndRecover()
}

// Release abandons what sessions are left and closes the machine: nothing
// of it stays reachable afterwards.
func (m *Machine) Release() error {
	for _, s := range m.takeSessions() {
		s.Abandon()
	}
	return m.Sys.Close()
}

// Consistent checks the volume's integrity. After a crash it must repair
// completely — Fsck(repair) fixes every leak it finds and a recheck finds
// none; without one (an injected error, a clean run) there must be nothing
// to repair and no committed batch stranded in the journal.
func Consistent(m *Machine, crashed bool) []string {
	var fails []string
	set := m.Sys.Set
	if !crashed && !set.JournalIdle() {
		fails = append(fails, "journal not idle: committed batch stranded")
	}
	rep, err := set.Fsck(crashed)
	if err != nil {
		return append(fails, fmt.Sprintf("fsck: %v", err))
	}
	if crashed {
		if rep.LeakedBlocks != rep.RepairedBlocks {
			fails = append(fails, fmt.Sprintf("fsck left unrepaired leaks: %+v", rep))
		}
		if rep, err = set.Fsck(false); err != nil {
			return append(fails, fmt.Sprintf("fsck(recheck): %v", err))
		}
	}
	if rep.LeakedBlocks != 0 {
		fails = append(fails, fmt.Sprintf("leaked blocks (crashed=%v): %+v", crashed, rep))
	}
	return fails
}

// Verify is the engine's own judgement of a machine: it is Consistent, and
// a fresh client can still write, sync and read back.
func Verify(m *Machine, crashed bool) []string {
	fails := Consistent(m, crashed)
	if err := probe(m); err != nil {
		fails = append(fails, fmt.Sprintf("probe: %v", err))
	}
	return fails
}

func probe(m *Machine) error {
	sess, err := m.Mount(libfs.Config{UID: 1001})
	if err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	defer sess.Close()
	fs := pxfs.New(sess, pxfs.Options{})
	if err := WriteFile(fs, "/probe", []byte("alive")); err != nil {
		return err
	}
	if err := fs.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	if msg := CheckFile(fs, "/probe", []byte("alive"), true); msg != "" {
		return errors.New(msg)
	}
	return nil
}

// WriteFile creates (or truncates) name with data; nothing is synced.
func WriteFile(fs *pxfs.FS, name string, data []byte) error {
	f, err := fs.Create(name, 0o644)
	if err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", name, err)
	}
	return nil
}

// CheckFile reads name and compares it to want byte for byte, returning
// what is wrong or "". A strict check demands all of it; otherwise the file
// may be short or empty — its content stores were still in flight when its
// name published — but what is there must match.
func CheckFile(fs *pxfs.FS, name string, want []byte, strict bool) string {
	f, err := fs.Open(name, pxfs.O_RDONLY)
	if err != nil {
		return fmt.Sprintf("open %s: %v", name, err)
	}
	defer f.Close()
	got := make([]byte, len(want))
	n, err := f.ReadAt(got, 0)
	if strict && n != len(want) {
		return fmt.Sprintf("%s: %d of %d bytes survived (%v)", name, n, len(want), err)
	}
	for j := 0; j < n; j++ {
		if got[j] != want[j] {
			return fmt.Sprintf("%s: byte %d is %#x, want %#x", name, j, got[j], want[j])
		}
	}
	return ""
}

// judge is Verify plus the scenario's oracle.
func (sc *Scenario) judge(m *Machine, crashed bool, at Fault) []string {
	fails := Verify(m, crashed)
	if sc.Oracle != nil {
		fails = append(fails, sc.Oracle(m, at)...)
	}
	return fails
}

// Ordinals picks up to max ordinals in [1, n], always the first and (from
// max 2 on) the last hit, evenly spaced between. max <= 0 picks all of them.
func Ordinals(n uint64, max int) []uint64 {
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
		out = append(out, 1+(n-1)*uint64(i)/uint64(max-1))
	}
	return out
}

// window is a run of consecutive hits of one point in the baseline:
// ordinals base+1 .. base+hits. The crash executor reports two per point —
// the workload's and the recovery's; the others one.
type window struct {
	point      string
	base, hits uint64
	recovery   bool
}

// Executor delivers faults: it enumerates a scenario's fault points with a
// fault-free baseline and re-runs the scenario with one fault armed.
type Executor interface {
	name() string
	baseline(sc *Scenario) ([]window, error)
	run(sc *Scenario, w window, at Fault) Outcome
}

// Outcome is one run.
type Outcome struct {
	Fault
	// Recovery marks a fault armed inside recovery, after a first crash.
	Recovery bool
	// Fired: the armed ordinal was reached. The rest drifted out of reach.
	Fired bool
	// Typed and Absorbed classify an injected error's run: the workload
	// failed with a sanctioned error, or completed despite the injection.
	Typed, Absorbed bool
	Failures        []string
}

// Result is the outcome of a whole sweep.
type Result struct {
	Scenario, Executor string
	// Hits is every swept point's baseline hit count.
	Hits map[string]uint64
	Runs []Outcome
}

// Fired counts the runs whose fault fired, at one point or (point "") all.
func (r Result) Fired(point string) int {
	n := 0
	for _, o := range r.Runs {
		if o.Fired && (point == "" || o.Point == point) {
			n++
		}
	}
	return n
}

// Failures flattens every run's failures, each prefixed with its fault.
func (r Result) Failures() []string {
	var out []string
	for _, o := range r.Runs {
		for _, f := range o.Failures {
			out = append(out, o.Fault.String()+": "+f)
		}
	}
	return out
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep %s/%s: %d points, %d runs, %d fired, %d failures\n",
		r.Scenario, r.Executor, len(r.Hits), len(r.Runs), r.Fired(""), len(r.Failures()))
	points := make([]string, 0, len(r.Hits))
	for p := range r.Hits {
		points = append(points, p)
	}
	sort.Strings(points)
	for _, p := range points {
		var runs, typed, absorbed, fails int
		for _, o := range r.Runs {
			if o.Point != p {
				continue
			}
			runs++
			fails += len(o.Failures)
			if o.Typed {
				typed++
			}
			if o.Absorbed {
				absorbed++
			}
		}
		fmt.Fprintf(&b, "  %-28s hits=%d sampled=%d fired=%d typed=%d absorbed=%d failures=%d\n",
			p, r.Hits[p], runs, r.Fired(p), typed, absorbed, fails)
	}
	return b.String()
}

// plan resolves the knob: the point filter and per-point sample size.
func (sc *Scenario) plan() (points []string, max int, err error) {
	v, set := os.LookupEnv(OrdinalsEnv)
	if !set {
		if sc.Quick != nil {
			return sc.Quick, sc.Ordinals, nil
		}
		return sc.Points, sc.Ordinals, nil
	}
	if max, err = strconv.Atoi(v); err != nil || max < 0 {
		return nil, 0, fmt.Errorf("bad %s %q: want a count, or 0 for every ordinal", OrdinalsEnv, v)
	}
	return sc.Points, max, nil
}

// Enumerate runs only the baseline and returns the points the scenario hits
// under this executor, restricted to its full point set.
func Enumerate(sc Scenario, ex Executor) ([]string, error) {
	wins, err := ex.baseline(&sc)
	if err != nil {
		return nil, fmt.Errorf("%s/%s baseline: %w", sc.Name, ex.name(), err)
	}
	var out []string
	for _, w := range keep(wins, sc.Points) {
		if len(out) == 0 || out[len(out)-1] != w.point {
			out = append(out, w.point)
		}
	}
	return out, nil
}

// keep filters windows to the named points (nil keeps all), sorted by
// point, workload window first.
func keep(wins []window, points []string) []window {
	sort.Slice(wins, func(i, j int) bool {
		if wins[i].point != wins[j].point {
			return wins[i].point < wins[j].point
		}
		return !wins[i].recovery && wins[j].recovery
	})
	if points == nil {
		return wins
	}
	want := make(map[string]bool, len(points))
	for _, p := range points {
		want[p] = true
	}
	out := wins[:0]
	for _, w := range wins {
		if want[w.point] {
			out = append(out, w)
		}
	}
	return out
}

// Run sweeps sc under ex. The error is harness breakage — a baseline that
// fails, a bad knob, and ErrNothingFired for a planned point the baseline
// never hits or a sweep in which no run fired; consistency violations are in
// the Result, all of them. logf (may be nil) receives one progress line per run.
func Run(sc Scenario, ex Executor, logf func(format string, args ...any)) (Result, error) {
	res := Result{Scenario: sc.Name, Executor: ex.name(), Hits: map[string]uint64{}}
	points, max, err := sc.plan()
	if err != nil {
		return res, err
	}
	wins, err := ex.baseline(&sc)
	if err != nil {
		return res, fmt.Errorf("%s/%s baseline: %w", sc.Name, ex.name(), err)
	}
	wins = keep(wins, points)
	for _, w := range wins {
		res.Hits[w.point] += w.hits
	}
	for _, p := range points {
		if res.Hits[p] == 0 {
			return res, fmt.Errorf("%s/%s: %w at %s: the baseline never hits it", sc.Name, ex.name(), ErrNothingFired, p)
		}
	}
	for _, w := range wins {
		reach := w.hits
		if sc.Horizon != nil {
			reach = sc.Horizon(reach)
		}
		for _, rel := range Ordinals(reach, max) {
			o := ex.run(&sc, w, Fault{w.point, w.base + rel})
			if !o.Fired && sc.Deterministic {
				o.Failures = append(o.Failures, "armed fault never fired in a deterministic scenario")
			}
			res.Runs = append(res.Runs, o)
			if logf != nil {
				logf("sweep %s/%s: %s recovery=%v fired=%v failures=%d",
					sc.Name, ex.name(), o.Fault, o.Recovery, o.Fired, len(o.Failures))
			}
		}
	}
	if res.Fired("") == 0 {
		return res, fmt.Errorf("%s/%s: %w in %d runs", sc.Name, ex.name(), ErrNothingFired, len(res.Runs))
	}
	return res, nil
}

// start builds a machine, runs Setup unarmed, arms it, and runs the
// workload under crash recovery: the common front half of every in-process
// run. The injector is disabled again on return.
func (sc *Scenario) start(path string, arm func(*faultinject.Injector)) (*Machine, *faultinject.Crash, error) {
	m, err := Build(sc.Options, path)
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	if sc.Setup != nil {
		if err := sc.Setup(m); err != nil {
			_ = m.Release()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
	}
	if arm != nil {
		arm(m.Inj)
	}
	m.Inj.Enable()
	crash, werr := faultinject.Run(func() error { return sc.Workload(m) })
	m.Inj.Disable()
	return m, crash, werr
}

// clean runs sc fault-free on a fresh machine and returns its hit counts,
// the machine still up (the caller releases it).
func (sc *Scenario) clean() (*Machine, map[string]uint64, error) {
	m, _, err := sc.start("", nil)
	if err != nil {
		if m != nil {
			_ = m.Release()
		}
		return nil, nil, fmt.Errorf("fault-free workload: %w", err)
	}
	return m, m.Inj.Counts(), nil
}

// Check is Run for tests: the result is logged, every violation is a test
// error, and harness breakage — a sweep that fired nothing included — is
// fatal.
func Check(t testing.TB, sc Scenario, ex Executor) Result {
	t.Helper()
	res, err := Run(sc, ex, t.Logf)
	t.Logf("\n%s", res)
	for _, f := range res.Failures() {
		t.Errorf("consistency violation: %s", f)
	}
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return res
}

func failed(fails []string) error {
	if len(fails) == 0 {
		return nil
	}
	return errors.New(strings.Join(fails, "; "))
}
