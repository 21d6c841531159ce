package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/faultinject"
)

// Crash is the in-process executor: a crash rule unwinds the workload at
// the armed hit, on the persistence-tracking arena's shadow image. Two
// death models cover the points:
//
//   - Client death (libfs.* and rpc.* points, which fire on the client side
//     of the in-process transport): the sessions vanish mid-operation, their
//     leases are force-expired and the TFS keeps running.
//   - Machine power loss (everything else): the volatile image is
//     discarded, leases die with the lock service, and the TFS recovers by
//     journal replay plus pre-allocation scavenging.
//
// Points that fire inside recovery itself get a third model: the workload
// crashes at dirtyTrigger, the crash is armed inside the first recovery,
// and a second recovery must bring the volume back — recovery has to be
// restartable.
type Crash struct{}

// dirtyTrigger leaves a non-empty journal behind: the first batch is
// committed and applied, but the crash lands before its checkpoint, so the
// recovery that follows has records to replay and the recovery-phase points
// (tfs.recover, journal.replay.record, ...) become reachable.
const dirtyTrigger = "tfs.apply.checkpoint"

func (Crash) name() string { return "crash" }

func clientSide(point string) bool {
	return strings.HasPrefix(point, "libfs.") || strings.HasPrefix(point, "rpc.")
}

func (Crash) baseline(sc *Scenario) ([]window, error) {
	// Pass 1, fault-free: the workload-phase hits of every point, and proof
	// that the scenario itself is sound.
	m, counts, err := sc.clean()
	if err != nil {
		return nil, err
	}
	err = m.PowerLoss()
	if err == nil {
		err = failed(sc.judge(m, true, Fault{}))
	}
	_ = m.Release()
	if err != nil {
		return nil, fmt.Errorf("fault-free run, then power loss: %w", err)
	}
	var wins []window
	for p, n := range counts {
		wins = append(wins, window{point: p, hits: n})
	}

	// Pass 2, dirty recovery: crash mid-apply, then count through the
	// recovery. Hits that appear only then are the recovery-phase windows.
	m, crash, err := sc.start("", func(inj *faultinject.Injector) { inj.CrashAt(dirtyTrigger, 1) })
	if m == nil {
		return nil, fmt.Errorf("dirty baseline: %w", err)
	}
	defer m.Release()
	if crash == nil {
		return nil, fmt.Errorf("dirty baseline: trigger crash at %s never fired", dirtyTrigger)
	}
	before := m.Inj.Counts()
	m.Inj.Enable()
	rcrash, err := faultinject.Run(m.PowerLoss)
	m.Inj.Disable()
	if rcrash != nil {
		return nil, fmt.Errorf("dirty baseline: unarmed crash during recovery at %s", rcrash.Point)
	}
	if err == nil {
		err = failed(sc.judge(m, true, Fault{dirtyTrigger, 1}))
	}
	if err != nil {
		return nil, fmt.Errorf("dirty baseline: %w", err)
	}
	for p, n := range m.Inj.Counts() {
		if n > before[p] {
			wins = append(wins, window{point: p, base: before[p], hits: n - before[p], recovery: true})
		}
	}
	return wins, nil
}

func (Crash) run(sc *Scenario, w window, at Fault) Outcome {
	o := Outcome{Fault: at, Recovery: w.recovery}
	m, crash, werr := sc.start("", func(inj *faultinject.Injector) {
		if w.recovery {
			inj.CrashAt(dirtyTrigger, 1)
		}
		inj.CrashAt(at.Point, at.Ordinal)
	})
	if m == nil {
		o.Failures = []string{werr.Error()}
		return o
	}
	defer m.Release()
	switch {
	case crash == nil && werr != nil:
		o.Failures = []string{fmt.Sprintf("workload error without a crash: %v", werr)}
	case crash == nil:
		if w.recovery {
			o.Failures = []string{"dirty trigger never fired"}
		}
		// Otherwise the armed ordinal drifted out of reach: nothing to
		// assert beyond what the baseline already covered.
	case w.recovery:
		m.Inj.Enable()
		crash2, err := faultinject.Run(m.PowerLoss)
		m.Inj.Disable()
		if crash2 == nil {
			if err != nil {
				o.Failures = []string{fmt.Sprintf("first recovery error without a crash: %v", err)}
			}
			return o
		}
		o.Fired = true
		if err := m.Sys.CrashAndRecover(); err != nil {
			o.Failures = []string{fmt.Sprintf("second recovery after the crash in recovery: %v", err)}
			return o
		}
		o.Failures = sc.judge(m, true, at)
	default:
		o.Fired = true
		if clientSide(at.Point) {
			m.ClientDeath()
		} else if err := m.PowerLoss(); err != nil {
			o.Failures = []string{fmt.Sprintf("recovery: %v", err)}
			return o
		}
		o.Failures = sc.judge(m, true, at)
	}
	return o
}

// Inject is the error executor: the armed hit returns Errors[point] instead
// of crashing, and the machine carries on. The workload must either absorb
// the failure and complete, or fail with an error Typed accepts; either
// way the volume must verify with nothing to repair. It sweeps the points
// of Errors.
type Inject struct {
	Errors map[string]error
	Typed  func(error) bool
}

func (Inject) name() string { return "inject" }

func (ex Inject) baseline(sc *Scenario) ([]window, error) {
	m, counts, err := sc.clean()
	if err != nil {
		return nil, err
	}
	defer m.Release()
	if err := failed(sc.judge(m, false, Fault{})); err != nil {
		return nil, err
	}
	var wins []window
	for p := range ex.Errors {
		wins = append(wins, window{point: p, hits: counts[p]})
	}
	return wins, nil
}

func (ex Inject) run(sc *Scenario, w window, at Fault) Outcome {
	o := Outcome{Fault: at}
	m, _, werr := sc.start("", func(inj *faultinject.Injector) {
		inj.FailAt(at.Point, at.Ordinal, ex.Errors[at.Point])
	})
	if m == nil {
		o.Failures = []string{werr.Error()}
		return o
	}
	defer m.Release()
	o.Fired = m.Inj.Counts()[at.Point] >= at.Ordinal
	switch {
	case werr == nil:
		o.Absorbed = true
	case ex.Typed(werr):
		o.Typed = true
	case o.Fired:
		o.Failures = []string{fmt.Sprintf("untyped failure: %v", werr)}
	default:
		o.Failures = []string{fmt.Sprintf("failed without the injection firing: %v", werr)}
	}
	o.Failures = append(o.Failures, sc.judge(m, false, at)...)
	return o
}

// Kill is the real-process executor: the test binary is re-executed as a
// child that builds the machine on a volume file under Dir and runs the
// workload with a SIGKILL armed; it dies with no unwinding at all. The
// parent reopens the file with core.Open — dirty flag seen, journal
// replayed, orphaned 2PC transactions resolved — and judges what came back.
// The test binary must contain a TestSweepChild that calls Child with the
// scenario.
type Kill struct{ Dir string }

// The child protocol: the scenario by name, its volume file, and where to
// arm the kill (no point: the fault-free baseline, which prints its counts).
const (
	envChild = "AERIE_SWEEP_CHILD"
	envVol   = "AERIE_SWEEP_VOL"
	envPoint = "AERIE_SWEEP_POINT"
	envOrd   = "AERIE_SWEEP_ORD"

	countLine = "sweep-count"
)

func (Kill) name() string { return "kill9" }

// Child is the body of TestSweepChild: in a Kill executor's child it runs
// the named scenario as the environment says. Killed mid-workload it never
// returns; otherwise it closes the machine cleanly and prints the per-point
// hit counts. Anywhere else it skips.
func Child(t testing.TB, scenarios ...Scenario) {
	name := os.Getenv(envChild)
	if name == "" {
		t.Skip("child entry point; driven by the Kill executor")
	}
	var sc *Scenario
	for i := range scenarios {
		if scenarios[i].Name == name {
			sc = &scenarios[i]
		}
	}
	if sc == nil {
		t.Fatalf("no scenario %q in this binary", name)
	}
	point := os.Getenv(envPoint)
	ord, _ := strconv.ParseUint(os.Getenv(envOrd), 10, 64)
	m, _, err := sc.start(os.Getenv(envVol), func(inj *faultinject.Injector) {
		if point != "" {
			inj.KillAt(point, ord)
		}
	})
	if m == nil {
		t.Fatalf("child: %v", err)
	}
	if cerr := m.Release(); err == nil && cerr != nil {
		err = fmt.Errorf("clean close: %w", cerr)
	}
	if err != nil {
		t.Fatalf("child: %v", err)
	}
	counts := m.Inj.Counts()
	points := make([]string, 0, len(counts))
	for p := range counts {
		points = append(points, p)
	}
	sort.Strings(points)
	for _, p := range points {
		fmt.Printf("%s %s %d\n", countLine, p, counts[p])
	}
}

// spawn runs one child with a 60 s guard. killed means SIGKILL: the armed
// fault fired. A clean exit returns the child's output; a hang, another
// signal or a nonzero exit is an error.
func (ex Kill) spawn(sc *Scenario, vol string, at Fault) (killed bool, out string, err error) {
	exe, err := os.Executable()
	if err != nil {
		return false, "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-test.run=^TestSweepChild$", "-test.count=1")
	cmd.Env = append(os.Environ(), envChild+"="+sc.Name, envVol+"="+vol,
		envPoint+"="+at.Point, envOrd+"="+strconv.FormatUint(at.Ordinal, 10))
	outB, runErr := cmd.CombinedOutput()
	if ctx.Err() != nil {
		return false, "", fmt.Errorf("child hung")
	}
	var ee *exec.ExitError
	if errors.As(runErr, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			if ws.Signal() == syscall.SIGKILL {
				return true, "", nil
			}
			return false, "", fmt.Errorf("child died of %v, want SIGKILL", ws.Signal())
		}
	}
	if runErr != nil {
		return false, "", fmt.Errorf("child failed: %v\n%s", runErr, outB)
	}
	return false, string(outB), nil
}

// reopen recovers the volume a child left behind and judges it.
func (ex Kill) reopen(sc *Scenario, vol string, at Fault) ([]string, error) {
	sys, err := core.Open(vol, leased(core.Options{}))
	if err != nil {
		return nil, fmt.Errorf("reopening the volume: %w", err)
	}
	m := &Machine{Sys: sys}
	defer m.Release()
	var fails []string
	if dirty := sys.Vol.WasDirty(); dirty != (at.Point != "") {
		fails = append(fails, fmt.Sprintf("dirty flag is %v after a child that was killed=%v", dirty, !dirty))
	}
	return append(fails, sc.judge(m, true, at)...), nil
}

func (ex Kill) baseline(sc *Scenario) ([]window, error) {
	vol := filepath.Join(ex.Dir, sc.Name+"-baseline.aerie")
	defer os.Remove(vol)
	killed, out, err := ex.spawn(sc, vol, Fault{})
	if err != nil {
		return nil, err
	}
	if killed {
		return nil, errors.New("baseline child was killed with no kill armed")
	}
	// The fault-free volume must itself check out: a complete run is a
	// prefix of itself.
	fails, err := ex.reopen(sc, vol, Fault{})
	if err == nil {
		err = failed(fails)
	}
	if err != nil {
		return nil, err
	}
	var wins []window
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == countLine {
			if n, err := strconv.ParseUint(f[2], 10, 64); err == nil {
				wins = append(wins, window{point: f[1], hits: n})
			}
		}
	}
	if len(wins) == 0 {
		return nil, fmt.Errorf("baseline child reported no fault-point counts:\n%s", out)
	}
	return wins, nil
}

func (ex Kill) run(sc *Scenario, w window, at Fault) Outcome {
	o := Outcome{Fault: at}
	vol := filepath.Join(ex.Dir, fmt.Sprintf("%s-%s-%d.aerie", sc.Name, at.Point, at.Ordinal))
	defer os.Remove(vol)
	killed, _, err := ex.spawn(sc, vol, at)
	if err == nil && killed {
		o.Fired = true
		o.Failures, err = ex.reopen(sc, vol, at)
	}
	if err != nil {
		o.Failures = append(o.Failures, err.Error())
	}
	return o
}
