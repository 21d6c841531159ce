package sweep_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/crashsweep"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/sweep"
)

func TestOrdinals(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		max  int
		want []uint64
	}{
		{0, 3, []uint64{}},
		{0, 0, []uint64{}},
		{4, 0, []uint64{1, 2, 3, 4}},  // max <= 0: all
		{4, -1, []uint64{1, 2, 3, 4}}, //
		{3, 3, []uint64{1, 2, 3}},     // max >= n: all
		{3, 9, []uint64{1, 2, 3}},     //
		{1, 1, []uint64{1}},
		{7, 1, []uint64{1}}, // used to divide by zero
		{7, 2, []uint64{1, 7}},
		{10, 3, []uint64{1, 5, 10}}, // TestWindowPrefixConsistency's subtest names
		{5, 3, []uint64{1, 3, 5}},   // hang off these two
		{100, 6, []uint64{1, 20, 40, 60, 80, 100}},
	} {
		if got := sweep.Ordinals(c.n, c.max); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Ordinals(%d, %d) = %v, want %v", c.n, c.max, got, c.want)
		}
	}
}

// twoFiles is the self-test scenario: one client writes and syncs two
// files; the oracle wants whichever survived intact.
func twoFiles() sweep.Scenario {
	return sweep.Scenario{
		Name:     "two-files",
		Options:  core.Options{ArenaSize: 16 << 20},
		Points:   []string{"journal.commit"},
		Ordinals: 2,
		Workload: func(m *sweep.Machine) error {
			fs, err := m.MountPXFS(libfs.Config{UID: 1000}, pxfs.Options{})
			if err != nil {
				return err
			}
			for _, name := range []string{"/a", "/b"} {
				f, err := fs.Create(name, 0o644)
				if err != nil {
					return err
				}
				if _, err := f.Write([]byte(name)); err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				if err := fs.Sync(); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// wrongOracle expects a file the workload never writes.
func wrongOracle() sweep.Scenario {
	sc := twoFiles()
	sc.Name = "wrong-oracle"
	sc.Oracle = func(m *sweep.Machine, at sweep.Fault) []string {
		if at.Point != "journal.commit" {
			return nil // let the baselines through: the runs must catch it
		}
		fs, err := m.MountPXFS(libfs.Config{UID: 2000}, pxfs.Options{})
		if err != nil {
			return []string{err.Error()}
		}
		if _, err := fs.Stat("/never"); err != nil {
			return []string{fmt.Sprintf("/never: %v", err)}
		}
		return nil
	}
	return sc
}

func TestSweepChild(t *testing.T) {
	sweep.Child(t, twoFiles(), wrongOracle(), crashsweep.Shard2PC())
}

func executors(t *testing.T) []sweep.Executor {
	return []sweep.Executor{sweep.Crash{}, sweep.Kill{Dir: t.TempDir()}}
}

// A harness that cannot fail verifies nothing: a wrong oracle must come
// back as reported failures, under both crash executors.
func TestWrongOracleFails(t *testing.T) {
	for _, ex := range executors(t) {
		if res, err := sweep.Run(twoFiles(), ex, nil); err != nil || len(res.Failures()) != 0 {
			t.Fatalf("%T: the honest scenario must pass: %v %v", ex, err, res.Failures())
		}
		res, err := sweep.Run(wrongOracle(), ex, nil)
		if err != nil {
			t.Fatalf("%T: %v", ex, err)
		}
		fails := res.Failures()
		if n := res.Fired(""); n == 0 || len(fails) != n {
			t.Fatalf("%T: %d runs fired, %d failures reported; want one per fired run", ex, n, len(fails))
		}
		for _, f := range fails {
			if !strings.Contains(f, "/never") {
				t.Errorf("%T: unexpected failure %q", ex, f)
			}
		}
	}
}

// ... and faults that never fire must be reported, not pass: a point the
// workload never reaches is ErrNothingFired, and in a deterministic
// scenario so is — as a failure of that run — an ordinal past the last hit.
func TestUnreachableFaultFails(t *testing.T) {
	unhit := twoFiles()
	unhit.Points = []string{"tfs.2pc.commit"}
	late := twoFiles()
	late.Deterministic = true
	late.Horizon = func(hits uint64) uint64 { return hits + 1000 }
	for _, ex := range executors(t) {
		if _, err := sweep.Run(unhit, ex, nil); !errors.Is(err, sweep.ErrNothingFired) {
			t.Errorf("%T, unreachable point: got %v, want ErrNothingFired", ex, err)
		}
		res, err := sweep.Run(late, ex, nil)
		if err != nil {
			t.Fatalf("%T: %v", ex, err)
		}
		if fails := res.Failures(); len(fails) != 1 || !strings.Contains(fails[0], "never fired") {
			t.Errorf("%T, unreachable ordinal: failures %q, want one \"never fired\"", ex, fails)
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoryFlatInRuns: the engine releases every machine it builds, so the
// live heap after twenty crash runs is what it was after five.
func TestMemoryFlatInRuns(t *testing.T) {
	const machine = 2 * 32 << 20 // arena plus its persistence shadow
	t.Setenv(sweep.OrdinalsEnv, "20")
	sc := crashsweep.MutationMix(1, 24)
	sc.Points = []string{"tfs.apply.action"}
	var heap []uint64
	sc.Oracle = func(*sweep.Machine, sweep.Fault) []string {
		heap = append(heap, liveHeap())
		return nil
	}
	res, err := sweep.Run(sc, sweep.Crash{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// heap[0] and heap[1] are the two baselines' samples.
	if res.Fired("") < 20 || len(heap) < 22 {
		t.Fatalf("%d runs fired, %d heap samples; want 20 runs", res.Fired(""), len(heap))
	}
	after5, after20 := heap[2+4], heap[2+19]
	t.Logf("live heap after run 5: %d MiB, after run 20: %d MiB", after5>>20, after20>>20)
	if after20 > after5+machine {
		t.Errorf("live heap grew from %d MiB (run 5) to %d MiB (run 20): machines are leaking", after5>>20, after20>>20)
	}
}
