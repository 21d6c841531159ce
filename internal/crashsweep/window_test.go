package crashsweep

import (
	"fmt"
	"testing"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/sweep"
)

const windowSteps = 8

func windowName(i int) []byte { return []byte(fmt.Sprintf("p%02d", i)) }

// windowPrefix is the Window-4 prefix publisher: a pipelined session
// (Window 4, one-op batches) links numbered names under the root. Each link
// is its own sequenced window batch, so after a crash the set of surviving
// names tells exactly which window prefix applied. Its points are the
// write-pipeline fault points of the group-commit engine: membership fixed
// (nothing staged), just before the single fence (staged but unpublished),
// and just after it (published, apply about to start — possibly on
// parallel workers).
func windowPrefix() sweep.Scenario {
	return sweep.Scenario{
		Name:     "window-prefix",
		Options:  core.Options{ArenaSize: 32 << 20},
		Points:   []string{"tfs.groupcommit.coalesce", "tfs.groupcommit.fence", "tfs.apply.parallel"},
		Ordinals: 3,
		Workload: func(m *sweep.Machine) error {
			sess, err := m.Mount(libfs.Config{
				UID:        1000,
				BatchLimit: 1, // every LogOp rotates a batch
				Window:     4,
			})
			if err != nil {
				return err
			}
			lock := sess.Root.Lock()
			if err := sess.Clerk.Acquire(lock, lockservice.X, true); err != nil {
				return err
			}
			oid, err := sess.CreateMFileStaged(0o644, sobj.DefaultExtentLog)
			if err != nil {
				return err
			}
			if err := sess.DirInsert(sess.Root, []byte("base"), oid, lock); err != nil {
				return err
			}
			if err := sess.Sync(); err != nil {
				return err
			}
			for i := 0; i < windowSteps; i++ {
				if err := sess.DirInsert(sess.Root, windowName(i), oid, lock); err != nil {
					return err
				}
			}
			return sess.Sync()
		},
		// If link i is visible then every link before i is too. A hole
		// would mean a later window batch applied while an earlier one was
		// lost, i.e. the group commit published or replayed out of window
		// order.
		Oracle: func(m *sweep.Machine, _ sweep.Fault) []string {
			sess, err := m.Mount(libfs.Config{UID: 2000})
			if err != nil {
				return []string{fmt.Sprintf("verify mount: %v", err)}
			}
			var fails []string
			hole := -1
			for i := 0; i < windowSteps; i++ {
				_, ok, err := sess.DirLookup(sess.Root, windowName(i))
				switch {
				case err != nil:
					fails = append(fails, fmt.Sprintf("lookup %s: %v", windowName(i), err))
				case !ok && hole < 0:
					hole = i
				case ok && hole >= 0:
					fails = append(fails, fmt.Sprintf(
						"window not prefix-consistent: %s applied but %s lost", windowName(i), windowName(hole)))
				}
			}
			return fails
		},
	}
}

// TestWindowPrefixConsistency crashes the pipelined-window workload at
// every sampled ordinal of each group-commit fault point and asserts, after
// power-loss recovery, that the volume checks clean (the usual sweep
// invariant) and the completion window survived as a PREFIX. One subtest
// per run.
func TestWindowPrefixConsistency(t *testing.T) {
	res, err := sweep.Run(windowPrefix(), sweep.Crash{}, t.Logf)
	t.Logf("\n%s", res)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Runs {
		t.Run(o.Fault.String(), func(t *testing.T) {
			if !o.Fired {
				t.Skipf("ordinal %d drifted out of reach", o.Ordinal)
			}
			for _, f := range o.Failures {
				t.Error(f)
			}
		})
	}
}
