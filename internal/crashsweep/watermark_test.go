package crashsweep

import (
	"fmt"
	"testing"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/sweep"
)

// TestReplayAllocationWatermark pins the reservation design's recovery
// claim: journal replay never allocates space a previous replay of the same
// batch already consumed. Reservations are volatile (a crash returns every
// reserved block to the free lists), so the first replay re-allocates the
// batch's demand from scratch; any replay after that must be an
// allocation-level no-op thanks to the idempotent-redo probes.
//
// Both runs crash at tfs.apply.postcommit@ord, leaving a committed but
// unapplied batch in the journal. The control run recovers once. The probe
// run crashes a second time at tfs.recover.postreplay — after the first
// recovery fully replayed the batch but before the checkpoint erased it —
// so its second recovery replays the identical batch onto already-applied
// state. If that second replay double-allocated (e.g. a redo insert
// growing a table that the first replay already grew), the probe run would
// end with a different allocation watermark than the control.
func TestReplayAllocationWatermark(t *testing.T) {
	sc := MutationMix(3, 24)
	usedAfter := func(ord uint64, crashInRecovery bool) (uint64, error) {
		m, err := sweep.Build(sc.Options, "")
		if err != nil {
			return 0, fmt.Errorf("build: %w", err)
		}
		defer m.Release()
		sys, inj := m.Sys, m.Inj
		inj.CrashAt("tfs.apply.postcommit", ord)
		inj.Enable()
		crash, _ := faultinject.Run(func() error { return sc.Workload(m) })
		if crash == nil {
			return 0, fmt.Errorf("crash at tfs.apply.postcommit@%d never fired", ord)
		}
		if crashInRecovery {
			inj.CrashAt("tfs.recover.postreplay", 1)
			crash2, _ := faultinject.Run(m.PowerLoss)
			if crash2 == nil {
				return 0, fmt.Errorf("recovery crash at tfs.recover.postreplay never fired (ordinal %d)", ord)
			}
		}
		inj.Disable()
		if err := m.PowerLoss(); err != nil {
			return 0, fmt.Errorf("recovery (ordinal %d): %w", ord, err)
		}
		// A crash may leak blocks whose deferred frees were quarantined
		// when it hit (the safe direction — repaired here so watermarks
		// compare the live state), but must NEVER lose blocks: a block
		// reachable from the object graph with a clear bitmap bit could
		// be handed to a second owner.
		rep, err := sys.Set.Fsck(true)
		if err != nil {
			return 0, fmt.Errorf("fsck (ordinal %d): %w", ord, err)
		}
		if rep.LostBlocks != 0 {
			return 0, fmt.Errorf("lost blocks (ordinal %d): %v %#x", ord, rep, rep.LostAddrs)
		}
		st, err := sys.Set.Statfs()
		if err != nil {
			return 0, fmt.Errorf("statfs (ordinal %d): %w", ord, err)
		}
		return st.TotalBytes - st.FreeBytes - st.ReservedBytes, nil
	}

	for _, ord := range []uint64{1, 3, 5} {
		once, err := usedAfter(ord, false)
		if err != nil {
			t.Fatalf("control run: %v", err)
		}
		twice, err := usedAfter(ord, true)
		if err != nil {
			t.Fatalf("probe run: %v", err)
		}
		if once != twice {
			t.Errorf("ordinal %d: one replay used %d bytes, replay-then-replay-again used %d — second replay is not allocation-idempotent",
				ord, once, twice)
		}
	}
}
