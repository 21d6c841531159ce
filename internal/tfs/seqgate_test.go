package tfs

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/fsproto"
)

// testGate returns a session's sequence gate as the service makes it, with
// the gap bound shortened to gapAfter.
func testGate(gapAfter time.Duration) *seqGate {
	g := (&Service{gates: make(map[uint64]*seqGate)}).gate(1)
	g.gapAfter = gapAfter
	return g
}

// seqHdr is the header of window batch seq in epoch 1.
func seqHdr(seq uint64) fsproto.BatchHeader {
	return fsproto.BatchHeader{Seq: seq, Epoch: 1, Opener: seq == 1}
}

// pass runs batch seq through the gate as an applied batch.
func pass(t *testing.T, g *seqGate, seq uint64) {
	t.Helper()
	if err := g.enter(seqHdr(seq)); err != nil {
		t.Fatalf("sequence %d: %v", seq, err)
	}
	g.exit(seqHdr(seq), nil)
}

// parkedWaiters reports how many batches are parked at g.
func parkedWaiters(g *seqGate) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiters
}

// waitParked returns once n batches are parked at g.
func waitParked(t *testing.T, g *seqGate, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); parkedWaiters(g) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d batches parked at the gate, want %d", parkedWaiters(g), n)
		}
	}
}

func isGapRefusal(err error) bool {
	return errors.Is(err, ErrValidation) && strings.Contains(err.Error(), "window gap")
}

// TestSeqGateRefusesAGapThatNeverFills: a batch whose predecessor never
// arrives is refused with ErrValidation, and not before the gap bound.
func TestSeqGateRefusesAGapThatNeverFills(t *testing.T) {
	const bound = 30 * time.Millisecond
	g := testGate(bound)
	pass(t, g, 1)
	start := time.Now()
	err := g.enter(seqHdr(3)) // 2 never arrives
	if waited := time.Since(start); !isGapRefusal(err) || waited < bound {
		t.Fatalf("sequence 3 behind a missing 2: %v after %v, want a window-gap ErrValidation after %v", err, waited, bound)
	}
}

// TestSeqGateProgressIsNeverRefused: batches whose predecessors keep
// completing, each well inside the gap bound, pass the gate although their
// whole wait is several bounds long. Two of them park, so the gate is never
// left without a waiter that could restart its gap clock.
func TestSeqGateProgressIsNeverRefused(t *testing.T) {
	const bound, step, last = 100 * time.Millisecond, 25 * time.Millisecond, 13
	g := testGate(bound)
	pass(t, g, 1)
	done := make(chan error, 2)
	start := time.Now()
	for _, seq := range []uint64{last, last + 1} {
		go func() {
			err := g.enter(seqHdr(seq))
			if err == nil {
				g.exit(seqHdr(seq), nil)
			}
			done <- err
		}()
	}
	waitParked(t, g, 2)
	for seq := uint64(2); seq < last; seq++ {
		time.Sleep(step)
		pass(t, g, seq)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("parked batch after %v of steady progress: %v", time.Since(start), err)
		}
	}
	if waited := time.Since(start); waited < 2*bound {
		t.Fatalf("the batches waited only %v; the test needs a wait past the %v bound", waited, bound)
	}
	pass(t, g, last+2)
}

// TestSeqGateAcceptsTheGapAfterARefusal: a gap refusal fails the parked
// batches but does not poison the session's window: a batch parked behind
// the same gap later is refused in its turn, and the missing sequence number
// is still accepted, and so are the numbers behind it, parked or in order.
func TestSeqGateAcceptsTheGapAfterARefusal(t *testing.T) {
	const bound = 30 * time.Millisecond
	g := testGate(bound)
	pass(t, g, 1)
	refused := make(chan error, 2)
	for _, seq := range []uint64{3, 4} {
		go func() { refused <- g.enter(seqHdr(seq)) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-refused; !isGapRefusal(err) {
			t.Fatalf("batch behind a missing 2: %v, want a window-gap ErrValidation", err)
		}
	}
	// A batch parked after the refusal re-arms the gap clock: it is refused
	// in turn if nothing moves, and released by its predecessors otherwise.
	if err := g.enter(seqHdr(3)); !isGapRefusal(err) {
		t.Fatalf("sequence 3 parked again behind a missing 2: %v, want a window-gap ErrValidation", err)
	}
	parked := make(chan error, 1)
	go func() { parked <- g.enter(seqHdr(4)) }()
	waitParked(t, g, 1)
	pass(t, g, 2)
	pass(t, g, 3)
	if err := <-parked; err != nil {
		t.Fatalf("sequence 4 parked behind 2 and 3: %v", err)
	}
	g.exit(seqHdr(4), nil)
	pass(t, g, 5)
}
