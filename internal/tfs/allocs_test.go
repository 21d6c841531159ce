package tfs

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: a window batch that arrives in order passes the sequence
// gate without arming a timer or making a channel, and a journal record is
// encoded into the service's reused buffer.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	g := &seqGate{}
	seq := uint64(0)
	got := testing.AllocsPerRun(100, func() {
		seq++
		h := fsproto.BatchHeader{Seq: seq, Epoch: 1, Opener: seq == 1}
		if err := g.enter(h); err != nil {
			t.Fatal(err)
		}
		g.exit(h, nil)
	})
	if got != 0 {
		t.Errorf("seqGate enter+exit in order: %v allocs/op, want 0", got)
	}

	s := &Service{}
	acts := []action{{code: jAttach, oid: 1 << 12, a: 1, b: 2 << 12}, {code: jSetSize, oid: 1 << 12, a: 4096}}
	got = testing.AllocsPerRun(100, func() {
		if len(s.recordFor(acts)) == 0 {
			t.Fatal("empty record")
		}
	})
	if got != 0 {
		t.Errorf("recordFor: %v allocs/op, want 0", got)
	}
}
