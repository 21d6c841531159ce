package fsproto

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: sealing a batch into a buffer that is large enough
// allocates nothing.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	ops := []Op{
		{Code: OpAttachExtent, Target: 1 << 12, Val: 7, Val2: 9 << 12, CoverLock: 3, Key: []byte("log")},
		{Code: OpSetSize, Target: 1 << 12, Val: 8 << 12, CoverLock: 3, Key: []byte("log")},
	}
	buf := make([]byte, 0, 512)
	got := testing.AllocsPerRun(100, func() {
		buf = AppendBatch(buf[:0], BatchHeader{Shard: 1, RoutingEpoch: 2, Tenant: 5, Seq: 9, Epoch: 1}, ops)
	})
	if got != 0 {
		t.Errorf("AppendBatch: %v allocs/op, want 0", got)
	}
}
