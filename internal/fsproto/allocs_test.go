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
	sh := &ShardHeader{Shard: 1, Epoch: 2}
	for _, row := range []struct {
		name string
		sh   *ShardHeader
	}{{"unsharded", nil}, {"sharded", sh}} {
		got := testing.AllocsPerRun(100, func() {
			buf = AppendBatch(buf[:0], row.sh, TenantHeader{Tenant: 5}, SeqHeader{Seq: 9, Epoch: 1}, ops)
		})
		if got != 0 {
			t.Errorf("AppendBatch (%s): %v allocs/op, want 0", row.name, got)
		}
	}
}
