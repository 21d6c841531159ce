package fsproto

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: sealing a batch into a buffer that is large enough
// allocates nothing, and neither does decoding one into the op and key
// buffers of the batch before it.
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

	payload := EncodeOps(ops)
	dec, keys, err := DecodeOpsInto(nil, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	got = testing.AllocsPerRun(100, func() {
		if dec, keys, err = DecodeOpsInto(dec, keys, payload); err != nil || len(dec) != len(ops) {
			t.Fatal(len(dec), err)
		}
	})
	if got != 0 {
		t.Errorf("DecodeOpsInto into warm buffers: %v allocs/op, want 0", got)
	}
}
