package fsproto

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/aerie-fs/aerie/internal/sobj"
)

func randOps(rng *rand.Rand) []Op {
	key := func() []byte {
		if rng.Intn(3) == 0 {
			return nil
		}
		k := make([]byte, rng.Intn(40))
		rng.Read(k)
		return k
	}
	ops := make([]Op, rng.Intn(12))
	for i := range ops {
		ops[i] = Op{
			Code: OpCreateObject + uint8(rng.Intn(int(OpReplaceExt))), Target: sobj.OID(rng.Uint64()),
			Child: sobj.OID(rng.Uint64()), Key: key(), Key2: key(), Dir2: sobj.OID(rng.Uint64()),
			Val: rng.Uint64(), Val2: rng.Uint64(), CoverLock: rng.Uint64(), Cover2: rng.Uint64(),
		}
	}
	return ops
}

// AppendBatch is the nested reference chain in one pass — same bytes, after
// whatever the buffer already holds — and DecodeBatch is the nested
// reference decoders in one call: same header fields, same ops.
func TestAppendBatchMatchesNestedEncoders(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng)
		h := BatchHeader{
			Shard: rng.Uint32(), RoutingEpoch: rng.Uint32(), Tenant: rng.Uint32(),
			Seq: rng.Uint64(), Epoch: rng.Uint32(), Frag: rng.Intn(2) == 0, Opener: rng.Intn(2) == 0,
		}
		sh := ShardHeader{Shard: h.Shard, Epoch: h.RoutingEpoch}
		th := TenantHeader{Tenant: h.Tenant}
		sq := SeqHeader{Seq: h.Seq, Epoch: h.Epoch, Frag: h.Frag, Opener: h.Opener}
		want := EncodeShardFramed(sh, EncodeTenantFramed(th, EncodeApplyLogSeq(sq, EncodeOps(ops))))
		prefix := make([]byte, rng.Intn(9))
		rng.Read(prefix)
		if got := AppendBatch(bytes.Clone(prefix), h, ops); !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
			t.Logf("seed %d: batch differs from the nested encoders", seed)
			return false
		}
		if len(want) != BatchHeaderLen+len(EncodeOps(ops)) || BatchHeaderLen != ShardHeaderLen+TenantHeaderLen+SeqHeaderLen {
			t.Logf("seed %d: header is not %d bytes", seed, BatchHeaderLen)
			return false
		}
		gotSh, rest, err := DecodeShardFramed(want)
		if err != nil || gotSh != sh {
			return false
		}
		gotTh, rest, err := DecodeTenantFramed(rest)
		if err != nil || gotTh != th {
			return false
		}
		gotSq, rest, err := DecodeApplyLogSeq(rest)
		if err != nil || gotSq != sq {
			return false
		}
		refOps, err := DecodeOps(rest)
		if err != nil || len(refOps) != len(ops) {
			return false
		}
		gotH, gotOps, err := DecodeBatch(want)
		if err != nil || gotH != h || !reflect.DeepEqual(gotOps, refOps) {
			t.Logf("seed %d: DecodeBatch = %+v, %v; want %+v", seed, gotH, err, h)
			return false
		}
		for i := range ops {
			want := ops[i]
			// The decoder copies keys out of the payload; an empty one is nil.
			want.Key, want.Key2 = append([]byte(nil), want.Key...), append([]byte(nil), want.Key2...)
			if !reflect.DeepEqual(gotOps[i], want) {
				t.Logf("seed %d: op %d = %+v, want %+v", seed, i, gotOps[i], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
