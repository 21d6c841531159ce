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

// AppendBatch is the nested Encode chain in one pass: same bytes, with and
// without the shard frame, after whatever the buffer already holds — and
// the decoders take them apart again.
func TestAppendBatchMatchesNestedEncoders(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randOps(rng)
		th := TenantHeader{Tenant: rng.Uint32()}
		h := SeqHeader{Seq: rng.Uint64(), Epoch: rng.Uint32(), Frag: rng.Intn(2) == 0, Opener: rng.Intn(2) == 0}
		sh := ShardHeader{Shard: rng.Uint32(), Epoch: rng.Uint32()}
		inner := EncodeTenantFramed(th, EncodeApplyLogSeq(h, EncodeOps(ops)))
		prefix := make([]byte, rng.Intn(9))
		rng.Read(prefix)
		if got := AppendBatch(bytes.Clone(prefix), nil, th, h, ops); !bytes.Equal(got, append(bytes.Clone(prefix), inner...)) {
			t.Logf("seed %d: unsharded batch differs from the nested encoders", seed)
			return false
		}
		got := AppendBatch(nil, &sh, th, h, ops)
		if !bytes.Equal(got, EncodeShardFramed(sh, inner)) {
			t.Logf("seed %d: sharded batch differs from the nested encoders", seed)
			return false
		}
		gotSh, rest, err := DecodeShardFramed(got)
		if err != nil || gotSh != sh {
			return false
		}
		gotTh, rest, err := DecodeTenantFramed(rest)
		if err != nil || gotTh != th {
			return false
		}
		gotH, rest, err := DecodeApplyLogSeq(rest)
		if err != nil || gotH != h {
			return false
		}
		gotOps, err := DecodeOps(rest)
		if err != nil || len(gotOps) != len(ops) {
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
