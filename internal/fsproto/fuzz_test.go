package fsproto

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeOps throws arbitrary bytes at the batch decoder. The TFS runs
// this decoder on every ApplyLog payload a client ships, so it must never
// panic, and anything it accepts must survive a re-encode/re-decode round
// trip unchanged (otherwise the validated batch and the applied batch could
// differ). No decoded key may alias the payload: overwriting every payload
// byte after the decode leaves every key as it was.
func FuzzDecodeOps(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeOps(nil))
	f.Add(EncodeOps([]Op{{Code: OpInsert, Target: 0x4001, Child: 0x8002, Key: []byte("file.txt"), CoverLock: 7}}))
	f.Add(EncodeOps([]Op{
		{Code: OpCreateObject, Target: 0x4001},
		{Code: OpRename, Target: 0x4001, Child: 0x8002, Key: []byte("a"), Key2: []byte("b"), Dir2: 0x4003, CoverLock: 1, Cover2: 2},
		{Code: OpTruncate, Target: 0x8002, Val: 4096},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}) // hostile count
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := append([]byte(nil), data...)
		ops, err := DecodeOps(payload)
		if err != nil {
			return
		}
		back := EncodeOps(ops)
		for i := range payload {
			payload[i] = ^payload[i]
		}
		if again := EncodeOps(ops); !bytes.Equal(again, back) {
			t.Fatalf("overwriting the payload changed the decoded ops: %x -> %x", back, again)
		}
		ops2, err := DecodeOps(back)
		if err != nil {
			t.Fatalf("re-decode of accepted batch failed: %v", err)
		}
		if len(ops) != len(ops2) {
			t.Fatalf("round trip changed op count: %d -> %d", len(ops), len(ops2))
		}
		for i := range ops {
			a, b := ops[i], ops2[i]
			if a.Code != b.Code || a.Target != b.Target || a.Child != b.Child ||
				!bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Key2, b.Key2) ||
				a.Dir2 != b.Dir2 || a.Val != b.Val || a.Val2 != b.Val2 ||
				a.CoverLock != b.CoverLock || a.Cover2 != b.Cover2 {
				t.Fatalf("round trip changed op %d: %+v -> %+v", i, a, b)
			}
		}
	})
}

// decodeBatch is the service's decode of a window batch: the header, then
// the ops behind it.
func decodeBatch(p []byte) (BatchHeader, []Op, error) {
	h, body, err := DecodeBatchHeader(p)
	if err != nil {
		return h, nil, err
	}
	ops, err := DecodeOps(body)
	return h, ops, err
}

// FuzzBatchHeader throws arbitrary bytes at decodeBatch, the decoding the
// TFS runs on every window batch a client ships. The header decides
// routing, tenant attribution, sequencing, epoch filtering and fragment
// reassembly — a misparse routes a batch to the wrong shard's journal,
// bills the wrong tenant, or reorders or replays batches — so the decoder
// must never panic, must refuse a short header, must agree field for field
// with the nested reference decoders, must not size anything from a forged
// op count, and whatever it accepts must round-trip exactly. The
// re-encoding zeroes the reserved word and drops unknown flag bits; those
// are the only legal differences.
func FuzzBatchHeader(f *testing.F) {
	trunc := []Op{{Code: OpTruncate, Target: 0x8002, Val: 4096}}
	f.Add([]byte{})
	f.Add(AppendBatch(nil, BatchHeader{RoutingEpoch: 1, Seq: 1}, nil))
	f.Add(AppendBatch(nil, BatchHeader{Shard: 3, RoutingEpoch: 1, Tenant: 5, Seq: 9, Epoch: 2, Opener: true}, nil))
	f.Add(AppendBatch(nil, BatchHeader{Shard: 1, RoutingEpoch: 2, Tenant: 7, Seq: 1<<40 + 7, Epoch: 3, Frag: true}, trunc))
	f.Add(AppendBatch(nil, BatchHeader{Shard: ^uint32(0), RoutingEpoch: ^uint32(0), Tenant: ^uint32(0),
		Seq: ^uint64(0), Epoch: ^uint32(0), Frag: true, Opener: true}, trunc))
	f.Add(make([]byte, BatchHeaderLen-1)) // one byte short of a header
	hostile := AppendBatch(nil, BatchHeader{Tenant: 9, Seq: 1}, nil)
	copy(hostile[12:16], []byte{0xff, 0xff, 0xff, 0xff}) // reserved word
	hostile[28] = 0xfc                                   // unknown flag bits
	f.Add(hostile)
	f.Add(append(make([]byte, BatchHeaderLen), 0xff, 0xff, 0x0f, 0x00)) // forged op count
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ops, err := decodeBatch(data)
		if len(data) < BatchHeaderLen {
			if err == nil {
				t.Fatalf("short header (%d bytes) accepted", len(data))
			}
			return
		}
		// The nested reference decoders see the same fields and the same ops.
		sh, rest, _ := DecodeShardFramed(data)
		th, rest, _ := DecodeTenantFramed(rest)
		sq, rest, _ := DecodeApplyLogSeq(rest)
		refOps, refErr := DecodeOps(rest)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodeBatch err = %v, reference err = %v", err, refErr)
		}
		if err != nil {
			if ops != nil {
				t.Fatalf("rejected batch returned %d ops", len(ops))
			}
			return
		}
		want := BatchHeader{Shard: sh.Shard, RoutingEpoch: sh.Epoch, Tenant: th.Tenant,
			Seq: sq.Seq, Epoch: sq.Epoch, Frag: sq.Frag, Opener: sq.Opener}
		if h != want || !reflect.DeepEqual(ops, refOps) {
			t.Fatalf("decodeBatch = %+v (%d ops), reference = %+v (%d ops)", h, len(ops), want, len(refOps))
		}
		if most := len(data)/minOpLen + 1; cap(ops) > most {
			t.Fatalf("%d-byte payload made room for %d ops", len(data), cap(ops))
		}
		back := AppendBatch(nil, h, ops)
		h2, ops2, err := decodeBatch(back)
		if err != nil || h2 != h || !reflect.DeepEqual(ops2, ops) {
			t.Fatalf("round trip: %+v -> %+v (%v)", h, h2, err)
		}
		if !bytes.Equal(back[:12], data[:12]) || !bytes.Equal(back[16:28], data[16:28]) {
			t.Fatalf("canonical fields changed: %x -> %x", data[:BatchHeaderLen], back[:BatchHeaderLen])
		}
		if !bytes.Equal(back[12:16], []byte{0, 0, 0, 0}) || back[28] != data[28]&(seqFlagFrag|seqFlagOpener) {
			t.Fatalf("reserved word / flags %x %#x re-encoded as %x %#x", data[12:16], data[28], back[12:16], back[28])
		}
	})
}

// The three targets below fuzz the nested reference decoders one prefix at
// a time. They are no longer part of fuzz-short — decodeBatch is the
// decoder the service runs — and replay their checked-in seeds as ordinary
// tests for as long as the reference names exist.

// FuzzSeqHeader throws arbitrary bytes at the completion-window header
// decoder. Every pipelined batch a client ships arrives through this path,
// and the header decides sequencing, epoch filtering, and fragment
// reassembly — a misparse here reorders or replays batches. Accepted
// payloads must round-trip exactly: same header fields, same inner ops
// bytes, and the re-encoding must reproduce the canonical 13-byte prefix
// (unknown flag bits are dropped, which is the one legal difference).
func FuzzSeqHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeApplyLogSeq(SeqHeader{Seq: 1, Epoch: 0}, EncodeOps(nil)))
	f.Add(EncodeApplyLogSeq(SeqHeader{Seq: 1<<40 + 7, Epoch: 3, Frag: true}, []byte{0xde, 0xad}))
	f.Add(EncodeApplyLogSeq(SeqHeader{Seq: ^uint64(0), Epoch: ^uint32(0), Opener: true},
		EncodeOps([]Op{{Code: OpTruncate, Target: 0x8002, Val: 4096}})))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) // one byte short of a header
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ops, err := DecodeApplyLogSeq(data)
		if err != nil {
			if len(data) >= 13 {
				t.Fatalf("%d-byte payload rejected: %v", len(data), err)
			}
			return
		}
		if len(data) < 13 {
			t.Fatalf("short payload (%d bytes) accepted", len(data))
		}
		if !bytes.Equal(ops, data[13:]) {
			t.Fatalf("inner payload corrupted: %d bytes -> %d bytes", len(data)-13, len(ops))
		}
		back := EncodeApplyLogSeq(h, ops)
		h2, ops2, err := DecodeApplyLogSeq(back)
		if err != nil {
			t.Fatalf("re-decode of re-encoded header failed: %v", err)
		}
		if h != h2 {
			t.Fatalf("header changed across round trip: %+v -> %+v", h, h2)
		}
		if !bytes.Equal(ops, ops2) {
			t.Fatalf("ops changed across round trip: %d -> %d bytes", len(ops), len(ops2))
		}
		// The seq/epoch prefix is canonical; only the flag byte may differ,
		// and only by dropping bits outside the two defined flags.
		if !bytes.Equal(back[:12], data[:12]) {
			t.Fatalf("canonical prefix changed: %x -> %x", data[:12], back[:12])
		}
		if back[12] != data[12]&(seqFlagFrag|seqFlagOpener) {
			t.Fatalf("flag byte %#x re-encoded as %#x", data[12], back[12])
		}
	})
}

// FuzzShardHeader throws arbitrary bytes at the shard-routing frame
// decoder. Every shard-addressed request (windowed batches, prealloc,
// cross-shard transactions) opens with this 8-byte prefix, and a misparse
// routes a batch to the wrong shard's journal — so the decoder must never
// panic, must reject short frames, and accepted frames must round-trip
// bit-exactly (shard, epoch, and the untouched inner payload).
func FuzzShardHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeShardFramed(ShardHeader{Shard: 0, Epoch: 1}, EncodeOps(nil)))
	f.Add(EncodeShardFramed(ShardHeader{Shard: 3, Epoch: 1},
		EncodeApplyLogSeq(SeqHeader{Seq: 9, Epoch: 2, Opener: true}, EncodeOps(nil))))
	f.Add(EncodeShardFramed(ShardHeader{Shard: ^uint32(0), Epoch: ^uint32(0)}, []byte{0xde, 0xad}))
	// The full sharded stack: shard | tenant | seq | ops.
	f.Add(EncodeShardFramed(ShardHeader{Shard: 1, Epoch: 2},
		EncodeTenantFramed(TenantHeader{Tenant: 5},
			EncodeApplyLogSeq(SeqHeader{Seq: 3, Epoch: 1}, EncodeOps(nil)))))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}) // one byte short of a header
	f.Fuzz(func(t *testing.T, data []byte) {
		h, inner, err := DecodeShardFramed(data)
		if err != nil {
			if len(data) >= ShardHeaderLen {
				t.Fatalf("%d-byte frame rejected: %v", len(data), err)
			}
			return
		}
		if len(data) < ShardHeaderLen {
			t.Fatalf("short frame (%d bytes) accepted", len(data))
		}
		if !bytes.Equal(inner, data[ShardHeaderLen:]) {
			t.Fatalf("inner payload corrupted: %d bytes -> %d bytes", len(data)-ShardHeaderLen, len(inner))
		}
		back := EncodeShardFramed(h, inner)
		if !bytes.Equal(back, data) {
			t.Fatalf("shard frame not canonical: %x -> %x", data[:ShardHeaderLen], back[:ShardHeaderLen])
		}
		h2, inner2, err := DecodeShardFramed(back)
		if err != nil || h2 != h || !bytes.Equal(inner, inner2) {
			t.Fatalf("shard frame round trip: %+v -> %+v (%v)", h, h2, err)
		}
	})
}

// FuzzTenantHeader throws arbitrary bytes at the tenant-identity frame
// decoder. The frame sits between the shard routing header and the
// completion-window header on every windowed batch, and the service's
// fairness accounting, quota attribution, and anti-spoofing check all key
// off it — so the decoder must never panic, must reject short frames, and
// accepted frames must round-trip the tenant ID exactly with the inner
// payload untouched. The re-encoding zeroes the reserved word, which is the
// one legal difference.
func FuzzTenantHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeTenantFramed(TenantHeader{Tenant: 0}, EncodeApplyLogSeq(SeqHeader{Seq: 1, Epoch: 0}, EncodeOps(nil))))
	f.Add(EncodeTenantFramed(TenantHeader{Tenant: 7},
		EncodeApplyLogSeq(SeqHeader{Seq: 42, Epoch: 3, Opener: true},
			EncodeOps([]Op{{Code: OpTruncate, Target: 0x8002, Val: 4096}}))))
	f.Add(EncodeTenantFramed(TenantHeader{Tenant: ^uint32(0)}, []byte{0xde, 0xad}))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})                // one byte short of a frame
	f.Add([]byte{9, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // hostile reserved word
	f.Fuzz(func(t *testing.T, data []byte) {
		h, inner, err := DecodeTenantFramed(data)
		if err != nil {
			if len(data) >= TenantHeaderLen {
				t.Fatalf("%d-byte frame rejected: %v", len(data), err)
			}
			return
		}
		if len(data) < TenantHeaderLen {
			t.Fatalf("short frame (%d bytes) accepted", len(data))
		}
		if !bytes.Equal(inner, data[TenantHeaderLen:]) {
			t.Fatalf("inner payload corrupted: %d bytes -> %d bytes", len(data)-TenantHeaderLen, len(inner))
		}
		back := EncodeTenantFramed(h, inner)
		h2, inner2, err := DecodeTenantFramed(back)
		if err != nil || h2 != h || !bytes.Equal(inner, inner2) {
			t.Fatalf("tenant frame round trip: %+v -> %+v (%v)", h, h2, err)
		}
		// The tenant ID bytes are canonical; only the reserved word may
		// differ, and only by being zeroed.
		if !bytes.Equal(back[:4], data[:4]) {
			t.Fatalf("tenant bytes changed: %x -> %x", data[:4], back[:4])
		}
		for i := 4; i < TenantHeaderLen; i++ {
			if back[i] != 0 {
				t.Fatalf("reserved byte %d re-encoded nonzero: %#x", i, back[i])
			}
		}
	})
}

// FuzzDecodeReplies covers the remaining fixed-shape decoders (mount
// reply, prealloc request, address list): no panics, and accepted inputs
// round-trip.
func FuzzDecodeReplies(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeMountReply(&MountReply{Root: 0x4001, HeapStart: 1 << 20, HeapSize: 7 << 20, Partition: 2, VolumeGID: 100}))
	f.Add(EncodePrealloc(PreallocRequest{Size: 8192, Count: 17}))
	f.Add(EncodeAddrs([]uint64{1, 4096, 1 << 40}))
	f.Add(EncodeTenantCtl(TenantCtlRequest{Tenant: 2, Weight: 8, QuotaBytes: 1 << 30}))
	f.Add(EncodeTenantStatReply([]TenantUsage{
		{Tenant: 1, Shard: 0, Weight: 4, QuotaBytes: 1 << 20, UsedBytes: 4096, ReservedBytes: 8192, Sheds: 2, QuotaRejects: 1},
		{Tenant: 1, Shard: 1, Weight: 4, QuotaBytes: 1 << 20},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeMountReply(data); err == nil {
			if got, err := DecodeMountReply(EncodeMountReply(&m)); err != nil || !reflect.DeepEqual(got, m) {
				t.Fatalf("mount reply round trip: %+v %v", got, err)
			}
		}
		if q, err := DecodePrealloc(data); err == nil {
			if got, err := DecodePrealloc(EncodePrealloc(q)); err != nil || got != q {
				t.Fatalf("prealloc round trip: %+v %v", got, err)
			}
		}
		if q, err := DecodeTenantCtl(data); err == nil {
			if got, err := DecodeTenantCtl(EncodeTenantCtl(q)); err != nil || got != q {
				t.Fatalf("tenant ctl round trip: %+v %v", got, err)
			}
		}
		if rows, err := DecodeTenantStatReply(data); err == nil {
			got, err := DecodeTenantStatReply(EncodeTenantStatReply(rows))
			if err != nil || !reflect.DeepEqual(got, rows) {
				t.Fatalf("tenant stat round trip: %+v %v", got, err)
			}
		}
		if addrs, err := DecodeAddrs(data); err == nil {
			got, err := DecodeAddrs(EncodeAddrs(addrs))
			if err != nil || len(got) != len(addrs) {
				t.Fatalf("addrs round trip: %v %v", got, err)
			}
			for i := range addrs {
				if got[i] != addrs[i] {
					t.Fatalf("addrs[%d] changed: %d -> %d", i, addrs[i], got[i])
				}
			}
		}
	})
}
