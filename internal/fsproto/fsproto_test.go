package fsproto

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/aerie-fs/aerie/internal/sobj"
)

func TestOpsRoundTrip(t *testing.T) {
	ops := []Op{
		{Code: OpCreateObject, Target: 0x1000 | sobj.OID(sobj.TypeMFile)},
		{Code: OpInsert, Target: 0x2000 | sobj.OID(sobj.TypeCollection),
			Child: 0x1000 | sobj.OID(sobj.TypeMFile), Key: []byte("name"), CoverLock: 7, Val: 1},
		{Code: OpRename, Target: 0x2000, Dir2: 0x3000, Child: 0x1000,
			Key: []byte("old"), Key2: []byte("new"), CoverLock: 1, Cover2: 2},
		{Code: OpAttachExtent, Target: 0x1000, Val: 42, Val2: 0x9000, CoverLock: 3,
			Key: []byte("bucket-bound")},
	}
	got, err := DecodeOps(EncodeOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops", len(got))
	}
	for i := range ops {
		a, b := ops[i], got[i]
		if a.Code != b.Code || a.Target != b.Target || a.Child != b.Child ||
			!bytes.Equal(a.Key, b.Key) || !bytes.Equal(a.Key2, b.Key2) ||
			a.Dir2 != b.Dir2 || a.Val != b.Val || a.Val2 != b.Val2 ||
			a.CoverLock != b.CoverLock || a.Cover2 != b.Cover2 {
			t.Fatalf("op %d: %+v != %+v", i, a, b)
		}
	}
}

func TestDecodeRejectsBadOps(t *testing.T) {
	// Unknown opcode.
	bad := EncodeOps([]Op{{Code: 200}})
	if _, err := DecodeOps(bad); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	// Truncated payload.
	good := EncodeOps([]Op{{Code: OpInsert, Key: []byte("k")}})
	if _, err := DecodeOps(good[:len(good)-3]); err == nil {
		t.Fatal("truncated batch accepted")
	}
	// Hostile count.
	if _, err := DecodeOps([]byte{0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("hostile count accepted")
	}
}

func TestMountReplyRoundTrip(t *testing.T) {
	m := MountReply{Root: 0x4001, HeapStart: 1 << 20, HeapSize: 7 << 20, Partition: 2, VolumeGID: 100,
		RoutingEpoch: 1, Shards: []ShardInfo{
			{Root: 0x4001, HeapStart: 1 << 20, HeapSize: 7 << 20, Partition: 2},
			{Root: 0x9001, HeapStart: 9 << 20, HeapSize: 7 << 20, Partition: 3},
		}}
	got, err := DecodeMountReply(EncodeMountReply(&m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("%+v != %+v", got, m)
	}
}

func TestStatfsReplyShardRows(t *testing.T) {
	m := StatfsReply{TotalBytes: 100, FreeBytes: 60, ReservedBytes: 10, Objects: 5, BatchesApplied: 9,
		Owners: SpaceOwners{Heads: 1, Tables: 2, FileData: 3, Tracking: 4, Prealloc: 5, Unlinked: 6},
		Shards: []ShardStat{{TotalBytes: 50, FreeBytes: 30, Objects: 2, BatchesApplied: 4},
			{TotalBytes: 50, FreeBytes: 30, ReservedBytes: 10, Objects: 3, BatchesApplied: 5}}}
	got, err := DecodeStatfsReply(EncodeStatfsReply(&m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("%+v != %+v", got, m)
	}
}

func TestPreallocAndAddrsRoundTrip(t *testing.T) {
	q := PreallocRequest{Size: 8192, Count: 17}
	got, err := DecodePrealloc(EncodePrealloc(q))
	if err != nil || got != q {
		t.Fatalf("%+v %v", got, err)
	}
	addrs := []uint64{1, 4096, 1 << 40}
	back, err := DecodeAddrs(EncodeAddrs(addrs))
	if err != nil || len(back) != 3 || back[2] != 1<<40 {
		t.Fatalf("%v %v", back, err)
	}
}

// Property: decoding never panics on arbitrary input.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(soup []byte) bool {
		_, _ = DecodeOps(soup)
		_, _ = DecodeMountReply(soup)
		_, _ = DecodePrealloc(soup)
		_, _ = DecodeAddrs(soup)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
