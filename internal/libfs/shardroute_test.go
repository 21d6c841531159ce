package libfs_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/tfs"
)

// TestMultiSpaceRoutesByPartition checks the session space of a two-shard
// mount: every load and store at an address inside a partition reaches
// that partition's bytes, and one that straddles a partition's end or lies
// past the last partition faults without storing anything.
func TestMultiSpaceRoutesByPartition(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, Shards: 2, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := sys.NewSession(libfs.Config{UID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, single := s.Mem.(*scmmgr.Mapping); single {
		t.Fatal("a two-shard session should compose its mappings")
	}
	spans := libfs.PartitionSpans(s)
	if len(spans) != 2 {
		t.Fatalf("%d partitions, want 2", len(spans))
	}

	for shard, span := range spans {
		addr, err := s.AllocStaged(shard, scm.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if addr < span[0] || addr+scm.PageSize > span[1] {
			t.Fatalf("shard %d: staged extent %#x outside its partition [%#x,%#x)", shard, addr, span[0], span[1])
		}
		want := bytes.Repeat([]byte{byte(0xa0 + shard)}, 32)
		if err := s.Mem.Write(addr, want); err != nil {
			t.Fatalf("shard %d: Write: %v", shard, err)
		}
		got := make([]byte, len(want))
		if err := sys.Mem.Read(addr, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("shard %d: arena after Write: %x, %v", shard, got, err)
		}
		v := 0x0102030405060700 | uint64(shard)
		if err := s.Mem.Store(addr+64, v, 8); err != nil {
			t.Fatalf("shard %d: Store: %v", shard, err)
		}
		if got, err := scm.Read64(sys.Mem, addr+64); err != nil || got != v {
			t.Fatalf("shard %d: arena after Store: %#x, %v", shard, got, err)
		}
		direct := []byte("partition bytes")
		direct[0] = byte('0' + shard)
		if err := sys.Mem.Write(addr+128, direct); err != nil {
			t.Fatal(err)
		}
		got = make([]byte, len(direct))
		if err := s.Mem.Read(addr+128, got); err != nil || !bytes.Equal(got, direct) {
			t.Fatalf("shard %d: Read: %q, %v", shard, got, err)
		}
		view, err := s.Mem.Slice(addr+128, len(direct))
		if err != nil || !bytes.Equal(view, direct) {
			t.Fatalf("shard %d: Slice: %q, %v", shard, view, err)
		}
		arena, _ := sys.Mem.Slice(addr+128, len(direct))
		if &view[0] != &arena[0] {
			t.Fatalf("shard %d: Slice does not alias the arena", shard)
		}
	}

	// An access faults with ErrProtection and leaves the arena as it was.
	faults := func(what string, addr uint64) {
		t.Helper()
		lo := addr - 8
		before := make([]byte, 24)
		if err := sys.Mem.Read(lo, before); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Mem.Slice(addr, 8); !errors.Is(err, scmmgr.ErrProtection) {
			t.Fatalf("%s: Slice: %v, want ErrProtection", what, err)
		}
		if err := s.Mem.Store(addr, ^uint64(0), 8); !errors.Is(err, scmmgr.ErrProtection) {
			t.Fatalf("%s: Store: %v, want ErrProtection", what, err)
		}
		after := make([]byte, len(before))
		if err := sys.Mem.Read(lo, after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: a refused Store changed the arena: %x -> %x", what, before, after)
		}
	}
	faults("straddling the partition boundary", spans[0][1]-4)
	faults("straddling the last partition's end", spans[1][1]-4)
	faults("past the last partition", spans[1][1])
}

// TestRejectedCrossShardRenameLeavesNoTrace: a rename between directories
// on two shards applies synchronously as a cross-shard transaction. When
// the service refuses it — here the client claims cover locks it never
// acquired — the session's own lookups must go on showing the entry where
// SCM has it, not where the refused rename would have put it.
func TestRejectedCrossShardRenameLeavesNoTrace(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, Shards: 2, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := sys.NewSession(libfs.Config{UID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dirs := make([]sobj.OID, 2)
	for shard := range dirs {
		root := s.ShardRoot(shard)
		if err := s.Clerk.Acquire(root.Lock(), lockservice.X, true); err != nil {
			t.Fatal(err)
		}
		defer s.Clerk.Release(root.Lock(), lockservice.X)
		if dirs[shard], err = s.CreateCollectionStaged(shard, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := s.DirInsert(root, []byte{'a' + byte(shard)}, dirs[shard], root.Lock()); err != nil {
			t.Fatal(err)
		}
	}
	a, b := dirs[0], dirs[1]
	f, err := s.CreateMFileStaged(0, 0o644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(a, []byte("f"), f, s.Root.Lock()); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	err = s.DirRename(a, []byte("f"), b, []byte("f"), f, 0, a.Lock(), b.Lock())
	// Handler errors cross the transport as text.
	if !errors.Is(err, libfs.ErrStaleBatch) || !strings.Contains(err.Error(), tfs.ErrLockCover.Error()) {
		t.Fatalf("rename under locks not held: %v, want ErrStaleBatch and ErrLockCover", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.DirLookup(a, []byte("f")); err != nil || !ok || got != f {
		t.Fatalf("lookup a/f after the refused rename: %v %v %v, want %v", got, ok, err, f)
	}
	if got, ok, err := s.DirLookup(b, []byte("f")); err != nil || ok {
		t.Fatalf("lookup b/f after the refused rename: %v %v %v, want absent", got, ok, err)
	}
}
