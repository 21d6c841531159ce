package libfs_test

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/race"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// TestAllocPins: one pipelined 4 KiB append — stage the extent, log the
// attach and the new size, rotate the batch into the window — with the
// in-process service validating, journaling and applying it, client and
// service counted together, allocates nothing. A ship starts its goroutine
// from a func the window entry makes at its first launch and keeps; a
// batch that waits at the service's sequence gate for its predecessor parks
// on the gate's condition; and the service's per-batch state is recycled.
// It was 83 before stores went by value, handles stayed on the stack and
// buffers were reused, 19 before the trusted side recycled its batches, and
// 5 while each gate wait made a timer and a channel and each launch a
// closure for the ship's goroutine.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const ceiling = 0
	s, _ := newSess(t, libfs.Config{UID: 1, Window: 8})
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	oid, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(s.Root, []byte("log"), oid, lock); err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 4096)
	off := uint64(0)
	appendBlock := func() {
		if _, err := s.FileWrite(oid, block, off, lock); err != nil {
			t.Fatal(err)
		}
		off += uint64(len(block))
		if err := s.FileSetSize(oid, off, lock); err != nil {
			t.Fatal(err)
		}
		if err := s.RotateBatch(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm the pool, the window and the buffers
		appendBlock()
	}
	got := testing.AllocsPerRun(512, appendBlock)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	t.Logf("append + RotateBatch: %.1f allocs/op", got)
	if got > ceiling {
		t.Errorf("append + RotateBatch: %.1f allocs/op, ceiling %d", got, ceiling)
	}

	t.Run("staged insert+remove", testStagedNamespaceAllocs)
}

// testStagedNamespaceAllocs: a warm staged DirInsert + DirRemove pair, and
// a staged DirRename there and back, allocate nothing: logOps copies each
// key into the session's key arena, and the staged view keys its entries by
// those bytes. The pair was 2 when libfs made a heap copy of each op's key,
// and 4 when each directory overlay copied it again. A listing of a
// directory with nothing staged allocates nothing.
func testStagedNamespaceAllocs(t *testing.T) {
	const ceiling = 0
	s, _ := newSess(t, libfs.Config{UID: 1})
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	oid, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("staged-file") // longer than Go's interned one-byte strings
	pair := func() {
		if err := s.DirInsert(s.Root, key, oid, lock); err != nil {
			t.Fatal(err)
		}
		if err := s.DirRemove(s.Root, key, oid, lock); err != nil {
			t.Fatal(err)
		}
	}
	// Two shipped rounds leave the batch arrays and the view's maps with
	// room for the counted round.
	for round := 0; round < 2; round++ {
		for i := 0; i < 256; i++ {
			pair()
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(100, pair)
	t.Logf("staged DirInsert + DirRemove: %.1f allocs/op", got)
	if got > ceiling {
		t.Errorf("staged DirInsert + DirRemove: %.1f allocs/op, ceiling %d", got, ceiling)
	}

	// A listing of a directory with nothing staged takes no snapshot.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	list := func() {
		if err := s.DirIterate(s.Root, func([]byte, sobj.OID) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, list); got != 0 {
		t.Errorf("DirIterate, nothing staged: %v allocs/op, want 0", got)
	}

	if err := s.DirInsert(s.Root, key, oid, lock); err != nil {
		t.Fatal(err)
	}
	dst := []byte("renamed-file")
	rename := func() {
		if err := s.DirRename(s.Root, key, s.Root, dst, oid, 0, lock, lock); err != nil {
			t.Fatal(err)
		}
		if err := s.DirRename(s.Root, dst, s.Root, key, oid, 0, lock, lock); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 256; i++ {
			rename()
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	got = testing.AllocsPerRun(100, rename)
	t.Logf("staged DirRename there and back: %.1f allocs/op", got)
	if got > ceiling {
		t.Errorf("staged DirRename there and back: %.1f allocs/op, ceiling %d", got, ceiling)
	}
}
