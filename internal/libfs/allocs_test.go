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
// service counted together. The ceiling is what the whole path costs today
// (6) plus slack for scheduling — how many batches share a group commit,
// how many wait at the sequence gate. What is left is the ship's goroutine,
// the in-process call's deadline timer, and a window batch that waits at
// the sequence gate for its predecessor (a timer and a channel); the
// service's per-batch state is recycled. It was 83 before stores went by
// value, handles stayed on the stack and buffers were reused, and 19
// before the trusted side recycled its batches.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const ceiling = 10
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
}
