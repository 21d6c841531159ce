package libfs_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// TestAbandonReleasesMachine pins what a dead session may keep alive:
// nothing. An abandoned session's clerk used to keep its renew ticker
// running forever, and that goroutine held the RPC client, the server, the
// TFS and the whole arena — one machine leaked per abandoned session.
func TestAbandonReleasesMachine(t *testing.T) {
	const arena = 32 << 20
	cycle := func() {
		sys, err := core.New(core.Options{ArenaSize: arena, AcquireTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		s, err := sys.NewSession(libfs.Config{UID: 1})
		if err != nil {
			t.Fatal(err)
		}
		lock := s.Root.Lock()
		if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
			t.Fatal(err)
		}
		oid, err := s.CreateMFileStaged(0o644, sobj.DefaultExtentLog)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DirInsert(s.Root, []byte("f"), oid, lock); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		// One more op left unshipped, and the lock still held: the client
		// dies mid-work.
		if err := s.DirInsert(s.Root, []byte("g"), oid, lock); err != nil {
			t.Fatal(err)
		}
		s.Abandon()
	}
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	goroutines := runtime.NumGoroutine()
	heap := heapInuse()
	for i := 0; i < 6; i++ {
		cycle()
	}
	// Abandon does not wait for the renew loop; give it a moment to exit.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines before, %d after six abandoned sessions", goroutines, got)
	}
	if after := heapInuse(); after > heap+arena {
		t.Errorf("heap in use grew %d MiB over six abandoned machines of %d MiB", (after-heap)>>20, arena>>20)
	}
}
