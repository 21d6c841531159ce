package libfs_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// The ReadBarrier contract under test: a raw-SCM read issued after
// ReadBarrier returns observes every one of this session's window batches
// that was in flight when the barrier was entered, and no batch of the
// session lands under it until ReadDone. The reads here
// deliberately bypass the session's shadow overlay — sobj.OpenCollection
// and OpenMFile against s.Mem directly, the same below-the-overlay path
// DirLookup and FileSize drop to — so only the barrier stands between the
// reader and a half-applied batch.

// rawLookup reads dir/key straight off SCM, no shadow overlay.
func rawLookup(s *libfs.Session, dir sobj.OID, key string) (sobj.OID, error) {
	col, err := sobj.OpenCollection(s.Mem, dir)
	if err != nil {
		return 0, err
	}
	return col.Lookup([]byte(key))
}

// TestReadBarrierObservesRetiredApplies fills a deep window (16 one-op
// batches in flight) and, without any Sync, barriers and raw-reads: every
// insert and every staged size must already be on SCM. A barrier that
// returned early would catch the collection mid-apply or miss the tail of
// the window entirely.
func TestReadBarrierObservesRetiredApplies(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := sys.NewSession(libfs.Config{UID: 1, BatchLimit: 1, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)

	const rounds, files = 6, 12
	sawInflight := false
	for r := 0; r < rounds; r++ {
		oids := make([]sobj.OID, files)
		for i := 0; i < files; i++ {
			oid, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
			if err != nil {
				t.Fatal(err)
			}
			oids[i] = oid
			if err := s.DirInsert(s.Root, []byte(key(r, i)), oid, lock); err != nil {
				t.Fatal(err)
			}
			if err := s.Clerk.Acquire(oid.Lock(), lockservice.X, false); err != nil {
				t.Fatal(err)
			}
			if err := s.FileSetSize(oid, uint64(100*r+i), oid.Lock()); err != nil {
				t.Fatal(err)
			}
			s.Clerk.Release(oid.Lock(), lockservice.X)
		}
		if s.PendingOps() > 0 {
			sawInflight = true
		}
		func() {
			s.ReadBarrier()
			defer s.ReadDone()
			for i := 0; i < files; i++ {
				got, err := rawLookup(s, s.Root, key(r, i))
				if err != nil {
					t.Fatalf("round %d: %s not on raw SCM after barrier: %v", r, key(r, i), err)
				}
				if got != oids[i] {
					t.Fatalf("round %d: %s resolves to %#x on raw SCM, want %#x", r, key(r, i), got, oids[i])
				}
				m, err := sobj.OpenMFile(s.Mem, oids[i])
				if err != nil {
					t.Fatalf("round %d: open mfile %d: %v", r, i, err)
				}
				size, err := m.Size()
				if err != nil {
					t.Fatal(err)
				}
				if size != uint64(100*r+i) {
					t.Fatalf("round %d: raw header size %d, want %d — barrier returned before the set-size applied",
						r, size, 100*r+i)
				}
			}
		}()
	}
	if !sawInflight {
		t.Fatal("window was never observed non-empty before a barrier; the test exercised nothing")
	}
}

// TestReadBarrierCrossGoroutine runs the barrier-then-raw-read sequence on
// a goroutine that is not the writer, concurrent with the shipper
// goroutines retiring the window — the locking this exercises under -race
// is the shipCond protocol between reader, writer, and shippers. The
// reader is handed each round only after the writer logged it, but the
// window is still draining when the hand-off happens.
func TestReadBarrierCrossGoroutine(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := sys.NewSession(libfs.Config{UID: 1, BatchLimit: 1, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)

	const rounds, files = 8, 10
	logged := make(chan int)   // writer -> reader: round r fully logged
	checked := make(chan bool) // reader -> writer: round r verified
	readErr := make(chan error, 1)
	go func() {
		defer close(readErr)
		for r := range logged {
			s.ReadBarrier()
			ok := true
			// Every round logged so far must be fully on raw SCM.
			for rr := 0; rr <= r && ok; rr++ {
				for i := 0; i < files; i++ {
					if _, err := rawLookup(s, s.Root, key(rr, i)); err != nil {
						readErr <- fmt.Errorf("after round %d barrier, %s unreadable raw: %w", r, key(rr, i), err)
						ok = false
						break
					}
				}
			}
			s.ReadDone()
			checked <- ok
			if !ok {
				return
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		for i := 0; i < files; i++ {
			oid, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.DirInsert(s.Root, []byte(key(r, i)), oid, lock); err != nil {
				t.Fatal(err)
			}
		}
		logged <- r
		if !<-checked {
			break
		}
	}
	close(logged)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestReadSectionHoldsOffRevocationFlush: a revoked lock ships the
// session's pending updates from the revoking goroutine, whatever the
// session's own caller is doing at that moment. A raw read inside
// ReadBarrier..ReadDone must not have them land under it — a rehash would
// free the table the read is walking — so the flush waits for the section
// to close, and the revoker's acquire waits for the flush.
func TestReadSectionHoldsOffRevocationFlush(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	a, err := sys.NewSession(libfs.Config{UID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := sys.NewSession(libfs.Config{UID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	lock := a.Root.Lock()
	if err := a.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	oid, err := a.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.DirInsert(a.Root, []byte("pending"), oid, lock); err != nil {
		t.Fatal(err)
	}
	a.Clerk.Release(lock, lockservice.X) // grant cached, insert unshipped

	a.ReadBarrier()
	acquired := make(chan error, 1)
	go func() { acquired <- b.Clerk.Acquire(lock, lockservice.X, true) }()
	for deadline := time.Now().Add(10 * time.Second); libfs.FlushWaiting(a) == 0; time.Sleep(time.Millisecond) {
		select {
		case err := <-acquired:
			a.ReadDone()
			t.Fatalf("b's acquire returned (%v) while a's read section was open: a's flush did not wait", err)
		default:
		}
		if time.Now().After(deadline) {
			a.ReadDone()
			t.Fatal("the revocation never reached a's flush")
		}
	}
	_, err = rawLookup(a, a.Root, "pending")
	a.ReadDone()
	if !errors.Is(err, sobj.ErrNotFound) {
		t.Fatalf("raw lookup inside the read section: %v, want ErrNotFound (the flush applied under the read)", err)
	}
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	defer b.Clerk.Release(lock, lockservice.X)
	if got, err := rawLookup(a, a.Root, "pending"); err != nil || got != oid {
		t.Fatalf("after the section: %v %v, want %v shipped before the lock moved", got, err, oid)
	}
}

// TestReadDoneLeavesSyncQueue: a synchronous session (Window 1) ships only
// at its flush points. A batch it sealed at a shard switch waits in its
// queue, and closing a read section must not launch it in the background —
// that would move batch boundaries and with them what the trusted side
// allocates.
func TestReadDoneLeavesSyncQueue(t *testing.T) {
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
	for shard, dir := range []sobj.OID{s.Root, s.ShardRoot(1)} {
		lock := dir.Lock()
		if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
			t.Fatal(err)
		}
		defer s.Clerk.Release(lock, lockservice.X)
		oid, err := s.CreateMFileStaged(shard, 0644, sobj.DefaultExtentLog)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DirInsert(dir, []byte("f"), oid, lock); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 1's ops sealed shard 0's batch into the queue, unshipped.
	s.ReadBarrier()
	s.ReadDone()
	s.ReadBarrier() // waits out anything the ReadDone launched
	_, err = rawLookup(s, s.Root, "f")
	s.ReadDone()
	if !errors.Is(err, sobj.ErrNotFound) {
		t.Fatalf("raw lookup after a read section: %v, want ErrNotFound (the queued batch shipped)", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := rawLookup(s, s.Root, "f"); err != nil {
		t.Fatalf("after Sync: %v", err)
	}
}

func key(round, i int) string { return fmt.Sprintf("rb%d-%02d", round, i) }
