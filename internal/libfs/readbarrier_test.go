package libfs_test

import (
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
// that was in flight when the barrier was entered. The reads here
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
		s.ReadBarrier()
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
	}
	if !sawInflight {
		t.Fatal("window was never observed non-empty before a barrier; the test exercised nothing")
	}
}

// TestReadBarrierCrossGoroutine runs the barrier-then-raw-read sequence on
// a goroutine that is not the writer, concurrent with the shipper
// goroutines retiring the window — the locking this exercises under -race
// is the shipCond protocol between reader, writer, and shippers. The
// reader is handed each round only after the writer logged it (raw reads
// concurrent with NEW applies would be outside the barrier's contract),
// but the window is still draining when the hand-off happens.
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

func key(round, i int) string { return fmt.Sprintf("rb%d-%02d", round, i) }
