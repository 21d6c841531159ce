package lockservice

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestExpireFiresOncePerClient: a client holding many locks stops renewing;
// concurrent Acquires on those locks all observe the expiry, but OnExpire
// must fire exactly once — the TFS drop-client hook is not idempotent-free.
func TestExpireFiresOncePerClient(t *testing.T) {
	var fires atomic.Int64
	s := New(Config{
		Lease:          30 * time.Millisecond,
		AcquireTimeout: 5 * time.Second,
		OnExpire:       func(client uint64) { fires.Add(1) },
	})
	const dead, nLocks = uint64(1), 16
	for id := uint64(0); id < nLocks; id++ {
		if err := s.Acquire(dead, id, X, false); err != nil {
			t.Fatalf("acquire: %v", err)
		}
	}
	// Let the lease lapse, then hammer every lock from other clients at
	// once; each Acquire reaps, but only one may claim the hook.
	time.Sleep(60 * time.Millisecond)
	var wg sync.WaitGroup
	for c := uint64(2); c < 6; c++ {
		for id := uint64(0); id < nLocks; id++ {
			wg.Add(1)
			go func(c, id uint64) {
				defer wg.Done()
				if err := s.Acquire(c, id, S, false); err != nil {
					t.Errorf("client %d lock %d: %v", c, id, err)
				}
			}(c, id)
		}
	}
	wg.Wait()
	if got := fires.Load(); got != 1 {
		t.Fatalf("OnExpire fired %d times for one dead client, want 1", got)
	}
	if held, _ := s.Holds(dead, 0, IS); held {
		t.Fatal("dead client still holds a lock after expiry")
	}
}

// TestExpireSweepsUntouchedLocks: expiry of a client observed on one lock
// must also reap its grants on locks nobody ever touches again, so a
// conflicting Acquire elsewhere is enough to clear all the dead client's
// state.
func TestExpireSweepsUntouchedLocks(t *testing.T) {
	s := New(Config{Lease: 20 * time.Millisecond, AcquireTimeout: 2 * time.Second})
	const dead = uint64(1)
	for id := uint64(0); id < 8; id++ {
		if err := s.Acquire(dead, id, X, false); err != nil {
			t.Fatalf("acquire: %v", err)
		}
	}
	time.Sleep(40 * time.Millisecond)
	// Touch only lock 0.
	if err := s.Acquire(2, 0, X, false); err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	leaked := 0
	for _, d := range s.doms {
		d.mu.Lock()
		for _, st := range d.locks {
			if st.find(dead) >= 0 {
				leaked++
			}
		}
		d.mu.Unlock()
	}
	if leaked != 0 {
		t.Fatalf("dead client's grants leaked on %d untouched locks", leaked)
	}
}

// TestExpireClientForced: ExpireClient drops everything immediately and
// fires the hook once; a second call is a no-op.
func TestExpireClientForced(t *testing.T) {
	var fires atomic.Int64
	s := New(Config{Lease: time.Hour, OnExpire: func(uint64) { fires.Add(1) }})
	for id := uint64(0); id < 4; id++ {
		if err := s.Acquire(7, id, X, true); err != nil {
			t.Fatalf("acquire: %v", err)
		}
	}
	s.ExpireClient(7)
	s.ExpireClient(7)
	if got := fires.Load(); got != 1 {
		t.Fatalf("OnExpire fired %d times, want 1", got)
	}
	for id := uint64(0); id < 4; id++ {
		if held, _ := s.Holds(7, id, IS); held {
			t.Fatalf("lock %d still held after ExpireClient", id)
		}
	}
	// The client can come back: a fresh acquire opens a new episode.
	if err := s.Acquire(7, 0, X, false); err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	s.ExpireClient(7)
	if got := fires.Load(); got != 2 {
		t.Fatalf("OnExpire fired %d times after new episode, want 2", got)
	}
}

// TestReleaseAllExpiryRace: concurrent ReleaseAll (the disconnect path) and
// lease expiry must not double-fire OnExpire or corrupt state. Run with
// -race; failures show up as data races or a fire count > 1 per episode.
func TestReleaseAllExpiryRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		var fires atomic.Int64
		s := New(Config{
			Lease:          10 * time.Millisecond,
			AcquireTimeout: 2 * time.Second,
			OnExpire:       func(client uint64) { fires.Add(1) },
		})
		const dead = uint64(1)
		for id := uint64(0); id < 8; id++ {
			if err := s.Acquire(dead, id, X, false); err != nil {
				t.Fatalf("acquire: %v", err)
			}
		}
		time.Sleep(15 * time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			s.ReleaseAll(dead)
		}()
		go func() {
			defer wg.Done()
			for id := uint64(0); id < 8; id++ {
				_ = s.Acquire(2, id, X, false)
			}
		}()
		wg.Wait()
		if got := fires.Load(); got > 1 {
			t.Fatalf("round %d: OnExpire fired %d times, want <=1", round, got)
		}
	}
}

// TestConcurrentChaos hammers the service from many clients doing
// acquire/release/renew/expire concurrently. It asserts no deadlock, no
// panic, and (under -race) no data races; mutual exclusion of X grants is
// checked with a per-lock owner word.
func TestConcurrentChaos(t *testing.T) {
	s := New(Config{
		// Long lease: expiry semantics are covered above; here leases must
		// not lapse inside a critical section or the owner check would flake.
		Lease:          2 * time.Second,
		AcquireTimeout: 5 * time.Second,
		Revoke:         func(holder, lockID uint64, wanted Class) {},
	})
	const nClients, nLocks, iters = 8, 4, 50
	owners := make([]atomic.Uint64, nLocks)
	var wg sync.WaitGroup
	for c := uint64(1); c <= nClients; c++ {
		wg.Add(1)
		go func(c uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := uint64((int(c) + i) % nLocks)
				if err := s.Acquire(c, id, X, false); err != nil {
					continue // timeout under contention is legal
				}
				if !owners[id].CompareAndSwap(0, c) {
					t.Errorf("lock %d: X grant to %d while held by %d", id, c, owners[id].Load())
				}
				owners[id].Store(0)
				switch i % 3 {
				case 0:
					_ = s.Release(c, id)
				case 1:
					s.renew(c)
					_ = s.Release(c, id)
				default:
					s.ReleaseAll(c)
				}
			}
		}(c)
	}
	wg.Wait()
	s.Shutdown()
	if err := s.Acquire(99, 0, S, false); err != ErrShutdown {
		t.Fatalf("acquire after shutdown: %v, want ErrShutdown", err)
	}
}
