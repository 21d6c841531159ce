package lockservice

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestCompatibilityMatrix(t *testing.T) {
	want := map[[2]Class]bool{
		{IS, IS}: true, {IS, IX}: true, {IS, S}: true, {IS, X}: false,
		{IX, IX}: true, {IX, S}: false, {IX, X}: false,
		{S, S}: true, {S, X}: false,
		{X, X}: false,
	}
	for pair, ok := range want {
		if compatible(pair[0], pair[1]) != ok {
			t.Errorf("compatible(%v,%v) != %v", pair[0], pair[1], ok)
		}
		if compatible(pair[1], pair[0]) != ok {
			t.Errorf("matrix not symmetric at (%v,%v)", pair[1], pair[0])
		}
	}
}

func TestCoversAndMerge(t *testing.T) {
	if !covers(X, S) || !covers(X, IX) || !covers(S, IS) || !covers(IX, IS) {
		t.Fatal("covers lattice wrong")
	}
	if covers(S, X) || covers(IX, S) || covers(IS, IX) {
		t.Fatal("covers grants too much")
	}
	if merge(S, IX) != X {
		t.Fatalf("merge(S,IX) = %v, want X", merge(S, IX))
	}
	if merge(IS, S) != S || merge(X, IS) != X {
		t.Fatal("merge of comparable classes wrong")
	}
}

func TestAcquireReadersShareWritersExclude(t *testing.T) {
	svc := New(Config{Lease: time.Minute, AcquireTimeout: 200 * time.Millisecond})
	if err := svc.Acquire(1, 10, S, false); err != nil {
		t.Fatal(err)
	}
	if err := svc.Acquire(2, 10, S, false); err != nil {
		t.Fatalf("second reader: %v", err)
	}
	if err := svc.Acquire(3, 10, X, false); !errors.Is(err, ErrTimeout) {
		t.Fatalf("writer vs readers: %v", err)
	}
	_ = svc.Release(1, 10)
	_ = svc.Release(2, 10)
	if err := svc.Acquire(3, 10, X, false); err != nil {
		t.Fatalf("writer after releases: %v", err)
	}
	if err := svc.Acquire(1, 10, S, false); !errors.Is(err, ErrTimeout) {
		t.Fatalf("reader vs writer: %v", err)
	}
}

func TestIntentCompatibilityOnServer(t *testing.T) {
	svc := New(Config{Lease: time.Minute, AcquireTimeout: 100 * time.Millisecond})
	if err := svc.Acquire(1, 10, IX, false); err != nil {
		t.Fatal(err)
	}
	if err := svc.Acquire(2, 10, IX, false); err != nil {
		t.Fatalf("IX+IX should coexist: %v", err)
	}
	if err := svc.Acquire(3, 10, S, false); !errors.Is(err, ErrTimeout) {
		t.Fatalf("S vs IX should conflict: %v", err)
	}
	if err := svc.Acquire(3, 10, IS, false); err != nil {
		t.Fatalf("IS vs IX should coexist: %v", err)
	}
}

func TestUpgradeSameClient(t *testing.T) {
	svc := New(Config{Lease: time.Minute, AcquireTimeout: 100 * time.Millisecond})
	if err := svc.Acquire(1, 10, S, false); err != nil {
		t.Fatal(err)
	}
	if err := svc.Acquire(1, 10, X, false); err != nil {
		t.Fatalf("self-upgrade with no other holders: %v", err)
	}
	held, _ := svc.Holds(1, 10, X)
	if !held {
		t.Fatal("upgrade did not stick")
	}
	// Upgrade blocked by another reader.
	if err := svc.Release(1, 10); err != nil {
		t.Fatal(err)
	}
	_ = svc.Acquire(1, 10, S, false)
	_ = svc.Acquire(2, 10, S, false)
	if err := svc.Acquire(1, 10, X, false); !errors.Is(err, ErrTimeout) {
		t.Fatalf("upgrade past other reader: %v", err)
	}
}

func TestRevocationCallbackDelivered(t *testing.T) {
	var revoked atomic.Int64
	var mu sync.Mutex
	var got []uint64
	svc := New(Config{
		Lease:          time.Minute,
		AcquireTimeout: 5 * time.Second,
		Revoke: func(holder, lockID uint64, wanted Class) {
			mu.Lock()
			got = append(got, holder)
			mu.Unlock()
			revoked.Add(1)
		},
	})
	_ = svc.Acquire(1, 10, S, false)
	done := make(chan error, 1)
	go func() { done <- svc.Acquire(2, 10, X, false) }()
	// Wait for the revoke, then release as a cooperative client would.
	deadline := time.After(3 * time.Second)
	for revoked.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("revoke never delivered")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	_ = svc.Release(1, 10)
	if err := <-done; err != nil {
		t.Fatalf("acquire after revoke+release: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 || got[0] != 1 {
		t.Fatalf("revocations = %v", got)
	}
}

func TestLeaseExpiryBreaksDeadHolder(t *testing.T) {
	expired := make(chan uint64, 1)
	svc := New(Config{
		Lease:          30 * time.Millisecond,
		AcquireTimeout: 5 * time.Second,
		OnExpire:       func(client uint64) { expired <- client },
	})
	_ = svc.Acquire(1, 10, X, false)
	// Client 1 never renews; client 2 must eventually win.
	start := time.Now()
	if err := svc.Acquire(2, 10, X, false); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("acquired before lease could expire")
	}
	select {
	case c := <-expired:
		if c != 1 {
			t.Fatalf("expired client = %d", c)
		}
	case <-time.After(time.Second):
		t.Fatal("expiry hook never fired")
	}
}

func TestRenewKeepsLeaseAlive(t *testing.T) {
	svc := New(Config{Lease: 50 * time.Millisecond, AcquireTimeout: 120 * time.Millisecond})
	_ = svc.Acquire(1, 10, X, false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				svc.renew(1)
			case <-stop:
				return
			}
		}
	}()
	if err := svc.Acquire(2, 10, X, false); !errors.Is(err, ErrTimeout) {
		t.Fatalf("renewed lease was stolen: %v", err)
	}
	close(stop)
	wg.Wait()
}

func TestReleaseAllFreesEverything(t *testing.T) {
	svc := New(Config{Lease: time.Minute, AcquireTimeout: 100 * time.Millisecond})
	for id := uint64(1); id <= 5; id++ {
		if err := svc.Acquire(1, id, X, false); err != nil {
			t.Fatal(err)
		}
	}
	svc.ReleaseAll(1)
	for id := uint64(1); id <= 5; id++ {
		if err := svc.Acquire(2, id, X, false); err != nil {
			t.Fatalf("lock %d not freed: %v", id, err)
		}
	}
}

func TestReleaseNotHeld(t *testing.T) {
	svc := New(Config{})
	if err := svc.Release(1, 10); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("want ErrNotHeld, got %v", err)
	}
}

func TestHoldsReflectsHierFlag(t *testing.T) {
	svc := New(Config{Lease: time.Minute})
	_ = svc.Acquire(1, 10, X, true)
	held, hier := svc.Holds(1, 10, X)
	if !held || !hier {
		t.Fatalf("held=%v hier=%v", held, hier)
	}
	held, _ = svc.Holds(1, 10, S) // X covers S
	if !held {
		t.Fatal("X should cover S")
	}
	if held, _ := svc.Holds(2, 10, S); held {
		t.Fatal("stranger holds nothing")
	}
}

func TestShutdownFailsAcquires(t *testing.T) {
	svc := New(Config{Lease: time.Minute, AcquireTimeout: 5 * time.Second})
	_ = svc.Acquire(1, 10, X, false)
	done := make(chan error, 1)
	go func() { done <- svc.Acquire(2, 10, X, false) }()
	time.Sleep(10 * time.Millisecond)
	svc.Shutdown()
	if err := <-done; !errors.Is(err, ErrShutdown) {
		t.Fatalf("pending acquire after shutdown: %v", err)
	}
	if err := svc.Acquire(3, 11, S, false); !errors.Is(err, ErrShutdown) {
		t.Fatalf("new acquire after shutdown: %v", err)
	}
}

// Property: for random acquire/release schedules, the service never grants
// incompatible classes to different clients simultaneously.
func TestQuickNoIncompatibleGrants(t *testing.T) {
	f := func(ops []uint16) bool {
		svc := New(Config{Lease: time.Minute, AcquireTimeout: time.Millisecond})
		type key struct {
			client uint64
			id     uint64
		}
		held := map[key]Class{}
		for _, op := range ops {
			client := uint64(op)%3 + 1
			id := uint64(op>>2)%2 + 10
			class := Class(op>>4) % 4
			k := key{client, id}
			if op%2 == 0 {
				err := svc.Acquire(client, id, class, false)
				if err == nil {
					if cur, ok := held[k]; ok {
						held[k] = merge(cur, class)
					} else {
						held[k] = class
					}
				}
			} else if _, ok := held[k]; ok {
				if err := svc.Release(client, id); err != nil {
					return false
				}
				delete(held, k)
			}
			// Invariant check across clients per lock.
			for a, ca := range held {
				for b, cb := range held {
					if a.id == b.id && a.client != b.client && !compatible(ca, cb) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
