package lockservice

import (
	"sync"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/rpc"
)

// harness wires a Service and N clerks over the in-process transport, the
// way the TFS and libFS sessions do.
type harness struct {
	srv *rpc.Server
	svc *Service
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	srv := rpc.NewServer()
	if cfg.Lease == 0 {
		cfg.Lease = time.Minute
	}
	if cfg.AcquireTimeout == 0 {
		cfg.AcquireTimeout = 5 * time.Second
	}
	svc := Serve(srv, cfg)
	return &harness{srv: srv, svc: svc}
}

func (h *harness) newClerk(t *testing.T) (*Clerk, rpc.Client) {
	t.Helper()
	var clerk *Clerk
	rc := rpc.DialInProc(h.srv, func(method uint32, payload []byte) {
		clerk.HandleCallback(method, payload)
	}, nil, nil)
	clerk = NewClerk(rc, ClerkConfig{})
	t.Cleanup(func() {
		clerk.Close()
		rc.Close()
	})
	return clerk, rc
}

// TestClerkStatsAcrossEntries: the stat counters are shared by every lock
// entry, and threads working on different locks hold different entry locks
// — under -race this fails unless the counters are atomic.
func TestClerkStatsAcrossEntries(t *testing.T) {
	h := newHarness(t, Config{})
	c, _ := h.newClerk(t)
	const threads, rounds = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := c.Acquire(id, X, false); err != nil {
					t.Error(err)
					return
				}
				c.Release(id, X)
			}
		}(uint64(100 + i))
	}
	wg.Wait()
	if calls, hits := c.GlobalCalls.Load(), c.LocalHits.Load(); calls != threads || hits != threads*(rounds-1) {
		t.Fatalf("global calls %d, local hits %d; want %d and %d", calls, hits, threads, threads*(rounds-1))
	}
}

func TestClerkCachesGrantAcrossAcquires(t *testing.T) {
	h := newHarness(t, Config{})
	c, _ := h.newClerk(t)
	if err := c.Acquire(10, X, false); err != nil {
		t.Fatal(err)
	}
	c.Release(10, X)
	if err := c.Acquire(10, X, false); err != nil {
		t.Fatal(err)
	}
	c.Release(10, X)
	if got := c.GlobalCalls.Load(); got != 1 {
		t.Fatalf("global calls = %d, want 1 (second acquire local)", got)
	}
	if got := c.LocalHits.Load(); got != 1 {
		t.Fatalf("local hits = %d", got)
	}
}

func TestClerkLocalReadersShare(t *testing.T) {
	h := newHarness(t, Config{})
	c, _ := h.newClerk(t)
	if err := c.Acquire(10, S, false); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Acquire(10, S, false) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second local reader blocked")
	}
	c.Release(10, S)
	c.Release(10, S)
}

func TestClerkLocalWriterExcludes(t *testing.T) {
	h := newHarness(t, Config{})
	c, _ := h.newClerk(t)
	if err := c.Acquire(10, X, false); err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		_ = c.Acquire(10, X, false)
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("second local writer admitted concurrently")
	case <-time.After(50 * time.Millisecond):
	}
	c.Release(10, X)
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("second writer never admitted after release")
	}
	c.Release(10, X)
}

func TestRevocationShipsAndReleases(t *testing.T) {
	h := newHarness(t, Config{})
	a, _ := h.newClerk(t)
	b, _ := h.newClerk(t)
	var flushed []uint64
	var mu sync.Mutex
	a.OnRelease(func(id uint64) {
		mu.Lock()
		flushed = append(flushed, id)
		mu.Unlock()
	})
	if err := a.Acquire(10, X, false); err != nil {
		t.Fatal(err)
	}
	a.Release(10, X) // cached, still held globally
	if err := b.Acquire(10, X, false); err != nil {
		t.Fatalf("b acquire with revocation: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(flushed) != 1 || flushed[0] != 10 {
		t.Fatalf("flush hook calls = %v", flushed)
	}
	if a.Holding(10, S) {
		t.Fatal("a still caches revoked lock")
	}
}

func TestRevocationWaitsForActiveUser(t *testing.T) {
	h := newHarness(t, Config{})
	a, _ := h.newClerk(t)
	b, _ := h.newClerk(t)
	if err := a.Acquire(10, X, false); err != nil {
		t.Fatal(err)
	}
	// a holds the lock actively; b must block until a releases.
	done := make(chan error, 1)
	go func() { done <- b.Acquire(10, X, false) }()
	select {
	case <-done:
		t.Fatal("b acquired while a's thread held the local lock")
	case <-time.After(100 * time.Millisecond):
	}
	a.Release(10, X)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b never acquired after a drained")
	}
}

func TestHierarchicalSubLocks(t *testing.T) {
	h := newHarness(t, Config{})
	c, _ := h.newClerk(t)
	if err := c.Acquire(100, X, true); err != nil {
		t.Fatal(err)
	}
	calls := c.GlobalCalls.Load()
	if !c.AcquireSub(100, 101, true) {
		t.Fatal("sub lock under hier X refused")
	}
	if !c.AcquireSub(100, 102, false) {
		t.Fatal("read sub lock refused")
	}
	if c.GlobalCalls.Load() != calls {
		t.Fatal("sub locks went to the server")
	}
	c.ReleaseSub(100, 101, true)
	c.ReleaseSub(100, 102, false)
	c.Release(100, X)
}

func TestSubLockRefusedWithoutCover(t *testing.T) {
	h := newHarness(t, Config{})
	c, _ := h.newClerk(t)
	if c.AcquireSub(100, 101, false) {
		t.Fatal("sub lock granted with nothing held")
	}
	if err := c.Acquire(100, X, false); err != nil { // explicit, not hier
		t.Fatal(err)
	}
	if c.AcquireSub(100, 101, false) {
		t.Fatal("sub lock granted under non-hierarchical grant")
	}
	c.Release(100, X)
	// Hier S covers reads but not writes (fresh lock: the cached X grant
	// on 100 would otherwise upgrade the request).
	if err := c.Acquire(200, S, true); err != nil {
		t.Fatal(err)
	}
	if !c.AcquireSub(200, 201, false) {
		t.Fatal("read sub under hier S refused")
	}
	if c.AcquireSub(200, 202, true) {
		t.Fatal("write sub granted under hier S")
	}
	c.ReleaseSub(200, 201, false)
	c.Release(200, S)
}

func TestSubLockWriterExclusion(t *testing.T) {
	h := newHarness(t, Config{})
	c, _ := h.newClerk(t)
	if err := c.Acquire(100, X, true); err != nil {
		t.Fatal(err)
	}
	if !c.AcquireSub(100, 101, true) {
		t.Fatal("first sub writer refused")
	}
	admitted := make(chan bool, 1)
	go func() { admitted <- c.AcquireSub(100, 101, true) }()
	select {
	case <-admitted:
		t.Fatal("two sub writers on same sub id")
	case <-time.After(50 * time.Millisecond):
	}
	c.ReleaseSub(100, 101, true)
	select {
	case ok := <-admitted:
		if !ok {
			t.Fatal("second sub writer refused after release")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second sub writer never admitted")
	}
	c.ReleaseSub(100, 101, true)
	c.Release(100, X)
}

func TestRevocationOfHierCoverDrainsSubs(t *testing.T) {
	h := newHarness(t, Config{})
	a, _ := h.newClerk(t)
	b, _ := h.newClerk(t)
	if err := a.Acquire(100, X, true); err != nil {
		t.Fatal(err)
	}
	a.Release(100, X)
	if !a.AcquireSub(100, 101, true) {
		t.Fatal("sub refused")
	}
	done := make(chan error, 1)
	go func() { done <- b.Acquire(100, X, false) }()
	select {
	case <-done:
		t.Fatal("b acquired while a's sub lock active")
	case <-time.After(100 * time.Millisecond):
	}
	a.ReleaseSub(100, 101, true)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b never acquired after subs drained")
	}
	// New sub grants under the revoked cover must be refused.
	if a.AcquireSub(100, 102, false) {
		t.Fatal("sub granted under revoked cover")
	}
}

func TestReleaseGlobalVoluntary(t *testing.T) {
	h := newHarness(t, Config{})
	a, _ := h.newClerk(t)
	var flushes int
	a.OnRelease(func(uint64) { flushes++ })
	_ = a.Acquire(10, X, false)
	a.Release(10, X)
	a.ReleaseGlobal(10)
	if a.Holding(10, S) {
		t.Fatal("still cached after ReleaseGlobal")
	}
	if flushes != 1 {
		t.Fatalf("flushes = %d", flushes)
	}
	if held, _ := h.svc.Holds(1, 10, S); held {
		t.Fatal("server still shows grant")
	}
}

func TestClerkCloseReleasesEverything(t *testing.T) {
	h := newHarness(t, Config{})
	rcA := rpc.DialInProc(h.srv, nil, nil, nil)
	a := NewClerk(rcA, ClerkConfig{})
	_ = a.Acquire(10, X, false)
	_ = a.Acquire(11, S, false)
	a.Release(10, X)
	a.Release(11, S)
	a.Close()
	b, _ := h.newClerk(t)
	if err := b.Acquire(10, X, false); err != nil {
		t.Fatalf("lock 10 not released by Close: %v", err)
	}
	if err := b.Acquire(11, X, false); err != nil {
		t.Fatalf("lock 11 not released by Close: %v", err)
	}
}

func TestTwoClerksConcurrentCounters(t *testing.T) {
	// A classic mutual-exclusion smoke test: two clerks increment a shared
	// counter under the same lock; the total must be exact.
	h := newHarness(t, Config{})
	a, _ := h.newClerk(t)
	b, _ := h.newClerk(t)
	counter := 0
	var wg sync.WaitGroup
	inc := func(c *Clerk, n int) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := c.Acquire(10, X, false); err != nil {
				t.Error(err)
				return
			}
			counter++
			c.Release(10, X)
		}
	}
	wg.Add(2)
	go inc(a, 50)
	go inc(b, 50)
	wg.Wait()
	if counter != 100 {
		t.Fatalf("counter = %d, want 100 (lost updates)", counter)
	}
}
