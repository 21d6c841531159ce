package lockservice

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/linearize"
	"github.com/aerie-fs/aerie/internal/rpc"
)

// history records what the service's watch sees. Events are appended under
// the lock's domain mutex, so with one domain their order is the order the
// service made the changes in.
type history struct {
	mu  sync.Mutex
	evs []event
}

func (h *history) record(ev event) {
	h.mu.Lock()
	h.evs = append(h.evs, ev)
	h.mu.Unlock()
}

func (h *history) events() []event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]event(nil), h.evs...)
}

// watchHistory attaches a recorder to svc. Call it before any request.
func watchHistory(svc *Service) *history {
	h := &history{}
	svc.watch = h.record
	return h
}

func (ev event) String() string {
	names := [...]string{"queue", "grant", "grant-queued", "timeout", "withdraw", "revoke", "release", "release-not-held", "expire"}
	return fmt.Sprintf("%s client %d lock %#x %v", names[ev.kind], ev.client, ev.id, ev.class)
}

// checkHistory replays a history against a model of every lock — its
// holders and its FIFO queue — and reports the first event the service's
// contract forbids:
//   - a grant incompatible with another client's grant;
//   - a grant on arrival to a newcomer while others wait (barging);
//   - a queued grant to anyone but the queue's head (compatible heads are
//     granted together, as successive grants of the head);
//   - a revocation, release or expiry of a grant the client does not hold;
//   - a release the service answered ErrNotHeld.
func checkHistory(evs []event) error {
	type lockModel struct {
		holders map[uint64]Class
		queue   []event
	}
	locks := map[uint64]*lockModel{}
	for n, ev := range evs {
		m := locks[ev.id]
		if m == nil {
			m = &lockModel{holders: map[uint64]Class{}}
			locks[ev.id] = m
		}
		fail := func(why string) error {
			lo := n - 8
			if lo < 0 {
				lo = 0
			}
			return fmt.Errorf("event %d (%v): %s; holders %v, queue %v; preceding %v", n, ev, why, m.holders, m.queue, evs[lo:n])
		}
		_, held := m.holders[ev.client]
		switch ev.kind {
		case evQueue:
			m.queue = append(m.queue, ev)
		case evGrant, evGrantQ:
			if ev.kind == evGrant && !held && len(m.queue) > 0 {
				return fail("a newcomer was granted ahead of a queued request")
			}
			if ev.kind == evGrantQ {
				if len(m.queue) == 0 || m.queue[0].client != ev.client {
					return fail("a queued grant out of queue order")
				}
				m.queue = m.queue[1:]
			}
			for other, c := range m.holders {
				if other != ev.client && !compatible(ev.class, c) {
					return fail(fmt.Sprintf("granted beside client %d's %v", other, c))
				}
			}
			m.holders[ev.client] = ev.class
		case evTimeout, evWithdraw:
			i := 0
			for i < len(m.queue) && m.queue[i].client != ev.client {
				i++
			}
			if i == len(m.queue) {
				return fail("a request left the queue it is not in")
			}
			m.queue = append(m.queue[:i:i], m.queue[i+1:]...)
		case evRevoke:
			if !held {
				return fail("a revocation of a grant not held")
			}
		case evRelease, evExpire:
			if !held {
				return fail("a release of a grant not held")
			}
			delete(m.holders, ev.client)
		case evNotHeld:
			return fail("a release answered ErrNotHeld")
		}
	}
	return nil
}

func countKinds(evs []event) map[eventKind]int {
	n := map[eventKind]int{}
	for _, ev := range evs {
		n[ev.kind]++
	}
	return n
}

// TestHistoryRandomClerks drives several clerks, two threads each, over a
// few locks with random classes, hold times and voluntary releases, and
// checks the service's history: grants compatible and in queue order, no
// barging, no release of a grant not held (so no ErrNotHeld reaches an
// honest clerk), and no acquire outliving AcquireTimeout plus slack. Local
// holds of different clerks are checked for compatibility as they happen,
// and at the end every grant the service records is one a clerk tracks.
func TestHistoryRandomClerks(t *testing.T) {
	const (
		nClerks, nThreads, nLocks, rounds = 5, 2, 3, 150
		timeout                           = 2 * time.Second
		slack                             = 500 * time.Millisecond
	)
	seed := linearize.Seed(time.Now().UnixNano())
	t.Logf("seed %d (replay with AERIE_SEED=%d)", seed, seed)
	h := newHarness(t, Config{AcquireTimeout: timeout})
	// Seeded delays at the transport's fault points widen the windows
	// between a clerk's decision and the service seeing it.
	inj := faultinject.New()
	inj.SeedDelays(seed, 0.3, 300*time.Microsecond)
	h.srv.SetFaults(inj)
	hist := watchHistory(h.svc)
	clerks := make([]*Clerk, nClerks)
	for i := range clerks {
		clerks[i], _ = h.newClerk(t)
	}

	// active[lock][clerk] counts local holds per class.
	var mu sync.Mutex
	active := make([]map[int][4]int, nLocks)
	for i := range active {
		active[i] = map[int][4]int{}
	}
	enter := func(lock, clerk int, class Class) {
		mu.Lock()
		defer mu.Unlock()
		for other, held := range active[lock] {
			for c, n := range held {
				if other != clerk && n > 0 && !compatible(class, Class(c)) {
					t.Errorf("lock %d: clerk %d holds %v beside clerk %d's %v", lock, clerk, class, other, Class(c))
				}
			}
		}
		held := active[lock][clerk]
		held[class]++
		active[lock][clerk] = held
	}
	leave := func(lock, clerk int, class Class) {
		mu.Lock()
		held := active[lock][clerk]
		held[class]--
		active[lock][clerk] = held
		mu.Unlock()
	}

	var slowest atomic.Int64
	var wg sync.WaitGroup
	for ci, c := range clerks {
		for th := 0; th < nThreads; th++ {
			wg.Add(1)
			go func(ci int, c *Clerk, rng *rand.Rand) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					lock := rng.Intn(nLocks)
					id := uint64(100 + lock)
					class := Class(rng.Intn(4))
					t0 := time.Now()
					err := c.Acquire(id, class, false)
					if d := time.Since(t0); d > time.Duration(slowest.Load()) {
						slowest.Store(int64(d))
					}
					if err != nil {
						t.Errorf("clerk %d: acquire %#x %v: %v", ci, id, class, err)
						return
					}
					enter(lock, ci, class)
					for i := rng.Intn(3); i > 0; i-- {
						time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
					}
					leave(lock, ci, class)
					c.Release(id, class)
					if rng.Intn(8) == 0 {
						c.ReleaseGlobal(id)
					}
				}
			}(ci, c, rand.New(rand.NewSource(seed+int64(ci*nThreads+th))))
		}
	}
	wg.Wait()
	// Every grant the service records is one its clerk tracks, and back.
	for _, c := range clerks {
		for lock := 0; lock < nLocks; lock++ {
			id := uint64(100 + lock)
			held, _ := h.svc.Holds(c.rc.ClientID(), id, IS)
			if tracked := c.holding(id, IS); held != tracked {
				t.Errorf("client %d lock %#x: service holds %v, clerk tracks %v", c.rc.ClientID(), id, held, tracked)
			}
		}
	}
	if d := time.Duration(slowest.Load()); d > timeout+slack {
		t.Errorf("an acquire took %v, past AcquireTimeout %v plus %v", d, timeout, slack)
	}
	evs := hist.events()
	if err := checkHistory(evs); err != nil {
		t.Fatal(err)
	}
	n := countKinds(evs)
	t.Logf("%d events: %d queued, %d queued grants, %d revocations; slowest acquire %v",
		len(evs), n[evQueue], n[evGrantQ], n[evRevoke], time.Duration(slowest.Load()))
	if n[evQueue] == 0 || n[evRevoke] == 0 {
		t.Fatalf("no contention exercised: %v", n)
	}
}

// waitFor polls cond until it holds or a second has passed.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(time.Second); !cond(); {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// queued reports how many requests wait on lock id.
func (s *Service) queuedOn(id uint64) int {
	d := s.dom(id)
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.locks[id]; st != nil {
		return len(st.queue)
	}
	return 0
}

// TestNoBarging: a reader that arrives while a writer waits behind another
// reader queues behind the writer, though it is compatible with the
// holder; the grants come in queue order.
func TestNoBarging(t *testing.T) {
	svc := New(Config{Lease: time.Minute, AcquireTimeout: 5 * time.Second})
	hist := watchHistory(svc)
	const id = 10
	if err := svc.Acquire(1, id, S, false); err != nil {
		t.Fatal(err)
	}
	order := make(chan uint64, 2)
	acquire := func(client uint64, class Class) {
		if err := svc.Acquire(client, id, class, false); err != nil {
			t.Error(err)
		}
		order <- client
	}
	go acquire(2, X)
	waitFor(t, "the writer to queue", func() bool { return svc.queuedOn(id) == 1 })
	go acquire(3, S)
	waitFor(t, "the reader to queue", func() bool { return svc.queuedOn(id) == 2 })
	if held, _ := svc.Holds(3, id, S); held {
		t.Fatal("a newcomer reader overtook the queued writer")
	}
	if err := svc.Release(1, id); err != nil {
		t.Fatal(err)
	}
	if got := <-order; got != 2 {
		t.Fatalf("client %d granted first, want the queued writer 2", got)
	}
	if err := svc.Release(2, id); err != nil {
		t.Fatal(err)
	}
	if got := <-order; got != 3 {
		t.Fatalf("client %d granted second, want 3", got)
	}
	if err := checkHistory(hist.events()); err != nil {
		t.Fatal(err)
	}
}

// TestCompatibleHeadsGrantedTogether: when a writer releases, every reader
// queued behind it is granted in the same pass, up to the next writer.
func TestCompatibleHeadsGrantedTogether(t *testing.T) {
	svc := New(Config{Lease: time.Minute, AcquireTimeout: 5 * time.Second})
	hist := watchHistory(svc)
	const id = 10
	if err := svc.Acquire(1, id, X, false); err != nil {
		t.Fatal(err)
	}
	done := make(chan uint64, 3)
	for i, c := range []struct {
		client uint64
		class  Class
	}{{2, S}, {3, IS}, {4, X}} {
		go func() {
			if err := svc.Acquire(c.client, id, c.class, false); err != nil {
				t.Error(err)
			}
			done <- c.client
		}()
		waitFor(t, "the request to queue", func() bool { return svc.queuedOn(id) == i+1 })
	}
	if err := svc.Release(1, id); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{<-done: true, <-done: true}
	if !got[2] || !got[3] {
		t.Fatalf("granted %v, want the readers 2 and 3 together", got)
	}
	if svc.queuedOn(id) != 1 {
		t.Fatal("the writer left the queue while readers hold the lock")
	}
	_ = svc.Release(2, id)
	_ = svc.Release(3, id)
	if c := <-done; c != 4 {
		t.Fatalf("granted %d, want the writer 4", c)
	}
	if err := checkHistory(hist.events()); err != nil {
		t.Fatal(err)
	}
}

// TestDeadHolderLosesLockWithinLease: a holder that stops renewing loses
// its lock to a queued waiter when its lease runs out — the domain timer
// fires at the expiry, so the waiter is granted within 20 ms of it. The
// bound is on the timer, not on the host: a scheduling stall (a garbage
// collection under -race, a busy machine) can delay one grant past it, so
// a late grant is tried again, three tries in all. A grant before the
// lease ran out fails at once.
func TestDeadHolderLosesLockWithinLease(t *testing.T) {
	const lease, late = 100 * time.Millisecond, 20 * time.Millisecond
	runtime.GC()
	var took []time.Duration
	for try := 0; try < 3; try++ {
		svc := New(Config{Lease: lease, AcquireTimeout: 5 * time.Second})
		hist := watchHistory(svc)
		t0 := time.Now()
		if err := svc.Acquire(1, 10, X, false); err != nil {
			t.Fatal(err)
		}
		if err := svc.Acquire(2, 10, X, false); err != nil {
			t.Fatal(err)
		}
		d := time.Since(t0)
		svc.Shutdown()
		if d < lease {
			t.Fatalf("waiter granted %v after the dead holder's grant, before its %v lease ran out", d, lease)
		}
		if err := checkHistory(hist.events()); err != nil {
			t.Fatal(err)
		}
		if n := countKinds(hist.events()); n[evExpire] != 1 {
			t.Fatalf("%d expiries, want 1", n[evExpire])
		}
		if d <= lease+late {
			return
		}
		took = append(took, d)
	}
	t.Fatalf("waiter granted %v after the dead holder's grant, want within %v", took, lease+late)
}

// TestTimedOutRequestLeavesQueue: a request past its AcquireTimeout leaves
// the queue — it is not granted later — and once the holder releases, the
// lock's state is reclaimed.
func TestTimedOutRequestLeavesQueue(t *testing.T) {
	svc := New(Config{Lease: time.Minute, AcquireTimeout: 20 * time.Millisecond})
	hist := watchHistory(svc)
	const id = 10
	if err := svc.Acquire(1, id, X, false); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := svc.Acquire(2, id, X, false); !errors.Is(err, ErrTimeout) {
		t.Fatalf("acquire behind a live holder: %v, want ErrTimeout", err)
	}
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Fatalf("timed out after %v, AcquireTimeout is 20ms", d)
	}
	if n := svc.queuedOn(id); n != 0 {
		t.Fatalf("%d requests still queued after the timeout", n)
	}
	if err := svc.Release(1, id); err != nil {
		t.Fatal(err)
	}
	if held, _ := svc.Holds(2, id, IS); held {
		t.Fatal("a timed-out request was granted")
	}
	d := svc.doms[0]
	d.mu.Lock()
	locks, queued := len(d.locks), d.queued
	d.mu.Unlock()
	if locks != 0 || queued != 0 {
		t.Fatalf("%d lock states and %d queued requests left, want none", locks, queued)
	}
	if err := checkHistory(hist.events()); err != nil {
		t.Fatal(err)
	}
}

// gatedClient holds the next acquire call an armed gate sees until the test
// lets it go: before it reaches the service, or, with after set, on its way
// back. A teardown can then run beside a fetch in flight.
type gatedClient struct {
	rpc.Client
	after   bool
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (g *gatedClient) Call(method uint32, req []byte) ([]byte, error) {
	hold := method == MethodAcquire && g.armed.CompareAndSwap(true, false)
	if hold && !g.after {
		g.held <- struct{}{}
		<-g.release
	}
	resp, err := g.Client.Call(method, req)
	if hold && g.after {
		g.held <- struct{}{}
		<-g.release
	}
	return resp, err
}

// TestFetchBesideTeardownIsTracked: a revocation tears a clerk's IS grant
// down while its IX upgrade is in flight. The upgrade reaches the service
// after the teardown's release, as a fresh grant the teardown never saw,
// or before it, and the release takes it. Either way the upgrading Acquire
// returns with a grant the clerk and the service agree on, no release is
// answered ErrNotHeld, and the next conflicting request gets the lock as
// soon as the clerk's user lets go.
func TestFetchBesideTeardownIsTracked(t *testing.T) {
	for _, after := range []bool{false, true} {
		name := "request held"
		if after {
			name = "reply held"
		}
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, Config{AcquireTimeout: 5 * time.Second})
			hist := watchHistory(h.svc)
			var a *Clerk
			rc := rpc.DialInProc(h.srv, func(method uint32, payload []byte) {
				a.HandleCallback(method, payload)
			}, nil, nil)
			g := &gatedClient{Client: rc, after: after, held: make(chan struct{}), release: make(chan struct{})}
			a = NewClerk(g, ClerkConfig{})
			t.Cleanup(func() {
				a.Close()
				rc.Close()
			})
			const id, other = 10, 1 << 40 // other: a client no clerk has
			if err := a.Acquire(id, IS, false); err != nil {
				t.Fatal(err)
			}
			g.armed.Store(true)
			upgraded := make(chan error, 1)
			go func() { upgraded <- a.Acquire(id, IX, false) }()
			<-g.held
			// A writer revokes the clerk's grant; the teardown waits for
			// the IS user, then releases.
			granted := make(chan error, 1)
			go func() { granted <- h.svc.Acquire(other, id, X, false) }()
			waitFor(t, "the writer to queue", func() bool { return h.svc.queuedOn(id) == 1 })
			a.Release(id, IS)
			if err := <-granted; err != nil {
				t.Fatal(err)
			}
			if err := h.svc.Release(other, id); err != nil {
				t.Fatal(err)
			}
			close(g.release)
			if err := <-upgraded; err != nil {
				t.Fatal(err)
			}
			client := rc.ClientID()
			if held, _ := h.svc.Holds(client, id, IX); !held || !a.holding(id, IX) {
				t.Fatalf("after the upgrade: service holds IX %v, clerk tracks IX %v; want both", held, a.holding(id, IX))
			}
			// The grant is one the clerk gives up when asked.
			go func() { granted <- h.svc.Acquire(other, id, X, false) }()
			waitFor(t, "the second writer to queue", func() bool { return h.svc.queuedOn(id) == 1 })
			a.Release(id, IX)
			select {
			case err := <-granted:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the writer stalled behind the upgraded grant")
			}
			if held, _ := h.svc.Holds(client, id, IS); held || a.holding(id, IS) {
				t.Fatalf("after the revocation: service holds %v, clerk tracks %v; want neither", held, a.holding(id, IS))
			}
			if err := checkHistory(hist.events()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
