// Package lockservice implements Aerie's distributed concurrency control
// (§5.1, §5.3.4): a centralized lock service executing in the TFS that
// issues multiple-reader/single-writer locks named by 64-bit IDs, plus the
// client-side clerk that caches grants, issues local lightweight mutexes to
// threads, answers descendant requests under hierarchical locks, and
// responds to revocation callbacks.
//
// Lock classes follow the paper's three modes per lock — explicit (covers
// one object), hierarchical (covers the object and its descendants), and
// intent (a descendant may be locked) — each in read or write mode. For
// conflict detection these collapse onto the classic granular-locking
// classes (Gray et al.): IS, IX, S, X; the hierarchical property is carried
// on the grant so the clerk can cover descendants locally and the TFS can
// validate that a batched update was covered by a write lock.
//
// Every grant carries a lease that the clerk renews; a client that stops
// renewing (crashed or unresponsive) implicitly releases its locks, which
// bounds denial of service (§5.1). Lease expiry also implicitly discards
// the client's unshipped metadata updates: the service fires an expiry hook
// the TFS uses to drop that client's state.
//
// When the trusted service is sharded, the lock table is partitioned into
// domains (Config.Domains/DomainOf): each shard's objects map to their own
// domain with an independent mutex and expiry registry, so lock traffic on
// one shard never contends on another shard's table. The wire protocol is
// unchanged — domains are a service-internal striping, invisible to clerks.
package lockservice

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aerie-fs/aerie/internal/obs"
)

// Class is a lock class in the granular-locking lattice.
type Class uint8

// Lock classes.
const (
	// IS: intent to read a descendant.
	IS Class = iota
	// IX: intent to write a descendant.
	IX
	// S: shared (read) on this object (and descendants if hierarchical).
	S
	// X: exclusive (write) on this object (and descendants if
	// hierarchical).
	X
)

func (c Class) String() string {
	switch c {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case X:
		return "X"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// compatible reports whether two classes held by different clients may
// coexist on the same lock.
func compatible(a, b Class) bool {
	switch a {
	case IS:
		return b != X
	case IX:
		return b == IS || b == IX
	case S:
		return b == IS || b == S
	case X:
		return false
	}
	return false
}

// covers reports whether holding `have` satisfies a request for `want` by
// the same client.
func covers(have, want Class) bool {
	if have == want {
		return true
	}
	switch have {
	case X:
		return true
	case S:
		return want == IS
	case IX:
		return want == IS
	}
	return false
}

// merge returns the weakest class that covers both.
func merge(a, b Class) Class {
	if covers(a, b) {
		return a
	}
	if covers(b, a) {
		return b
	}
	// S+IX (and any other incomparable pair) escalate to X.
	return X
}

// Errors.
var (
	ErrTimeout  = errors.New("lockservice: acquire timed out")
	ErrNotHeld  = errors.New("lockservice: lock not held")
	ErrShutdown = errors.New("lockservice: service shut down")

	// errWithdrawn fails a queued request whose client released the lock
	// meanwhile: a release gives up the client's grant and its requests.
	errWithdrawn = errors.New("lockservice: request withdrawn by the client's release")
)

// RevokeFn is called (without internal locks held) to ask a holder to
// release a lock that a conflicting request needs. Delivery is best-effort;
// an unresponsive holder loses the lock at lease expiry.
type RevokeFn func(holder uint64, lockID uint64, wanted Class)

// Config tunes the service.
type Config struct {
	// Lease is the grant lease duration; clerks renew at Lease/3.
	Lease time.Duration
	// AcquireTimeout bounds how long Acquire waits before ErrTimeout.
	AcquireTimeout time.Duration
	// Revoke delivers revocation callbacks; may be nil.
	Revoke RevokeFn
	// OnExpire is invoked when a client loses a grant to lease expiry;
	// may be nil. The TFS uses it to discard the client's unshipped
	// batched updates. With multiple domains it may fire once per domain
	// holding expired grants; the hook must be idempotent.
	OnExpire func(client uint64)
	// Obs, when non-nil, receives the lock.wait histogram (time spent in
	// Acquire) and lock.acquires / lock.contended / lock.revocations /
	// lock.expirations counters.
	Obs *obs.Sink

	// Domains partitions the lock table: requests on locks in different
	// domains never touch the same mutex or expiry registry. 0 or 1 keeps
	// a single table. The sharded TFS passes one domain per shard.
	Domains int
	// DomainOf maps a lock ID to its domain in [0, Domains). nil (or any
	// out-of-range result) maps to domain 0; the TFS supplies the shard
	// placement table here so each shard's locks land in its own domain.
	DomainOf func(id uint64) int
}

// holder is one client's grant on a lock. A lock's holders are a short
// slice inside its lockState, so a grant allocates nothing.
type holder struct {
	client   uint64
	class    Class
	hier     bool
	revoking bool // a revoke callback for this grant has been sent
	expiry   time.Time
}

// request is a queued Acquire. It waits in its lock's queue until whoever
// frees the lock grants it on the waiter's behalf, its AcquireTimeout
// passes, or the service shuts down; the outcome arrives on done. The
// waiting goroutine hands the request back to its domain once it has the
// outcome, so requests (and their channels) are reused, and only after
// nobody can still see them.
type request struct {
	client   uint64
	class    Class
	hier     bool
	deadline time.Time
	done     chan error // buffered: the one send per wait never blocks
}

// lockState is one lock: its holders and its FIFO queue of requests.
type lockState struct {
	holders []holder
	queue   []*request
}

func (st *lockState) find(client uint64) int {
	for i := range st.holders {
		if st.holders[i].client == client {
			return i
		}
	}
	return -1
}

func (st *lockState) removeHolder(i int) {
	last := len(st.holders) - 1
	st.holders[i] = st.holders[last]
	st.holders = st.holders[:last]
}

// grantable reports whether client may hold class — merged with what it
// already holds — beside the lock's other holders, and the merged class.
func (st *lockState) grantable(client uint64, class Class) (Class, bool) {
	want := class
	if i := st.find(client); i >= 0 {
		want = merge(st.holders[i].class, class)
	}
	for i := range st.holders {
		if h := &st.holders[i]; h.client != client && !compatible(want, h.class) {
			return want, false
		}
	}
	return want, true
}

// clientExpiry tracks a client's grants across all locks of one domain so
// lease expiry fires the OnExpire hook exactly once per expiry episode (per
// domain) — not once per lock, and not concurrently from racing Acquires.
type clientExpiry struct {
	grants int
	// fired marks that OnExpire was claimed for the current episode; a
	// new grant opens a new episode.
	fired bool
}

// maxFree bounds each of a domain's free lists. The working set is far
// smaller: in the timed phase of the five benchmark workloads (DESIGN.md
// §13.3) a domain never had more than 2 requests out at once (one per
// client), and no lock state went idle at all, as clients keep their
// grants cached. The bound matters when a domain drains, as when a
// client unmounts and thousands of states go idle at once: it keeps at
// most 64 of each, a few KiB.
const maxFree = 64

// domain is one stripe of the lock table. All state a request touches lives
// in the domain its lock ID maps to; the only cross-domain operations are
// the whole-client sweeps (ReleaseAll, renew, ExpireClient, Shutdown).
type domain struct {
	mu       sync.Mutex
	locks    map[uint64]*lockState
	byClient map[uint64]clientExpiry
	down     bool
	queued   int // requests waiting in this domain's queues

	// Idle lock states and finished requests, kept for reuse: a contended
	// hand-off allocates neither.
	freeStates []*lockState
	freeReqs   []*request

	// timer fires at timerAt, no later than the earliest deadline a waiter
	// in this domain depends on: a queued request's AcquireTimeout or the
	// lease of a holder it waits behind. A zero timerAt is unarmed.
	timer   *time.Timer
	timerAt time.Time
}

// revocation is one revoke callback owed to a holder.
type revocation struct {
	holder, id uint64
	want       Class
}

// owed collects what a section under d.mu leaves for after the unlock:
// revocations to send and the clients whose OnExpire hook it claimed. It
// is passed and returned by value: through a pointer, escape analysis
// would move the caller's stack array behind revs to the heap.
type owed struct {
	revs    []revocation
	expired []uint64
}

// Service is the lock server. All methods are safe for concurrent use.
//
// Each lock keeps a FIFO queue of requests that could not be granted on
// arrival. Whoever frees a lock — a release, a lease expiry, a timeout of
// the head — grants the queue's head, and every compatible request behind
// it, on the waiters' behalf, so a waiter wakes already holding the lock.
// A newcomer is queued behind any waiter, and each holder that conflicts
// with a queued request is asked once to release. One timer per domain
// drives both lease expiry of the holders waiters depend on and the
// waiters' own timeouts.
type Service struct {
	cfg  Config
	doms []*domain

	// Stats (updated atomically).
	acquires    int64
	revocations int64
	expirations int64

	// Metrics resolved once at construction; all nil when cfg.Obs is nil.
	obsWait        *obs.Histogram
	obsAcquires    *obs.Counter
	obsContended   *obs.Counter
	obsRevocations *obs.Counter
	obsExpirations *obs.Counter

	// watch, when set, sees every change to a queue or a holder set, in
	// the order it happens, under the lock's domain mutex. Only the
	// package's history tests set it.
	watch func(ev event)
}

// event is one change watch sees.
type event struct {
	kind       eventKind
	client, id uint64
	class      Class // evQueue: requested; evGrant: granted (merged); evRevoke: wanted
}

type eventKind uint8

const (
	evQueue    eventKind = iota // a request joined the queue
	evGrant                     // a request was granted on arrival
	evGrantQ                    // the queue's head was granted
	evTimeout                   // a queued request timed out
	evWithdraw                  // a queued request went with its client's release
	evRevoke                    // a holder was asked to release
	evRelease                   // a holder released
	evNotHeld                   // a release named a lock the client does not hold
	evExpire                    // a holder's lease lapsed
)

func (s *Service) note(kind eventKind, client, id uint64, class Class) {
	if s.watch != nil {
		s.watch(event{kind: kind, client: client, id: id, class: class})
	}
}

// New creates a lock service.
func New(cfg Config) *Service {
	if cfg.Lease == 0 {
		cfg.Lease = 2 * time.Second
	}
	if cfg.AcquireTimeout == 0 {
		cfg.AcquireTimeout = 10 * time.Second
	}
	n := cfg.Domains
	if n < 1 {
		n = 1
	}
	doms := make([]*domain, n)
	for i := range doms {
		doms[i] = &domain{
			locks:    make(map[uint64]*lockState),
			byClient: make(map[uint64]clientExpiry),
		}
	}
	s := &Service{
		cfg:            cfg,
		doms:           doms,
		obsWait:        cfg.Obs.Histogram("lock.wait"),
		obsAcquires:    cfg.Obs.Counter("lock.acquires"),
		obsContended:   cfg.Obs.Counter("lock.contended"),
		obsRevocations: cfg.Obs.Counter("lock.revocations"),
		obsExpirations: cfg.Obs.Counter("lock.expirations"),
	}
	for _, d := range doms {
		d.timer = time.AfterFunc(time.Hour, func() { s.tick(d) })
		d.timer.Stop()
	}
	return s
}

// dom returns the domain owning lock id.
func (s *Service) dom(id uint64) *domain {
	if len(s.doms) == 1 || s.cfg.DomainOf == nil {
		return s.doms[0]
	}
	k := s.cfg.DomainOf(id)
	if k < 0 || k >= len(s.doms) {
		k = 0
	}
	return s.doms[k]
}

func (d *domain) state(id uint64) *lockState {
	st := d.locks[id]
	if st == nil {
		if n := len(d.freeStates); n > 0 {
			st = d.freeStates[n-1]
			d.freeStates = d.freeStates[:n-1]
		} else {
			st = &lockState{}
		}
		d.locks[id] = st
	}
	return st
}

// dropIfIdleLocked removes st from the table once nobody holds or waits
// for it, keeping it for reuse.
func (d *domain) dropIfIdleLocked(id uint64, st *lockState) {
	if len(st.holders) > 0 || len(st.queue) > 0 {
		return
	}
	delete(d.locks, id)
	if len(d.freeStates) < maxFree {
		d.freeStates = append(d.freeStates, st)
	}
}

func (d *domain) newRequestLocked() *request {
	if n := len(d.freeReqs); n > 0 {
		r := d.freeReqs[n-1]
		d.freeReqs = d.freeReqs[:n-1]
		return r
	}
	return &request{done: make(chan error, 1)}
}

// dequeueLocked takes st.queue[i] out of the queue, keeping the order of
// the rest.
func (d *domain) dequeueLocked(st *lockState, i int) {
	last := len(st.queue) - 1
	copy(st.queue[i:], st.queue[i+1:])
	st.queue[last] = nil
	st.queue = st.queue[:last]
	d.queued--
}

// grantLocked makes client a holder of the lock in class want (already
// merged with any class it holds), renewing its lease.
func (s *Service) grantLocked(d *domain, st *lockState, client uint64, want Class, hier bool, now time.Time) {
	if i := st.find(client); i >= 0 {
		h := &st.holders[i]
		h.class = want
		h.hier = h.hier || hier
		h.expiry = now.Add(s.cfg.Lease)
		h.revoking = false
		if ce, ok := d.byClient[client]; ok {
			// A live re-acquire opens a new expiry episode.
			ce.fired = false
			d.byClient[client] = ce
		}
	} else {
		st.holders = append(st.holders, holder{client: client, class: want, hier: hier, expiry: now.Add(s.cfg.Lease)})
		ce := d.byClient[client]
		ce.grants++
		ce.fired = false
		d.byClient[client] = ce
	}
	atomic.AddInt64(&s.acquires, 1)
	s.obsAcquires.Inc()
}

// grantQueueLocked grants st's queue from the head for as long as the head
// is compatible with the holders, then asks the holders that block what is
// left to release, and arms the domain timer for it.
func (s *Service) grantQueueLocked(d *domain, id uint64, st *lockState, now time.Time, o owed) owed {
	for len(st.queue) > 0 {
		r := st.queue[0]
		want, ok := st.grantable(r.client, r.class)
		if !ok {
			break
		}
		s.grantLocked(d, st, r.client, want, r.hier, now)
		s.note(evGrantQ, r.client, id, want)
		d.dequeueLocked(st, 0)
		r.done <- nil
	}
	if len(st.queue) > 0 {
		o = s.revokeLocked(id, st, o)
		s.armLocked(d, st, now)
	}
	return o
}

// revokeLocked marks every holder that conflicts with a queued request and
// has not been asked yet, and owes it one revoke callback. The revocation
// counters are bumped here, under d.mu: the callbacks run unlocked (they
// re-enter clerk state), and bare increments out there race.
func (s *Service) revokeLocked(id uint64, st *lockState, o owed) owed {
	for _, r := range st.queue {
		want, _ := st.grantable(r.client, r.class)
		for i := range st.holders {
			h := &st.holders[i]
			if h.client == r.client || h.revoking || compatible(want, h.class) {
				continue
			}
			h.revoking = true
			s.note(evRevoke, h.client, id, want)
			if s.cfg.Revoke != nil {
				atomic.AddInt64(&s.revocations, 1)
				s.obsRevocations.Inc()
				o.revs = append(o.revs, revocation{holder: h.client, id: id, want: want})
			}
		}
	}
	return o
}

// armLocked makes the domain timer fire no later than the earliest
// deadline st's waiters depend on.
func (s *Service) armLocked(d *domain, st *lockState, now time.Time) {
	at := st.queue[0].deadline
	for _, r := range st.queue[1:] {
		if r.deadline.Before(at) {
			at = r.deadline
		}
	}
	for i := range st.holders {
		if e := st.holders[i].expiry; e.Before(at) {
			at = e
		}
	}
	if !d.timerAt.IsZero() && !at.Before(d.timerAt) {
		return
	}
	d.timerAt = at
	d.timer.Reset(at.Sub(now))
}

// tick runs when the domain timer fires: it expires the lapsed holders of
// every lock somebody waits for, times out the requests past their
// deadline, grants what that frees, and re-arms for what is left.
func (s *Service) tick(d *domain) {
	var o owed
	now := time.Now()
	d.mu.Lock()
	d.timerAt = time.Time{}
	if !d.down && d.queued > 0 {
		for id, st := range d.locks {
			if len(st.queue) == 0 {
				continue
			}
			o = s.reapExpiredLocked(d, st, now, o)
			for i := 0; i < len(st.queue); {
				r := st.queue[i]
				if now.Before(r.deadline) {
					i++
					continue
				}
				s.note(evTimeout, r.client, id, r.class)
				d.dequeueLocked(st, i)
				r.done <- ErrTimeout
			}
			o = s.grantQueueLocked(d, id, st, now, o)
			d.dropIfIdleLocked(id, st)
		}
	}
	d.mu.Unlock()
	s.deliver(o)
}

// reapExpiredLocked looks for holders of st with expired leases. Each one
// triggers a domain-wide sweep of that client's expired grants (a client
// that stopped renewing loses all its leases together, not just the ones
// on locks somebody happens to touch). The exactly-once OnExpire claim
// happens in the sweep, under the mutex, so racing Acquires can never both
// fire for the same client; the claimed clients go to o.expired.
func (s *Service) reapExpiredLocked(d *domain, st *lockState, now time.Time, o owed) owed {
	for {
		i := 0
		for i < len(st.holders) && !now.After(st.holders[i].expiry) {
			i++
		}
		if i == len(st.holders) {
			return o
		}
		client := st.holders[i].client
		var fire bool
		if o, fire = s.sweepClientLocked(d, client, now, st, o); fire {
			o.expired = append(o.expired, client)
		}
	}
}

// sweepClientLocked removes every expired grant client holds, on any lock
// of domain d, grants the queues that frees, and reports whether the
// expiry hook should fire. keep (may be nil) is a lockState the caller
// still references; it stays in d.locks even if emptied. The hook is
// claimed at most once per expiry episode: a new grant after the claim
// opens a new episode.
func (s *Service) sweepClientLocked(d *domain, client uint64, now time.Time, keep *lockState, o owed) (owed, bool) {
	removed := 0
	for id, st := range d.locks {
		i := st.find(client)
		if i < 0 || !now.After(st.holders[i].expiry) {
			continue
		}
		s.note(evExpire, client, id, st.holders[i].class)
		st.removeHolder(i)
		removed++
		atomic.AddInt64(&s.expirations, 1)
		s.obsExpirations.Inc()
		o = s.grantQueueLocked(d, id, st, now, o)
		if st != keep {
			d.dropIfIdleLocked(id, st)
		}
	}
	if removed == 0 {
		return o, false
	}
	ce, ok := d.byClient[client]
	if !ok {
		return o, false
	}
	ce.grants -= removed
	fire := !ce.fired
	ce.fired = true
	if ce.grants <= 0 {
		delete(d.byClient, client)
	} else {
		d.byClient[client] = ce
	}
	return o, fire
}

// ExpireClient force-expires every grant held by client, as if its lease
// had lapsed, firing OnExpire (at most once per domain holding grants) if
// it held anything. The crash-simulation harness uses it to model a crashed
// client whose lease runs out without waiting wall-clock lease time.
func (s *Service) ExpireClient(client uint64) {
	for _, d := range s.doms {
		var o owed
		d.mu.Lock()
		// A force-expiry treats every grant as already past its lease.
		for _, st := range d.locks {
			if i := st.find(client); i >= 0 {
				st.holders[i].expiry = time.Time{}
			}
		}
		o, fire := s.sweepClientLocked(d, client, time.Now(), nil, o)
		if fire {
			o.expired = append(o.expired, client)
		}
		d.mu.Unlock()
		s.deliver(o)
	}
}

// deliver runs what a locked section owed, with no domain mutex held:
// expiry hooks first, then revocations.
func (s *Service) deliver(o owed) {
	if s.cfg.OnExpire != nil {
		for _, c := range o.expired {
			s.cfg.OnExpire(c)
		}
	}
	for _, r := range o.revs {
		s.cfg.Revoke(r.holder, r.id, r.want)
	}
}

// Acquire grants client the lock id in the given class (hier marks the
// grant as hierarchical). It blocks — revoking conflicting holders — until
// granted, the configured timeout elapses, or the service shuts down.
// Re-acquiring merges classes (upgrade), renewing the lease. A request
// that cannot be granted at once, or that arrives while others wait, joins
// the lock's queue and is granted in queue order.
func (s *Service) Acquire(client uint64, id uint64, class Class, hier bool) error {
	obsT0 := s.obsWait.StartTimer()
	defer s.obsWait.ObserveSince(obsT0)
	d := s.dom(id)
	var revs [4]revocation
	o := owed{revs: revs[:0]}
	now := time.Now()
	d.mu.Lock()
	if d.down {
		d.mu.Unlock()
		return ErrShutdown
	}
	st := d.state(id)
	o = s.reapExpiredLocked(d, st, now, o)
	// A newcomer never overtakes a waiter. A holder's re-acquire or
	// upgrade is judged against the other holders alone: it already holds
	// what the queue waits for.
	if len(st.queue) == 0 || st.find(client) >= 0 {
		if want, ok := st.grantable(client, class); ok {
			s.grantLocked(d, st, client, want, hier, now)
			s.note(evGrant, client, id, want)
			if len(st.queue) > 0 {
				o = s.revokeLocked(id, st, o)
			}
			d.mu.Unlock()
			s.deliver(o)
			return nil
		}
	}
	r := d.newRequestLocked()
	r.client, r.class, r.hier = client, class, hier
	r.deadline = now.Add(s.cfg.AcquireTimeout)
	st.queue = append(st.queue, r)
	d.queued++
	s.note(evQueue, client, id, class)
	s.obsContended.Inc()
	o = s.revokeLocked(id, st, o)
	s.armLocked(d, st, now)
	d.mu.Unlock()
	s.deliver(o)
	err := <-r.done
	d.mu.Lock()
	if len(d.freeReqs) < maxFree {
		d.freeReqs = append(d.freeReqs, r)
	}
	d.mu.Unlock()
	if err == ErrTimeout {
		return fmt.Errorf("%w: lock %#x class %v", ErrTimeout, id, class)
	}
	return err
}

// Release drops client's grant on id, withdraws any request of the client's
// still queued for it (an upgrade's), and grants the queue what that frees.
func (s *Service) Release(client uint64, id uint64) error {
	d := s.dom(id)
	var revs [4]revocation
	o := owed{revs: revs[:0]}
	d.mu.Lock()
	st := d.locks[id]
	i := -1
	if st != nil {
		i = st.find(client)
	}
	if i < 0 {
		s.note(evNotHeld, client, id, 0)
		d.mu.Unlock()
		return fmt.Errorf("%w: client %d lock %#x", ErrNotHeld, client, id)
	}
	s.note(evRelease, client, id, st.holders[i].class)
	st.removeHolder(i)
	dropGrantLocked(d, client, 1)
	for i := 0; i < len(st.queue); {
		r := st.queue[i]
		if r.client != client {
			i++
			continue
		}
		s.note(evWithdraw, client, id, r.class)
		d.dequeueLocked(st, i)
		r.done <- errWithdrawn
	}
	if len(st.queue) > 0 {
		o = s.grantQueueLocked(d, id, st, time.Now(), o)
	}
	d.dropIfIdleLocked(id, st)
	d.mu.Unlock()
	s.deliver(o)
	return nil
}

// dropGrantLocked decrements client's tracked grant count after n voluntary
// releases (no expiry hook involved).
func dropGrantLocked(d *domain, client uint64, n int) {
	ce, ok := d.byClient[client]
	if !ok {
		return
	}
	ce.grants -= n
	if ce.grants <= 0 {
		delete(d.byClient, client)
	} else {
		d.byClient[client] = ce
	}
}

// ReleaseAll drops every grant held by client (disconnect path).
func (s *Service) ReleaseAll(client uint64) {
	for _, d := range s.doms {
		var o owed
		d.mu.Lock()
		now := time.Now()
		dropped := 0
		for id, st := range d.locks {
			if i := st.find(client); i >= 0 {
				s.note(evRelease, client, id, st.holders[i].class)
				st.removeHolder(i)
				dropped++
				o = s.grantQueueLocked(d, id, st, now, o)
				d.dropIfIdleLocked(id, st)
			}
		}
		if dropped > 0 {
			dropGrantLocked(d, client, dropped)
		}
		d.mu.Unlock()
		s.deliver(o)
	}
}

// renew extends the lease on all grants held by client.
func (s *Service) renew(client uint64) {
	now := time.Now()
	for _, d := range s.doms {
		d.mu.Lock()
		for _, st := range d.locks {
			if i := st.find(client); i >= 0 && !now.After(st.holders[i].expiry) {
				st.holders[i].expiry = now.Add(s.cfg.Lease)
			}
		}
		d.mu.Unlock()
	}
}

// Holds reports whether client currently holds id with a class covering
// class, and whether that grant is hierarchical. Expired grants don't count.
func (s *Service) Holds(client uint64, id uint64, class Class) (held, hier bool) {
	now := time.Now()
	d := s.dom(id)
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.locks[id]
	if st == nil {
		return false, false
	}
	i := st.find(client)
	if i < 0 || now.After(st.holders[i].expiry) {
		return false, false
	}
	h := st.holders[i]
	return covers(h.class, class), h.hier
}

// Shutdown fails every queued request and all future acquires.
func (s *Service) Shutdown() {
	for _, d := range s.doms {
		d.mu.Lock()
		d.down = true
		for _, st := range d.locks {
			for len(st.queue) > 0 {
				r := st.queue[0]
				d.dequeueLocked(st, 0)
				r.done <- ErrShutdown
			}
		}
		d.timer.Stop()
		d.mu.Unlock()
	}
}
