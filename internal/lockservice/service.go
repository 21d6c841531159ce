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

type grant struct {
	class    Class
	hier     bool
	expiry   time.Time
	revoking bool // a revoke callback for this grant has been sent
}

type lockState struct {
	holders map[uint64]*grant
	waiters []chan struct{}
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

// domain is one stripe of the lock table. All state a request touches lives
// in the domain its lock ID maps to; the only cross-domain operations are
// the whole-client sweeps (ReleaseAll, renew, ExpireClient, Shutdown).
type domain struct {
	mu       sync.Mutex
	locks    map[uint64]*lockState
	byClient map[uint64]*clientExpiry
	down     bool
}

// Service is the lock server. All methods are safe for concurrent use.
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
			byClient: make(map[uint64]*clientExpiry),
		}
	}
	return &Service{
		cfg:            cfg,
		doms:           doms,
		obsWait:        cfg.Obs.Histogram("lock.wait"),
		obsAcquires:    cfg.Obs.Counter("lock.acquires"),
		obsContended:   cfg.Obs.Counter("lock.contended"),
		obsRevocations: cfg.Obs.Counter("lock.revocations"),
		obsExpirations: cfg.Obs.Counter("lock.expirations"),
	}
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
		st = &lockState{holders: make(map[uint64]*grant)}
		d.locks[id] = st
	}
	return st
}

// reapExpiredLocked scans st for holders with expired leases. Each one
// triggers a domain-wide sweep of that client's expired grants (a client
// that stopped renewing loses all its leases together, not just the ones
// on locks somebody happens to touch). Returns the clients whose OnExpire
// hook the caller must fire after releasing d.mu; the exactly-once claim
// happens here, under the mutex, so racing Acquires can never both fire
// for the same client.
func (s *Service) reapExpiredLocked(d *domain, st *lockState, now time.Time) []uint64 {
	var fire []uint64
	for client, g := range st.holders {
		if now.After(g.expiry) {
			if s.sweepClientLocked(d, client, now, st) {
				fire = append(fire, client)
			}
		}
	}
	return fire
}

// sweepClientLocked removes every expired grant client holds, on any lock
// of domain d, and reports whether the expiry hook should fire. keep (may
// be nil) is a lockState the caller still references; it is never deleted
// from d.locks even if emptied. The hook is claimed at most once per expiry
// episode: a new grant after the claim opens a new episode.
func (s *Service) sweepClientLocked(d *domain, client uint64, now time.Time, keep *lockState) bool {
	removed := 0
	for id, st := range d.locks {
		g := st.holders[client]
		if g == nil || !now.After(g.expiry) {
			continue
		}
		delete(st.holders, client)
		removed++
		atomic.AddInt64(&s.expirations, 1)
		s.obsExpirations.Inc()
		wakeLocked(st)
		if st != keep && len(st.holders) == 0 && len(st.waiters) == 0 {
			delete(d.locks, id)
		}
	}
	if removed == 0 {
		return false
	}
	ce := d.byClient[client]
	if ce == nil {
		return false
	}
	ce.grants -= removed
	fire := !ce.fired
	ce.fired = true
	if ce.grants <= 0 {
		delete(d.byClient, client)
	}
	return fire
}

// ExpireClient force-expires every grant held by client, as if its lease
// had lapsed, firing OnExpire (at most once per domain holding grants) if
// it held anything. The crash-simulation harness uses it to model a crashed
// client whose lease runs out without waiting wall-clock lease time.
func (s *Service) ExpireClient(client uint64) {
	var fire []uint64
	for _, d := range s.doms {
		d.mu.Lock()
		// A force-expiry treats every grant as already past its lease.
		for _, st := range d.locks {
			if g := st.holders[client]; g != nil {
				g.expiry = time.Time{}
			}
		}
		if s.sweepClientLocked(d, client, time.Now(), nil) {
			fire = append(fire, client)
		}
		d.mu.Unlock()
	}
	s.fireExpiry(fire)
}

func wakeLocked(st *lockState) {
	for _, ch := range st.waiters {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Acquire grants client the lock id in the given class (hier marks the
// grant as hierarchical). It blocks — revoking conflicting holders — until
// granted, the configured timeout elapses, or the service shuts down.
// Re-acquiring merges classes (upgrade), renewing the lease.
func (s *Service) Acquire(client uint64, id uint64, class Class, hier bool) error {
	obsT0 := s.obsWait.StartTimer()
	defer func() { s.obsWait.ObserveSince(obsT0) }()
	d := s.dom(id)
	deadline := time.Now().Add(s.cfg.AcquireTimeout)
	var waiter chan struct{}
	var poll *time.Timer // one timer for every turn of the wait loop
	defer func() {
		if waiter != nil {
			d.mu.Lock()
			removeWaiterLocked(d, id, waiter)
			d.mu.Unlock()
		}
		if poll != nil {
			poll.Stop()
		}
	}()
	for {
		now := time.Now()
		d.mu.Lock()
		if d.down {
			d.mu.Unlock()
			return ErrShutdown
		}
		st := d.state(id)
		expired := s.reapExpiredLocked(d, st, now)
		want := class
		if g := st.holders[client]; g != nil {
			want = merge(g.class, class)
		}
		var conflicts []uint64
		for other, g := range st.holders {
			if other == client {
				continue
			}
			if !compatible(want, g.class) {
				if !g.revoking {
					g.revoking = true
					conflicts = append(conflicts, other)
				} else {
					conflicts = append(conflicts, 0) // already asked; just wait
				}
			}
		}
		if len(conflicts) == 0 {
			g := st.holders[client]
			if g == nil {
				g = &grant{}
				st.holders[client] = g
				ce := d.byClient[client]
				if ce == nil {
					ce = &clientExpiry{}
					d.byClient[client] = ce
				}
				ce.grants++
				ce.fired = false
			} else if ce := d.byClient[client]; ce != nil {
				// A live re-acquire opens a new expiry episode.
				ce.fired = false
			}
			g.class = want
			g.hier = g.hier || hier
			g.expiry = now.Add(s.cfg.Lease)
			g.revoking = false
			atomic.AddInt64(&s.acquires, 1)
			s.obsAcquires.Inc()
			d.mu.Unlock()
			s.fireExpiry(expired)
			return nil
		}
		if waiter == nil {
			waiter = make(chan struct{}, 1)
			s.obsContended.Inc()
		}
		st.waiters = append(st.waiters, waiter)
		if s.cfg.Revoke != nil {
			// Count while still under d.mu; the callbacks below must run
			// unlocked (they re-enter clerk state), and bare counter
			// increments out there race between dispatch goroutines.
			for _, holder := range conflicts {
				if holder != 0 {
					atomic.AddInt64(&s.revocations, 1)
					s.obsRevocations.Inc()
				}
			}
		}
		d.mu.Unlock()
		s.fireExpiry(expired)
		for _, holder := range conflicts {
			if holder != 0 && s.cfg.Revoke != nil {
				s.cfg.Revoke(holder, id, want)
			}
		}
		// Wait for a release/expiry signal, polling so lease expiry of a
		// dead holder is eventually observed.
		every := s.cfg.Lease / 4
		if every <= 0 || every > 50*time.Millisecond {
			every = 50 * time.Millisecond
		}
		if poll == nil {
			poll = time.NewTimer(every)
		} else {
			if !poll.Stop() {
				select { // drop a tick the last turn did not consume
				case <-poll.C:
				default:
				}
			}
			poll.Reset(every)
		}
		select {
		case <-waiter:
		case <-poll.C:
		}
		d.mu.Lock()
		removeWaiterLocked(d, id, waiter)
		d.mu.Unlock()
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: lock %#x class %v", ErrTimeout, id, class)
		}
	}
}

func removeWaiterLocked(d *domain, id uint64, ch chan struct{}) {
	st := d.locks[id]
	if st == nil {
		return
	}
	for i, w := range st.waiters {
		if w == ch {
			st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
			return
		}
	}
}

func (s *Service) fireExpiry(clients []uint64) {
	if s.cfg.OnExpire == nil {
		return
	}
	for _, c := range clients {
		s.cfg.OnExpire(c)
	}
}

// Release drops client's grant on id.
func (s *Service) Release(client uint64, id uint64) error {
	d := s.dom(id)
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.locks[id]
	if st == nil || st.holders[client] == nil {
		return fmt.Errorf("%w: client %d lock %#x", ErrNotHeld, client, id)
	}
	delete(st.holders, client)
	dropGrantLocked(d, client, 1)
	wakeLocked(st)
	if len(st.holders) == 0 && len(st.waiters) == 0 {
		delete(d.locks, id)
	}
	return nil
}

// dropGrantLocked decrements client's tracked grant count after n voluntary
// releases (no expiry hook involved).
func dropGrantLocked(d *domain, client uint64, n int) {
	ce := d.byClient[client]
	if ce == nil {
		return
	}
	ce.grants -= n
	if ce.grants <= 0 {
		delete(d.byClient, client)
	}
}

// ReleaseAll drops every grant held by client (disconnect path).
func (s *Service) ReleaseAll(client uint64) {
	for _, d := range s.doms {
		d.mu.Lock()
		dropped := 0
		for id, st := range d.locks {
			if st.holders[client] != nil {
				delete(st.holders, client)
				dropped++
				wakeLocked(st)
				if len(st.holders) == 0 && len(st.waiters) == 0 {
					delete(d.locks, id)
				}
			}
		}
		if dropped > 0 {
			dropGrantLocked(d, client, dropped)
		}
		d.mu.Unlock()
	}
}

// renew extends the lease on all grants held by client.
func (s *Service) renew(client uint64) {
	now := time.Now()
	for _, d := range s.doms {
		d.mu.Lock()
		for _, st := range d.locks {
			if g := st.holders[client]; g != nil && !now.After(g.expiry) {
				g.expiry = now.Add(s.cfg.Lease)
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
	g := st.holders[client]
	if g == nil || now.After(g.expiry) {
		return false, false
	}
	return covers(g.class, class), g.hier
}

// Shutdown fails all pending and future acquires.
func (s *Service) Shutdown() {
	for _, d := range s.doms {
		d.mu.Lock()
		d.down = true
		for _, st := range d.locks {
			wakeLocked(st)
		}
		d.mu.Unlock()
	}
}
