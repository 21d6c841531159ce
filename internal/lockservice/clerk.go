package lockservice

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/wire"
)

// Clerk is the client-side lock agent (§5.1). It acquires global locks from
// the service over RPC, caches grants after local release (so repeated
// access by the same process stays local), issues lightweight local
// mutexes to the process's threads, answers requests for descendants of a
// hierarchical grant without further RPCs, and de-escalates in response to
// revocation callbacks: when a conflicting request arrives, the clerk stops
// admitting new local users, drains current ones, runs the registered
// flush hook (shipping batched metadata updates), and releases the global
// lock.
type Clerk struct {
	rc rpc.Client

	mu      sync.Mutex
	entries map[uint64]*entry
	closed  bool

	onRelease func(lockID uint64)
	tracer    *costmodel.Tracer

	// Metrics resolved by SetObs; nil (free no-ops) until then.
	obsLocalHits   *obs.Counter
	obsGlobalCalls *obs.Counter

	renewStop chan struct{}
	renewWG   sync.WaitGroup

	// Stats. Atomic: each is bumped under a per-entry lock, and two entries'
	// holders run at once.
	LocalHits   atomic.Int64
	GlobalCalls atomic.Int64
	SubGrants   atomic.Int64
}

type entry struct {
	id uint64

	mu   sync.Mutex
	cond *sync.Cond

	has      bool  // global grant held
	class    Class // global class
	hier     bool
	dead     bool // removed from the clerk; retry lookup
	dropping bool // a teardown is in progress
	fetching bool // a global acquire RPC is in flight

	readers  int // local shared holds (S, IS, IX)
	writer   bool
	users    int // all local holds including sub-lock covers
	revoke   bool
	lastUse  time.Time
	revGoing bool // a revocation drain goroutine is active

	subs map[uint64]*subLock
}

type subLock struct {
	readers int
	writer  bool
}

// ClerkConfig tunes a clerk.
type ClerkConfig struct {
	// RenewEvery starts a background lease-renewal loop when nonzero.
	RenewEvery time.Duration
}

// NewClerk creates a clerk speaking to the lock service through rc.
// Route CallbackRevoke payloads to HandleCallback.
func NewClerk(rc rpc.Client, cfg ClerkConfig) *Clerk {
	c := &Clerk{rc: rc, entries: make(map[uint64]*entry)}
	if cfg.RenewEvery > 0 {
		c.renewStop = make(chan struct{})
		c.renewWG.Add(1)
		go func() {
			defer c.renewWG.Done()
			t := time.NewTicker(cfg.RenewEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					_, _ = c.rc.Call(MethodRenew, nil)
				case <-c.renewStop:
					return
				}
			}
		}()
	}
	return c
}

// OnRelease registers the hook run just before a global lock is released
// (voluntarily or by revocation). libFS ships batched metadata updates
// here; PXFS flushes its path-name cache.
func (c *Clerk) OnRelease(fn func(lockID uint64)) { c.onRelease = fn }

// SetTracer attaches a phase tracer recording lock-hold intervals for the
// scalability simulator (single-threaded capture runs only).
func (c *Clerk) SetTracer(t *costmodel.Tracer) { c.tracer = t }

// SetObs attaches an observability sink: lock.clerk.local_hits counts
// acquires satisfied by the local grant cache, lock.clerk.global_calls
// counts round-trips to the lock service. Call before first use.
func (c *Clerk) SetObs(sink *obs.Sink) {
	c.obsLocalHits = sink.Counter("lock.clerk.local_hits")
	c.obsGlobalCalls = sink.Counter("lock.clerk.global_calls")
}

func lockResource(id uint64) string { return fmt.Sprintf("lock:%x", id) }

func traceMode(class Class) costmodel.ResourceMode {
	if class == X {
		return costmodel.Exclusive
	}
	return costmodel.Shared
}

func (c *Clerk) entryFor(id uint64) *entry {
	for {
		c.mu.Lock()
		e := c.entries[id]
		if e == nil {
			e = &entry{id: id, subs: make(map[uint64]*subLock)}
			e.cond = sync.NewCond(&e.mu)
			c.entries[id] = e
		}
		c.mu.Unlock()
		e.mu.Lock()
		if !e.dead {
			return e // returned with e.mu held
		}
		e.mu.Unlock()
	}
}

// Acquire takes lock id in class (hier requests a hierarchical grant) and
// admits the caller as a local user: exclusive for X, shared otherwise.
// Callers must Release with the same class.
func (c *Clerk) Acquire(id uint64, class Class, hier bool) error {
	for {
		ok, err := c.tryAcquire(id, class, hier)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		// A revocation tore the entry down while we waited; retry
		// against a fresh entry (re-acquiring the global lock).
	}
}

// tryAcquire attempts one admission round. It returns (false, nil) when the
// entry was revoked out from under the caller and the acquire must restart.
func (c *Clerk) tryAcquire(id uint64, class Class, hier bool) (bool, error) {
	e := c.entryFor(id) // returns with e.mu held
	defer func() { e.mu.Unlock() }()
	// A revocation in progress bars new local users (§5.1): wait for the
	// teardown to finish, then restart.
	if e.revoke {
		for !e.dead {
			e.cond.Wait()
		}
		return false, nil
	}
	// Wait out a concurrent global fetch so a second caller merges into the
	// first grant instead of racing a redundant RPC against it.
	for e.fetching {
		e.cond.Wait()
		if e.dead {
			return false, nil
		}
		if e.revoke {
			for !e.dead {
				e.cond.Wait()
			}
			return false, nil
		}
	}
	if !e.has || !covers(e.class, class) || (hier && !e.hier) {
		want := class
		if e.has {
			want = merge(e.class, class)
		}
		wantHier := hier || e.hier
		// The RPC must not run under e.mu: the service delivers revocation
		// callbacks synchronously on a waiter's goroutine (in-process
		// transport), and HandleCallback needs e.mu. Holding it across the
		// call deadlocks two clients that upgrade the same lock concurrently
		// — each blocked in Acquire waiting for the other's release, each
		// revoke blocked on the e.mu the other's acquire holds.
		rpcErr := c.callAcquire(e, id, want, wantHier)
		if rpcErr != nil {
			return false, fmt.Errorf("clerk: acquire %#x %v: %w", id, class, rpcErr)
		}
		if e.dead || e.dropping {
			// A revocation tore the entry down while the acquire was in
			// flight: the teardown released whatever grant it knew about, so
			// the grant this call just won is untracked. Surrender it and
			// restart against a fresh entry.
			c.callSurrender(e, id)
			return false, nil
		}
		e.has = true
		e.class = want
		e.hier = e.hier || wantHier
		if e.revoke {
			// Revoked while acquiring. The entry now records the grant, so
			// the pending teardown flushes and releases it; admit nobody.
			e.cond.Broadcast()
			return false, nil
		}
	} else {
		c.LocalHits.Add(1)
		c.obsLocalHits.Inc()
	}
	// Local admission.
	if class == X {
		for e.writer || e.readers > 0 {
			e.cond.Wait()
			if e.revoke || e.dead {
				return false, nil
			}
		}
		e.writer = true
	} else {
		for e.writer {
			e.cond.Wait()
			if e.revoke || e.dead {
				return false, nil
			}
		}
		e.readers++
	}
	e.users++
	e.lastUse = time.Now()
	c.tracer.EnterResource(lockResource(id), traceMode(class))
	return true, nil
}

// callAcquire ships the global acquire RPC with e.mu released: the service
// delivers revocation callbacks synchronously on a waiter's goroutine
// (in-process transport), and HandleCallback needs e.mu — holding it across
// the call deadlocks two clients that upgrade the same lock concurrently.
// e.fetching bars other would-be fetchers meanwhile so they merge into this
// grant instead of racing redundant RPCs. The deferred relock also runs when
// the transport panics (fault-injected crashes unwind through here), keeping
// tryAcquire's own deferred unlock balanced.
func (c *Clerk) callAcquire(e *entry, id uint64, want Class, wantHier bool) error {
	e.fetching = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.fetching = false
		e.cond.Broadcast()
	}()
	w := wire.NewWriter(16)
	w.U64(id)
	w.U8(uint8(want))
	w.Bool(wantHier)
	c.GlobalCalls.Add(1)
	c.obsGlobalCalls.Inc()
	_, err := c.rc.Call(MethodAcquire, w.Bytes())
	return err
}

// callSurrender gives back a grant won by an acquire that raced a teardown
// (the entry died while the RPC was in flight, so the grant is untracked).
// Same discipline as callAcquire: e.mu is released around the RPC and
// re-taken even on a fault-injected panic.
func (c *Clerk) callSurrender(e *entry, id uint64) {
	e.mu.Unlock()
	defer e.mu.Lock()
	w := wire.NewWriter(8)
	w.U64(id)
	_, _ = c.rc.Call(MethodRelease, w.Bytes())
}

// Release ends a local hold taken by Acquire with the same class. The
// global lock stays cached unless a revocation is pending.
func (c *Clerk) Release(id uint64, class Class) {
	c.tracer.ExitResource(lockResource(id))
	c.mu.Lock()
	e := c.entries[id]
	c.mu.Unlock()
	if e == nil {
		return
	}
	e.mu.Lock()
	if class == X {
		e.writer = false
	} else if e.readers > 0 {
		e.readers--
	}
	if e.users > 0 {
		e.users--
	}
	e.lastUse = time.Now()
	needDrop := e.revoke && e.users == 0
	e.cond.Broadcast()
	e.mu.Unlock()
	if needDrop {
		c.dropGlobal(e)
	}
}

// AcquireSub grants a local lock on subID under a hierarchical cover held
// on coverID, without any RPC (§5.3.4: "the clerk answers requests for
// locks on descendant objects locally"). Returns false when the cover is
// insufficient (not held, not hierarchical, wrong mode, or being revoked);
// the caller then falls back to an explicit global lock.
func (c *Clerk) AcquireSub(coverID, subID uint64, write bool) bool {
	c.mu.Lock()
	e := c.entries[coverID]
	c.mu.Unlock()
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	need := S
	if write {
		need = X
	}
	if e.dead || e.revoke || !e.has || !e.hier || !covers(e.class, need) {
		return false
	}
	sl := e.subs[subID]
	if sl == nil {
		sl = &subLock{}
		e.subs[subID] = sl
	}
	if write {
		for sl.writer || sl.readers > 0 {
			e.cond.Wait()
			if e.dead || e.revoke {
				return false
			}
		}
		sl.writer = true
	} else {
		for sl.writer {
			e.cond.Wait()
			if e.dead || e.revoke {
				return false
			}
		}
		sl.readers++
	}
	e.users++
	c.SubGrants.Add(1)
	mode := costmodel.Shared
	if write {
		mode = costmodel.Exclusive
	}
	c.tracer.EnterResource(lockResource(subID), mode)
	return true
}

// ReleaseSub ends a local sub-lock hold.
func (c *Clerk) ReleaseSub(coverID, subID uint64, write bool) {
	c.tracer.ExitResource(lockResource(subID))
	c.mu.Lock()
	e := c.entries[coverID]
	c.mu.Unlock()
	if e == nil {
		return
	}
	e.mu.Lock()
	if sl := e.subs[subID]; sl != nil {
		if write {
			sl.writer = false
		} else if sl.readers > 0 {
			sl.readers--
		}
		if !sl.writer && sl.readers == 0 {
			delete(e.subs, subID)
		}
	}
	if e.users > 0 {
		e.users--
	}
	needDrop := e.revoke && e.users == 0
	e.cond.Broadcast()
	e.mu.Unlock()
	if needDrop {
		c.dropGlobal(e)
	}
}

// dropGlobal ships pending state and releases the global lock. Exactly one
// caller wins the teardown; others return immediately.
func (c *Clerk) dropGlobal(e *entry) {
	e.mu.Lock()
	if e.dead || e.dropping {
		e.mu.Unlock()
		return
	}
	e.dropping = true
	has := e.has
	e.mu.Unlock()
	if has {
		if c.onRelease != nil {
			c.onRelease(e.id)
		}
		w := wire.NewWriter(8)
		w.U64(e.id)
		_, _ = c.rc.Call(MethodRelease, w.Bytes())
	}
	e.mu.Lock()
	e.has = false
	e.dead = true
	e.cond.Broadcast()
	e.mu.Unlock()
	c.forget(e)
}

func (c *Clerk) forget(e *entry) {
	c.mu.Lock()
	if c.entries[e.id] == e {
		delete(c.entries, e.id)
	}
	c.mu.Unlock()
}

// HandleCallback processes a server callback; the host routes
// CallbackRevoke here. Revocation drains asynchronously: new local users
// are refused, current ones finish, then the flush hook runs and the global
// lock is released.
func (c *Clerk) HandleCallback(method uint32, payload []byte) {
	if method != CallbackRevoke {
		return
	}
	r := wire.NewReader(payload)
	id := r.U64()
	_ = r.U8() // wanted class; the clerk always fully releases
	c.mu.Lock()
	e := c.entries[id]
	c.mu.Unlock()
	if e == nil {
		return // stale revoke; nothing cached
	}
	e.mu.Lock()
	if e.dead || e.revGoing {
		e.mu.Unlock()
		return
	}
	e.revoke = true
	e.revGoing = true
	idle := e.users == 0
	e.mu.Unlock()
	if idle {
		c.dropGlobal(e)
		return
	}
	// Drain on a separate goroutine: the callback may arrive on a
	// goroutine that itself holds clerk state (in-process transport).
	go func() {
		e.mu.Lock()
		for e.users > 0 && !e.dead {
			e.cond.Wait()
		}
		dead := e.dead
		e.mu.Unlock()
		if !dead {
			c.dropGlobal(e)
		}
	}()
}

// ReleaseGlobal voluntarily ships state and releases a cached global lock
// (no-op when not cached). Used by Sync and unmount.
func (c *Clerk) ReleaseGlobal(id uint64) {
	c.mu.Lock()
	e := c.entries[id]
	c.mu.Unlock()
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.users > 0 || e.dead {
		// In use: mark for release when users drain.
		e.revoke = true
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	c.dropGlobal(e)
}

// FlushAll releases every cached, currently unused global lock.
func (c *Clerk) FlushAll() {
	c.mu.Lock()
	es := make([]*entry, 0, len(c.entries))
	for _, e := range c.entries {
		es = append(es, e)
	}
	c.mu.Unlock()
	for _, e := range es {
		c.ReleaseGlobal(e.id)
	}
}

// Holding reports whether the clerk currently caches a grant on id covering
// class.
func (c *Clerk) Holding(id uint64, class Class) bool {
	c.mu.Lock()
	e := c.entries[id]
	c.mu.Unlock()
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.has && !e.dead && covers(e.class, class)
}

// Close releases all locks and stops the renewal loop.
func (c *Clerk) Close() {
	if !c.stopRenewing() {
		return
	}
	c.renewWG.Wait()
	c.FlushAll()
}

// Abandon is what a dead client's clerk does: nothing. Renewal stops — so
// the grants lapse with their lease and the loop no longer pins the RPC
// client and the machine behind it — but no hook runs and nothing is
// released. It does not wait for a renew RPC already in flight.
func (c *Clerk) Abandon() { c.stopRenewing() }

// stopRenewing marks the clerk closed and signals the renewal loop to exit;
// false means an earlier Close or Abandon already did.
func (c *Clerk) stopRenewing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.closed = true
	if c.renewStop != nil {
		close(c.renewStop)
	}
	return true
}
