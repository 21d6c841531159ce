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
// mutexes to the process's threads, keeps hierarchical grants (which cover
// every descendant object, so those need no lock of their own), and
// de-escalates in response to revocation callbacks: when a conflicting
// request arrives, the clerk stops admitting new local users, drains
// current ones, runs the registered flush hook (shipping batched metadata
// updates), and releases the global lock.
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

	// idle counts the entries kept in the map after their grant went, up
	// to maxIdle.
	idle atomic.Int64

	// Stats. Atomic: each is bumped under a per-entry lock, and two entries'
	// holders run at once.
	localHits   atomic.Int64
	globalCalls atomic.Int64
}

// entry is the clerk's state for one lock ID. It stays in the clerk's map
// across grants: a teardown resets it and bumps gen, and a goroutine that
// waited on the old grant sees the new generation and starts over. Only an
// evicted entry leaves the map, marked dead; the ID never changes, so an
// entry is never seen under another lock.
type entry struct {
	id uint64

	mu   sync.Mutex
	cond sync.Cond // L is &mu

	has      bool  // global grant held
	class    Class // global class
	hier     bool
	gen      uint64 // teardowns so far
	dead     bool   // evicted from the clerk; retry lookup
	idle     bool   // kept after a teardown, counted in Clerk.idle
	dropping bool   // a teardown is in progress
	fetching bool   // a global acquire RPC is in flight

	// Request payloads, encoded in place: acq by the one fetcher at a time
	// (fetching), rel once at creation (it names only the ID).
	acq [10]byte
	rel [8]byte

	readers  int // local shared holds (S, IS, IX)
	writer   bool
	users    int // all local holds: the readers and the writer
	revoke   bool
	revGoing bool // a revocation drain goroutine is active
}

// maxIdle is how many entries a clerk keeps after their grants go; beyond
// it a teardown evicts the entry instead of keeping it for reuse. It is
// the power of two above the largest count measured (DESIGN.md §13.3): a
// kv_shared client peaks at 2 867 idle entries in its timed phase,
// meta_shard's at 2 463, so neither evicts there. Populating the volume
// goes past it and evicts.
const maxIdle = 4096

// ClerkConfig tunes a clerk.
type ClerkConfig struct {
	// RenewEvery starts a background lease-renewal loop when nonzero.
	RenewEvery time.Duration
}

// backgroundCaller is the transport capability lease renewal uses where a
// transport has one (rpc.InProcClient): a call that skips the session's
// tracer. Transports without a tracer need none.
type backgroundCaller interface {
	CallBackground(method uint32, req []byte) ([]byte, error)
}

// NewClerk creates a clerk speaking to the lock service through rc.
// Route CallbackRevoke payloads to HandleCallback.
func NewClerk(rc rpc.Client, cfg ClerkConfig) *Clerk {
	c := &Clerk{rc: rc, entries: make(map[uint64]*entry)}
	if cfg.RenewEvery > 0 {
		// Renewal runs beside the session's own thread, so it must not
		// reach the session's single-threaded tracer.
		renew := rc.Call
		if bc, ok := rc.(backgroundCaller); ok {
			renew = bc.CallBackground
		}
		c.renewStop = make(chan struct{})
		c.renewWG.Add(1)
		go func() {
			defer c.renewWG.Done()
			t := time.NewTicker(cfg.RenewEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					_, _ = renew(MethodRenew, nil)
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

// lockResource names a lock for the tracer. Callers build the name only
// when a tracer is attached: formatting it allocates on every acquire and
// release, which an untraced clerk must not pay.
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
			e = &entry{id: id}
			e.cond.L = &e.mu
			w := wire.WriterOn(e.rel[:0])
			w.U64(id)
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
	gen := e.gen
	// A revocation in progress bars new local users (§5.1): wait for the
	// teardown to finish, then restart.
	if e.revoke {
		for e.gen == gen {
			e.cond.Wait()
		}
		return false, nil
	}
	// Wait out a concurrent global fetch so a second caller merges into the
	// first grant instead of racing a redundant RPC against it.
	for e.fetching {
		e.cond.Wait()
		if e.gen != gen {
			return false, nil
		}
		if e.revoke {
			for e.gen == gen {
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
		if e.idle {
			e.idle = false
			c.idle.Add(-1)
		}
		var rpcErr error
		if gen, rpcErr = c.fetch(e, want, wantHier, gen); rpcErr != nil {
			e.endDeferredRevokeLocked()
			if e.gen != gen || e.dropping {
				// A teardown's release withdrew the request: restart.
				return false, nil
			}
			return false, fmt.Errorf("clerk: acquire %#x %v: %w", id, class, rpcErr)
		}
		e.has = true
		e.class = want
		e.hier = e.hier || wantHier
		// A revocation that arrived while the grant was on its way
		// (HandleCallback) leaves the grant to this caller: it is admitted
		// once, and its Release runs the teardown. Dropping the grant
		// unused instead would let two clerks revoke each other's fresh
		// grants back and forth with neither getting to use one.
	} else {
		c.localHits.Add(1)
		c.obsLocalHits.Inc()
	}
	// Local admission.
	if class == X {
		for e.writer || e.readers > 0 {
			e.cond.Wait()
			if e.revoke || e.gen != gen {
				return false, nil
			}
		}
		e.writer = true
	} else {
		for e.writer {
			e.cond.Wait()
			if e.revoke || e.gen != gen {
				return false, nil
			}
		}
		e.readers++
	}
	e.users++
	if c.tracer != nil {
		c.tracer.EnterResource(lockResource(id), traceMode(class))
	}
	return true, nil
}

// endDeferredRevokeLocked ends a revocation HandleCallback left to a fetch
// that yields no grant: there is nothing to tear down.
func (e *entry) endDeferredRevokeLocked() {
	if e.revoke && !e.has && !e.dropping {
		e.resetLocked()
	}
}

// resetLocked ends a teardown: the entry holds nothing, admits users
// again, and every goroutine waiting on the old grant restarts.
func (e *entry) resetLocked() {
	e.has, e.class, e.hier = false, IS, false
	e.dropping, e.revoke, e.revGoing = false, false, false
	e.gen++
	e.cond.Broadcast()
}

// fetch acquires want globally for e, starting in generation gen, and
// returns the generation the grant belongs to. e.mu is held on entry and
// on return, and released around each RPC: the service delivers revocation
// callbacks synchronously on a waiter's goroutine (in-process transport),
// and HandleCallback needs e.mu — holding it across the call deadlocks two
// clients that upgrade the same lock concurrently. e.fetching bars other
// would-be fetchers meanwhile so they merge into this grant instead of
// racing redundant RPCs. It is cleared even when the transport panics
// (fault-injected crashes unwind through here).
//
// A teardown that overlaps a successful fetch leaves the service holding
// want for the client or nothing, and the clerk cannot tell which: the
// grant may have reached the service before the teardown's release, which
// took it, or after, as a fresh grant the teardown never saw. fetch asks
// again for want, once the teardown is over, until a fetch completes with
// no teardown beside it. A fresh grant is then regranted in place at once,
// as want is compatible with every other holder, and the clerk tracks it;
// otherwise the repeat is a new request like any other. So the service
// holds a grant for the client only while the entry has one or a fetch is
// in flight, and a revocation that finds neither is stale. Surrendering
// instead could release a grant the teardown's release already took
// (ErrNotHeld), and a later fetch for another class could merge with the
// untracked grant into one the other holders block, queued behind the
// waiter it holds up, whose revocation was already spent.
func (c *Clerk) fetch(e *entry, want Class, wantHier bool, gen uint64) (uint64, error) {
	e.fetching = true
	defer func() {
		e.fetching = false
		e.cond.Broadcast()
	}()
	for {
		if err := c.callAcquire(e, want, wantHier); err != nil || (e.gen == gen && !e.dropping) {
			return gen, err
		}
		for e.dropping {
			e.cond.Wait()
		}
		gen = e.gen
	}
}

// callAcquire ships one global acquire RPC with e.mu released, re-taking
// it even on a fault-injected panic. The payload is encoded into the
// entry: a stack buffer would escape through the rpc.Client call.
func (c *Clerk) callAcquire(e *entry, want Class, wantHier bool) error {
	w := wire.WriterOn(e.acq[:0])
	w.U64(e.id)
	w.U8(uint8(want))
	w.Bool(wantHier)
	e.mu.Unlock()
	defer e.mu.Lock()
	c.globalCalls.Add(1)
	c.obsGlobalCalls.Inc()
	_, err := c.rc.Call(MethodAcquire, w.Bytes())
	return err
}

// Release ends a local hold taken by Acquire with the same class. The
// global lock stays cached unless a revocation is pending.
func (c *Clerk) Release(id uint64, class Class) {
	if c.tracer != nil {
		c.tracer.ExitResource(lockResource(id))
	}
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
	needDrop, gen := e.revoke && e.users == 0, e.gen
	e.cond.Broadcast()
	e.mu.Unlock()
	if needDrop {
		c.dropGlobal(e, gen)
	}
}

// dropGlobal ships pending state and releases the global lock of
// generation gen. Exactly one caller wins the teardown; others, and
// callers whose generation has already been torn down, return at once.
// The entry stays for the next grant unless the clerk already keeps
// maxIdle such entries.
func (c *Clerk) dropGlobal(e *entry, gen uint64) {
	e.mu.Lock()
	if e.gen != gen || e.dropping {
		e.mu.Unlock()
		return
	}
	if e.users > 0 {
		// A user was admitted since the caller looked: the last Release
		// runs the teardown.
		e.revoke = true
		e.mu.Unlock()
		return
	}
	e.dropping = true
	e.revoke = true // no new local users until the teardown ends
	has := e.has
	e.mu.Unlock()
	if has {
		if c.onRelease != nil {
			c.onRelease(e.id)
		}
		_, _ = c.rc.Call(MethodRelease, e.rel[:])
	}
	e.mu.Lock()
	e.resetLocked()
	// An entry that a fetch in flight will fill again (fetch) is neither
	// idle nor evicted.
	if !e.fetching && !e.idle {
		if c.idle.Add(1) > maxIdle {
			c.idle.Add(-1)
			e.dead = true
		} else {
			e.idle = true
		}
	}
	evict := e.dead
	e.mu.Unlock()
	if evict {
		c.mu.Lock()
		if c.entries[e.id] == e {
			delete(c.entries, e.id)
		}
		c.mu.Unlock()
	}
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
	if e.dead || e.revGoing || (!e.has && !e.fetching) {
		e.mu.Unlock()
		return // stale: nothing held or on its way
	}
	e.revoke = true
	e.revGoing = true
	if !e.has {
		// The grant is still on its way to a fetcher, which is admitted
		// once; its Release runs the teardown.
		e.mu.Unlock()
		return
	}
	idle, gen := e.users == 0, e.gen
	e.mu.Unlock()
	if idle {
		c.dropGlobal(e, gen)
		return
	}
	// Drain on a separate goroutine: the callback may arrive on a
	// goroutine that itself holds clerk state (in-process transport).
	go func() {
		e.mu.Lock()
		for e.users > 0 && e.gen == gen {
			e.cond.Wait()
		}
		e.mu.Unlock()
		c.dropGlobal(e, gen)
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
	if e.dead || !e.has {
		// Nothing to release. A fetch in flight keeps its grant: a
		// teardown beside it would only make it ask again (fetch).
		e.mu.Unlock()
		return
	}
	if e.users > 0 {
		// In use: mark for release when users drain.
		e.revoke = true
		e.mu.Unlock()
		return
	}
	gen := e.gen
	e.mu.Unlock()
	c.dropGlobal(e, gen)
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

// holding reports whether the clerk currently caches a grant on id covering
// class.
func (c *Clerk) holding(id uint64, class Class) bool {
	c.mu.Lock()
	e := c.entries[id]
	c.mu.Unlock()
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.has && covers(e.class, class)
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
