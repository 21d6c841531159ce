// Package libfs is Aerie's untrusted client library (§4.2): the in-process
// half of the file system. It mounts the volume through the kernel SCM
// manager, reads metadata and data directly from SCM through its protected
// mapping, stages new objects into pre-allocated extents, buffers metadata
// updates in a local log that is shipped to the TFS in batches (§5.3.5 —
// on a size threshold, on Sync, and whenever a global lock is released or
// revoked), and keeps volatile shadow state so a client observes its own
// not-yet-shipped updates.
package libfs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/shard"
	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/wire"
)

// Config tunes a client session.
type Config struct {
	// UID is the client's user identity; it joins the volume group.
	UID uint32
	// Tenant is the session's tenant binding (0: the default tenant —
	// weight 1, no quota). It is registered at mount and stamped into every
	// shipped batch; the TFS rejects a batch claiming any other tenant, and
	// charges the session's space and scheduling against this one.
	Tenant uint32
	// BatchLimit is the metadata log size that triggers shipping
	// (default 8 MiB, the paper's measured optimum).
	BatchLimit int
	// Window is the number of batches the session keeps in flight to the
	// TFS (default 1: the synchronous ship-and-wait path, no background
	// goroutine). With Window K > 1 a full batch rotates into the ship
	// queue and a background shipper sends it while the caller keeps
	// logging; LogOp blocks only when K batches are already pending, and
	// Sync drains the whole window. Batches are sequence-numbered so the
	// TFS can verify a session's window applies in order.
	Window int
	// PoolRefill is how many extents one Prealloc RPC fetches (default 64).
	PoolRefill uint32
	// RenewEvery starts clerk lease renewal (default: lease-dependent off).
	RenewEvery time.Duration
	// Tracer records phase traces for the scalability simulator (single-
	// threaded capture runs only).
	Tracer *costmodel.Tracer
	// Costs injects the RPC round-trip latency (may be nil).
	Costs *costmodel.Costs
	// BusyRetries bounds the in-call retries when the TFS sheds a batch
	// with fsproto.ErrBusy (default 8, -1 disables). Each retry sleeps a
	// jittered backoff floored at the server's retry-after hint; once
	// exhausted the batch stays parked for a later Sync.
	BusyRetries int
	// Faults, when non-nil, arms fault points on the client's mutation
	// sequences (libfs.*). Nil in production.
	Faults *faultinject.Injector
	// Obs, when non-nil, receives client-side metrics (libfs.ship.ops /
	// libfs.ship.bytes batch-size histograms, clerk cache counters) and is
	// inherited by the interface layers (PXFS, FlatFS) mounted on this
	// session.
	Obs *obs.Sink
}

// ErrStaleBatch reports that the TFS rejected a batch; the client's buffered
// updates were discarded (§4.3: integrity is preserved, client data may be
// lost).
var ErrStaleBatch = errors.New("libfs: update batch rejected and discarded")

// ErrTFSUnreachable reports that a batch could not be shipped because the
// transport failed (timeout, reconnect exhausted). Unlike ErrStaleBatch the
// updates are NOT discarded: the batch is requeued and the shadow state
// kept, so a later Sync retries once the TFS is back.
var ErrTFSUnreachable = errors.New("libfs: TFS unreachable, updates requeued")

// Session is a mounted client. All methods are safe for concurrent use by
// the process's threads.
type Session struct {
	rc    rpc.Client
	Clerk *lockservice.Clerk
	mgr   *scmmgr.Manager
	proc  *scmmgr.Process
	// mappings holds one kernel partition mapping per shard; Mem composes
	// them.
	mappings []*scmmgr.Mapping
	cfg      Config

	// Mem is the session's protected view of SCM.
	Mem scm.Space
	// sl is Mem's zero-copy capability (resolved once at mount), used by
	// the direct readers to copy file data straight from the mapped arena
	// into application buffers.
	sl scm.Slicer
	// Root is the volume root collection.
	Root sobj.OID

	// Sharding (shardroute.go). shards/table/repoch come from the mount
	// reply: table maps any SCM address to its owning shard, and repoch is
	// echoed in every batch header and prealloc request so a restarted set
	// can reject stale routing.
	shards []fsproto.ShardInfo
	table  shard.Table
	repoch uint32

	mu         sync.Mutex
	batch      []fsproto.Op
	batchBytes int
	// groups partitions batch into the indivisible units it was logged in
	// (one per LogOp/LogOps call), each carrying the staged extents its ops
	// consumed from the pool — the unit of batch splitting and of rollback
	// when the TFS rejects a batch for space.
	groups []opGroup
	// pendingStaged accumulates pool extents taken since the last log call;
	// the next LogOp/LogOps claims them into its group.
	pendingStaged []stagedExt
	// shipq holds batches whose ship is in flight or parked: head is
	// retried identically (same payload + request ID) after a transport
	// failure, and an oversized batch is split in place into two halves.
	// With a pipelined window (cfg.Window > 1) it is the completion
	// window: entries complete strictly in order, head first.
	shipq []*shipState
	// retired holds window entries that completed, for rotateLocked to
	// reuse: the entry, its payload buffer, and its op and group arrays,
	// which become the next accumulating batch. Only an applied entry lands
	// here — nothing reads it again — never a discarded one, whose RPC
	// goroutine may still be looking at it.
	retired    []*shipState
	shadows    map[sobj.OID]*fileShadow
	colShadows map[sobj.OID]*colShadow
	// pools holds staged extents per shard (index = shard ID): buddy order
	// -> extent addrs. Extents come from their shard's allocator and every
	// object's storage stays on its owning shard, so the pools never mix.
	pools        []map[uint][]uint64
	releaseHooks []func(lockID uint64)
	discardHooks []func()
	closed       bool

	// Pipelined-window state (all guarded by mu). Queued entries launch on
	// their own RPC goroutines, up to Window concurrently in flight (the
	// TFS sequence gate re-serializes their outcomes); inflight counts
	// them. parked suspends launches after a transport failure or
	// persistent shed, leaving every entry queued verbatim for a Sync to
	// drain; draining marks a FlushUpdates shipping the queue synchronously
	// (launches also suspend). shipCond wakes waiters when depth, inflight,
	// or ownership changes. nextSeq numbers rotated batches; epoch is the
	// discard generation stamped into them, bumped on every rejection, and
	// openerPending flags the next rotation as the new epoch's opener
	// (true at mount and after every discard). deferred stashes a rejection
	// detected in the background until the next LogOp/Sync can surface it;
	// panicVal does the same for an injected crash panic, re-thrown on the
	// caller's goroutine so a pipelined session crashes on the thread the
	// harness watches.
	shipCond *sync.Cond
	inflight int
	parked   bool
	draining bool
	// Window sequences are per shard: each shard's gate demands a dense
	// sequence from this session, and batches for different shards
	// interleave freely. The epoch (and its openers) is session-wide — a
	// rejection poisons every shard's suffix, preserving the session-order
	// prefix property across shards. batchShard is the home shard of the
	// accumulating batch, which is always single-shard (cross-shard groups
	// go through TxApply instead).
	nextSeqs       []uint64
	epoch          uint32
	openersPending []bool
	batchShard     int
	deferred       error
	panicVal       any

	// Stats.
	Flushes     costmodel.Counter
	OpsLogged   costmodel.Counter
	PoolRefills costmodel.Counter

	// Metrics resolved once at mount; all nil when cfg.Obs is nil.
	obsShipOps        *obs.Histogram
	obsShipBytes      *obs.Histogram
	obsWindowDepth    *obs.Histogram // ship-queue depth at each rotation
	obsWindowStalls   *obs.Counter   // LogOp blocked on a full window
	obsWindowParks    *obs.Counter   // shipper parked (transport/busy)
	obsWindowDiscards *obs.Counter   // batches discarded by a rejection
}

// fileShadow is volatile per-file state covering not-yet-shipped updates:
// pending extent attachments and the pending size (§6.1's shadow object).
type fileShadow struct {
	pendingExtents map[uint64]uint64 // blockIdx -> extent addr
	size           uint64
	hasSize        bool
	pendingSingle  uint64 // staged replacement extent (single mode)
	singleCap      uint64
	// A staged truncate makes blocks >= holeFrom holes until new extents
	// are staged over them: the mFile's current extents there will be
	// freed when the batch applies, so writing through them would lose
	// data (and alias storage the allocator may hand out again).
	holeFrom uint64
	hasHole  bool
	// cover is the global lock the staged updates were covered by. A
	// shadow is only trustworthy while that lock is cached at this
	// client's clerk; when the lock leaves (flush-on-release), the
	// shadow is dropped — SCM holds everything by then, and other
	// clients may change the object from here on.
	cover uint64
}

// colShadow overlays a collection with staged inserts and removes. Each
// entry records the global lock that covered its staging so the overlay
// can be invalidated per cover when a lock leaves the client (see
// dropCoveredShadows); a directory's entries may be staged under distinct
// covers (FlatFS bucket locks).
type colShadow struct {
	ins map[string]colIns
	del map[string]uint64 // key -> covering lock
}

// colIns is one staged directory binding plus its covering lock.
type colIns struct {
	oid   sobj.OID
	cover uint64
}

// stagedExt is one pool extent consumed by a buffered op: staged object
// storage or a pre-written data extent awaiting attach. If the TFS rejects
// the op's batch the extent never became reachable, so rollback returns it
// to the pool for reuse.
type stagedExt struct{ addr, size uint64 }

// opGroup is one indivisible logged unit: n consecutive batch ops plus the
// staged extents they consumed. Batches split only at group boundaries.
type opGroup struct {
	n      int
	staged []stagedExt
}

// Window entry states.
const (
	stQueued   = iota // waiting for a launch, or parked for a verbatim re-ship
	stInflight        // an RPC goroutine owns the ship
	stDone            // applied by the TFS; awaiting in-order retirement
)

// shipState is one completion-window entry: a sealed batch with its encoded
// payload and reserved RPC request ID, kept so a retry after a transport
// failure replays the identical request — the server's dedup cache then
// guarantees the batch applies at most once even if the original did reach
// it.
type shipState struct {
	ops     []fsproto.Op
	groups  []opGroup
	bytes   int
	payload []byte
	reqID   uint64 // 0 when the transport lacks IdempotentCaller
	// hdr is the batch's wire header (home shard, sequence, epoch, flags),
	// assigned at rotation and baked into payload; split halves inherit
	// the sequence (they are still one rotated batch to the window
	// protocol).
	hdr   fsproto.BatchHeader
	state int
	// discarded marks an entry killed by a sibling's rejection while its
	// own RPC was still in flight; whatever the TFS says about it
	// (typically ErrWindowStale from the poisoned epoch) is moot.
	discarded bool
}

// Mount connects a session: RPC mount, kernel partition mapping, clerk.
// The rpc client must have been dialed with a callback routed to
// RouteCallback (see MountInProc for the common wiring).
func Mount(rc rpc.Client, mgr *scmmgr.Manager, cfg Config) (*Session, error) {
	if cfg.BatchLimit == 0 {
		cfg.BatchLimit = 8 << 20
	}
	if cfg.PoolRefill == 0 {
		cfg.PoolRefill = 64
	}
	if cfg.BusyRetries == 0 {
		cfg.BusyRetries = 8
	}
	w := wire.NewWriter(8)
	w.U32(cfg.UID)
	w.U32(cfg.Tenant)
	resp, err := rc.Call(fsproto.MethodMount, w.Bytes())
	if err != nil {
		return nil, err
	}
	reply, err := fsproto.DecodeMountReply(resp)
	if err != nil {
		return nil, err
	}
	if len(reply.Shards) == 0 {
		return nil, fmt.Errorf("libfs: mount reply names no shard")
	}
	proc := scmmgr.NewProcess(cfg.UID, reply.VolumeGID)
	// One mapping per shard partition — each mapping's protection is bounded
	// to its own partition — composed into one routed space. A lone mapping
	// is the space: reads on it pay for no routing.
	var mappings []*scmmgr.Mapping
	for _, sh := range reply.Shards {
		mp, err := mgr.Mount(proc, scmmgr.PartitionID(sh.Partition))
		if err != nil {
			for _, m := range mappings {
				mgr.Unmount(m)
			}
			return nil, err
		}
		mappings = append(mappings, mp)
	}
	var mem scm.Space = mappings[0]
	if len(mappings) > 1 {
		mem = &multiSpace{maps: mappings}
	}
	s := &Session{
		rc: rc, mgr: mgr, proc: proc, mappings: mappings, cfg: cfg,
		Mem: mem, sl: scm.AsSlicer(mem), Root: reply.Root,
		shadows:    make(map[sobj.OID]*fileShadow),
		colShadows: make(map[sobj.OID]*colShadow),
		// The session's first rotated batch opens epoch 1.
		epoch: 1,
	}
	s.shards = reply.Shards
	s.repoch = reply.RoutingEpoch
	for _, sh := range reply.Shards {
		s.table = append(s.table, shard.Range{Start: sh.HeapStart, Size: sh.HeapSize})
	}
	n := len(reply.Shards)
	s.pools = make([]map[uint][]uint64, n)
	for i := range s.pools {
		s.pools[i] = make(map[uint][]uint64)
	}
	s.nextSeqs = make([]uint64, n)
	s.openersPending = make([]bool, n)
	for i := range s.openersPending {
		s.openersPending[i] = true
	}
	s.shipCond = sync.NewCond(&s.mu)
	s.obsShipOps = cfg.Obs.Histogram("libfs.ship.ops")
	s.obsShipBytes = cfg.Obs.Histogram("libfs.ship.bytes")
	s.obsWindowDepth = cfg.Obs.Histogram("libfs.window.depth")
	s.obsWindowStalls = cfg.Obs.Counter("libfs.window.stalls")
	s.obsWindowParks = cfg.Obs.Counter("libfs.window.parks")
	s.obsWindowDiscards = cfg.Obs.Counter("libfs.window.discards")
	s.Clerk = lockservice.NewClerk(rc, lockservice.ClerkConfig{RenewEvery: cfg.RenewEvery})
	s.Clerk.SetTracer(cfg.Tracer)
	s.Clerk.SetObs(cfg.Obs)
	// Ship buffered updates whenever a global lock leaves this client
	// (voluntary release or revocation) so other clients observe a
	// consistent view (§5.3.5). Interface layers add their own hooks
	// (PXFS flushes its path-name cache here).
	s.Clerk.OnRelease(func(lockID uint64) {
		if s.FlushUpdates() == nil {
			// Everything staged under this lock is now applied to SCM, and
			// once the global lock leaves this clerk other clients may
			// change those objects — shadow entries it covered would answer
			// stale. Cross-shard transactions bypass the ship queue, so the
			// pipeline's wholesale retire never sees them; sweep by cover.
			s.dropCoveredShadows(lockID)
		}
		s.mu.Lock()
		hooks := s.releaseHooks
		s.mu.Unlock()
		for _, fn := range hooks {
			fn(lockID)
		}
	})
	return s, nil
}

// AddReleaseHook registers fn to run whenever a global lock is released or
// revoked (after buffered updates ship).
func (s *Session) AddReleaseHook(fn func(lockID uint64)) {
	s.mu.Lock()
	s.releaseHooks = append(s.releaseHooks, fn)
	s.mu.Unlock()
}

// AddDiscardHook registers fn to run whenever the TFS rejects a batch and
// the session discards it. Anything derived from the discarded updates —
// e.g. a name cache holding a path resolved through a staged create — is
// stale the moment the batch dies, and the staged extents it pointed into
// are back in the pool for reuse.
func (s *Session) AddDiscardHook(fn func()) {
	s.mu.Lock()
	s.discardHooks = append(s.discardHooks, fn)
	s.mu.Unlock()
}

// sessionHolder lets the RPC callback (created before the session) reach
// the clerk once it exists.
type sessionHolder struct {
	mu sync.Mutex
	s  *Session
}

// MountInProc dials srv over the in-process transport and mounts, wiring
// lock-revocation callbacks to the session's clerk.
func MountInProc(srv *rpc.Server, mgr *scmmgr.Manager, cfg Config) (*Session, error) {
	h := &sessionHolder{}
	rc := rpc.DialInProc(srv, func(method uint32, payload []byte) {
		h.mu.Lock()
		s := h.s
		h.mu.Unlock()
		if s != nil {
			s.Clerk.HandleCallback(method, payload)
		}
	}, cfg.Costs, cfg.Tracer)
	s, err := Mount(rc, mgr, cfg)
	if err != nil {
		rc.Close()
		return nil, err
	}
	h.mu.Lock()
	h.s = s
	h.mu.Unlock()
	return s, nil
}

// MountTCP dials a TFS served over loopback TCP (cmd/aerie-tfsd) and
// mounts, wiring revocation callbacks back to the clerk — the paper's
// socket-RPC deployment (§5.1). The kernel SCM manager is still reached
// in-process (partition mapping is a kernel service, not an RPC).
func MountTCP(addr string, mgr *scmmgr.Manager, cfg Config) (*Session, error) {
	h := &sessionHolder{}
	rc, err := rpc.DialTCP(addr, func(method uint32, payload []byte) {
		h.mu.Lock()
		s := h.s
		h.mu.Unlock()
		if s != nil {
			s.Clerk.HandleCallback(method, payload)
		}
	})
	if err != nil {
		return nil, err
	}
	s, err := Mount(rc, mgr, cfg)
	if err != nil {
		rc.Close()
		return nil, err
	}
	h.mu.Lock()
	h.s = s
	h.mu.Unlock()
	return s, nil
}

// Close ships pending updates, releases locks, and unmounts.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.FlushUpdates()
	s.Clerk.Close()
	for _, mp := range s.mappings {
		s.mgr.Unmount(mp)
	}
	_ = s.rc.Close()
	return err
}

// ClientID returns the RPC identity the TFS knows this session by. The
// crash-sweep harness uses it to force-expire a "crashed" session's leases.
func (s *Session) ClientID() uint64 { return s.rc.ClientID() }

// Obs returns the session's observability sink (nil when disabled). The
// interface layers mounted on this session resolve their metrics from it.
func (s *Session) Obs() *obs.Sink { return s.cfg.Obs }

// Abandon simulates a client crash: buffered updates and staged objects are
// dropped on the floor, locks are left to lease expiry (the clerk stops
// renewing them and releases nothing). Used by tests, the sweep engine and
// the sharing example.
func (s *Session) Abandon() {
	s.mu.Lock()
	s.closed = true
	s.batch = nil
	s.groups = nil
	s.pendingStaged = nil
	s.shipq = nil
	s.shadows = make(map[sobj.OID]*fileShadow)
	s.colShadows = make(map[sobj.OID]*colShadow)
	s.mu.Unlock()
	s.Clerk.Abandon()
	_ = s.rc.Close()
}

// ---- Pre-allocated extent pool (§5.3.7) ----

// AllocStaged takes an extent of at least size bytes from shard 0's pool,
// refilling from the TFS when empty. Sharded callers use AllocStagedOn /
// AllocStagedFor (shardroute.go) so staged storage lands on the object's
// owning shard.
func (s *Session) AllocStaged(size uint64) (uint64, error) { return s.AllocStagedOn(0, size) }

// FreeStaged returns an unused staged extent to its shard's pool.
func (s *Session) FreeStaged(addr, size uint64) {
	order := alloc.OrderFor(size)
	s.mu.Lock()
	sh := s.shardOf(addr)
	s.pools[sh][order] = append(s.pools[sh][order], addr)
	// The extent is back in the pool; drop its pending-rollback record so a
	// later batch rejection can't return it twice.
	for i := range s.pendingStaged {
		if s.pendingStaged[i].addr == addr {
			s.pendingStaged = append(s.pendingStaged[:i], s.pendingStaged[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// prealloc fetches extents from shardID's allocator.
func (s *Session) prealloc(shardID int, size uint64, count uint32) ([]uint64, error) {
	resp, err := s.rc.Call(fsproto.MethodPreallocShard, fsproto.EncodePrealloc(fsproto.PreallocRequest{
		Shard: uint32(shardID), RoutingEpoch: s.repoch, Size: size, Count: count}))
	if err != nil {
		return nil, err
	}
	return fsproto.DecodeAddrs(resp)
}

// poolAllocator adapts one shard's session pool to sobj.Allocator for
// staging objects client-side.
type poolAllocator struct {
	s     *Session
	shard int
}

func (p poolAllocator) Alloc(size uint64) (uint64, error) { return p.s.AllocStagedOn(p.shard, size) }
func (p poolAllocator) Free(addr, size uint64) error {
	p.s.FreeStaged(addr, size)
	return nil
}

// StagingAllocator returns an sobj.Allocator backed by shard 0's pool.
func (s *Session) StagingAllocator() sobj.Allocator { return poolAllocator{s: s} }

// ---- Metadata update log (§5.3.5) ----

// LogOp buffers one metadata update, shipping the batch if it crossed the
// size threshold.
func (s *Session) LogOp(op fsproto.Op) error {
	return s.logOps(&op, nil, nil)
}

// LogOps buffers several metadata updates as one indivisible unit: all ops
// join the batch under a single mutex hold and the ship threshold is only
// checked after the last one, so an auto-ship can never apply a prefix of
// the sequence alone. Sequences whose intermediate states are destructive
// (copy-on-truncate's truncate/attach/set-size triple) must stage this way
// — shipping just the boundary truncate would free the kept block's extent
// and drop its shadow, losing the head bytes on crash.
func (s *Session) LogOps(ops []fsproto.Op) error {
	if len(ops) == 0 {
		return nil
	}
	return s.logOps(nil, ops, nil)
}

// logOps appends one op (single != nil) or a non-empty slice atomically.
// The two parameters exist so the hot single-op path allocates no slice.
// involved optionally names extra objects the group touches (see
// LogOpsSharded); with more than one shard the group routes to its home
// shard's window, rotating the accumulating batch at a shard switch, and a
// group that spans shards applies synchronously as a cross-shard
// transaction.
func (s *Session) logOps(single *fsproto.Op, ops []fsproto.Op, involved []sobj.OID) error {
	// A crash here loses the ops before they reach the local log — the
	// "client dies with unshipped updates" case lease expiry cleans up.
	if err := s.cfg.Faults.Hit("libfs.logop"); err != nil {
		return err
	}
	// One shard is every group's home; resolving it is skipped.
	home := 0
	if len(s.shards) > 1 {
		var cross bool
		home, cross = s.groupShard(single, ops, involved)
		if cross {
			return s.txApply(single, ops)
		}
	}
	s.mu.Lock()
	if len(s.batch) > 0 && home != s.batchShard {
		// The accumulating batch is single-shard: seal it before switching.
		// In a pipelined session it launches right away; a synchronous one
		// leaves it queued for the next flush point, which drains in order.
		s.rotateLocked()
		if s.window() > 1 {
			s.launchLocked()
		}
	}
	s.batchShard = home
	n := 1
	if single != nil {
		s.batch = append(s.batch, *single)
		s.batchBytes += 64 + len(single.Key) + len(single.Key2)
		s.OpsLogged.Add(1)
	} else {
		for _, op := range ops {
			s.batch = append(s.batch, op)
			s.batchBytes += 64 + len(op.Key) + len(op.Key2)
		}
		s.OpsLogged.Add(int64(len(ops)))
		n = len(ops)
	}
	// This log call claims the staged extents taken since the last one:
	// they back these ops, and travel with them through splits/rollback.
	s.groups = append(s.groups, opGroup{n: n, staged: s.pendingStaged})
	s.pendingStaged = nil
	over := s.batchBytes >= s.cfg.BatchLimit
	if !over || s.window() == 1 {
		s.mu.Unlock()
		if over {
			// Synchronous path (the default): a full batch ships inline and
			// the caller waits out the round trip.
			return s.FlushUpdates()
		}
		return nil
	}
	// Pipelined path: rotate the full batch into the window and launch its
	// ship in the background; block only when the window is full.
	s.rotateLocked()
	s.launchLocked()
	return s.awaitWindowLocked()
}

// RotateBatch seals the accumulating batch into the pipeline window at a
// caller-chosen boundary, without waiting for the byte threshold. Interface
// layers call it between logical operations whose op sequences must not be
// split across batches — FlatFS's create/write/insert triple only validates
// as a unit, because the keyed-cover check needs the key→object link the
// final insert establishes — so every window batch lands on a boundary that
// is safe to apply (or reject) independently. A no-op when the batch is
// empty or the session is synchronous (Window <= 1), where Sync remains the
// only ship point below the byte limit.
func (s *Session) RotateBatch() error {
	s.mu.Lock()
	if s.window() == 1 || len(s.batch) == 0 {
		s.mu.Unlock()
		return nil
	}
	s.rotateLocked()
	s.launchLocked()
	return s.awaitWindowLocked()
}

// awaitWindowLocked applies window backpressure after a rotation: it blocks
// while more than Window batches are in flight, re-throws a shipper panic on
// the calling goroutine, and surfaces any deferred rejection. Called with
// s.mu held; always releases it.
func (s *Session) awaitWindowLocked() error {
	stalled := false
	for len(s.shipq) > s.window() && (s.inflight > 0 || s.draining) {
		if !stalled {
			stalled = true
			s.obsWindowStalls.Inc()
		}
		s.shipCond.Wait()
	}
	// A deferred rejection only surfaces once the window is quiet: the
	// rejecting entry holds its in-flight slot until the discard hooks
	// have run, so the caller never sees the error with the hooks pending.
	for s.deferred != nil && s.inflight > 0 {
		s.shipCond.Wait()
	}
	if pv := s.panicVal; pv != nil {
		s.panicVal = nil
		s.mu.Unlock()
		panic(pv)
	}
	err := s.deferred
	s.deferred = nil
	parked := s.parked && len(s.shipq) > s.window()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if parked {
		// The shipper parked on a transport failure or persistent shed and
		// the window is still over-full: fall back to a synchronous drain
		// so the caller sees the typed error (ErrTFSUnreachable / ErrBusy)
		// live, exactly as the synchronous path would.
		return s.FlushUpdates()
	}
	return nil
}

// ReadBarrier waits until none of this session's window batches are being
// applied by the TFS. Read paths that drop below the shadow overlay to raw
// SCM — collection lookups and walks, live mFile headers — must call it
// first: an in-flight batch of this very session may be mid-apply on the
// server, mutating the bytes under the read. On word-atomic hardware that
// overlap is benign (the shadow overlay already answers for everything the
// apply will write), but a structural walk must not observe a half-applied
// mutation, and the simulated arena offers no word atomicity at all.
// Mutating paths never call this; writes pipeline at full depth. When the
// window is idle the barrier is a mutex acquire and nothing else.
func (s *Session) ReadBarrier() {
	s.mu.Lock()
	for s.inflight > 0 || s.draining {
		s.shipCond.Wait()
	}
	s.mu.Unlock()
}

// window returns the configured in-flight batch window (min 1).
func (s *Session) window() int {
	if s.cfg.Window > 1 {
		return s.cfg.Window
	}
	return 1
}

// rotateLocked seals the accumulating batch into a sequence-numbered
// shipState at the tail of the ship queue, stamping the window header:
// the next sequence number, the session's current discard epoch, and the
// Opener flag when this batch starts a new epoch (first rotation after
// mount or after a discard). Callers hold s.mu and have checked the batch
// is non-empty.
func (s *Session) rotateLocked() *shipState {
	var ship *shipState
	if n := len(s.retired); n > 0 {
		ship, s.retired = s.retired[n-1], s.retired[:n-1]
	} else {
		ship = &shipState{}
	}
	// The batch moves into the entry and the entry's old arrays, emptied,
	// take its place.
	ops, groups := ship.ops[:0], ship.groups[:0]
	*ship = shipState{ops: s.batch, groups: s.groups, bytes: s.batchBytes, payload: ship.payload}
	s.batch, s.groups, s.batchBytes = ops, groups, 0
	home := s.batchShard
	s.nextSeqs[home]++
	// The tenant restates the mount-time binding on every batch; the TFS
	// cross-checks it so a forged header cannot bill another tenant.
	ship.hdr = fsproto.BatchHeader{
		Shard: uint32(home), RoutingEpoch: s.repoch, Tenant: s.cfg.Tenant,
		Seq: s.nextSeqs[home], Epoch: s.epoch, Opener: s.openersPending[home],
	}
	s.openersPending[home] = false
	ship.payload = fsproto.AppendBatch(ship.payload[:0], ship.hdr, ship.ops)
	s.obsShipOps.Observe(int64(len(ship.ops)))
	s.obsShipBytes.Observe(int64(ship.bytes))
	if ic, ok := s.rc.(rpc.IdempotentCaller); ok {
		ship.reqID = ic.NextReqID()
	}
	s.shipq = append(s.shipq, ship)
	s.obsWindowDepth.Observe(int64(len(s.shipq)))
	return ship
}

// launchLocked starts RPC goroutines for queued window entries, in window
// order, up to the configured depth. Entries ship concurrently — the TFS
// sequence gate re-serializes their server-side outcomes — except the
// fragments of one split batch, which share a sequence number the gate
// cannot order, so a later fragment waits for its sibling. Launches
// suspend while the window is parked or a synchronous drain owns the
// queue. Callers hold s.mu.
func (s *Session) launchLocked() {
	if s.parked || s.draining {
		return
	}
	for i := 0; i < len(s.shipq) && s.inflight < s.window(); i++ {
		e := s.shipq[i]
		if e.state != stQueued {
			continue
		}
		if i > 0 {
			prev := s.shipq[i-1]
			// Hold for an unresolved predecessor the gate cannot order: an
			// equal-sequence split sibling, or the tail of another shard's
			// run — the cross-shard barrier that keeps the session's applied
			// updates a global prefix of what it logged.
			if prev.state != stDone && (prev.hdr.Shard != e.hdr.Shard || prev.hdr.Seq == e.hdr.Seq) {
				break
			}
		}
		e.state = stInflight
		s.inflight++
		go s.shipEntry(e)
	}
}

// shipEntry ships one window entry on its own goroutine and resolves the
// outcome against the window: successes retire in window order, a
// transport failure or persistent shed parks the window with the entry
// requeued verbatim (original payload and request ID), an oversized batch
// splits in place, and a definitive rejection discards the entry plus
// everything sequenced after it, stashing the typed error for the next
// sync point. A panic (injected crash) parks the window and is re-thrown
// on the next caller's goroutine.
func (s *Session) shipEntry(e *shipState) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if s.panicVal == nil {
				s.panicVal = r
			}
			s.parked = true
			s.inflight--
			s.shipCond.Broadcast()
			s.mu.Unlock()
		}
	}()
	err := s.shipOne(e)
	var hooks []func()
	s.mu.Lock()
	switch {
	case e.discarded:
		// A sibling's rejection already discarded this entry; the TFS's
		// verdict on it (typically ErrWindowStale) is moot.
	case err == nil:
		e.state = stDone
		s.Flushes.Add(1)
		s.retireLocked()
	case rpc.IsTransport(err) || errors.Is(err, fsproto.ErrBusy):
		// Fate unknown (transport) or definitively not applied (shed):
		// either way nothing is lost — requeue the entry untouched and
		// park the window for a later Sync to drain in order with
		// identical requests.
		e.state = stQueued
		if !s.parked {
			s.parked = true
			s.obsWindowParks.Inc()
		}
	case errors.Is(err, fsproto.ErrBatchTooLarge) && len(e.groups) > 1:
		s.splitEntry(e)
	default:
		// Definitive rejection. ErrWindowStale lands here too when the
		// entry was NOT discarded client-side: the gate will never accept
		// it (its predecessor vanished in a transport fault, or a sibling's
		// rejection poisoned the epoch first), which is the same verdict.
		hooks = s.rejectLocked(e, err)
		if s.deferred == nil {
			s.deferred = fmt.Errorf("%w: %w", ErrStaleBatch, err)
		}
	}
	s.mu.Unlock()
	// The in-flight slot is held across the hooks: a sync point that
	// observes the deferred rejection (it waits out the window first) is
	// then guaranteed the discard hooks have already run — a name cache
	// invalidated by a hook cannot be read stale after the error surfaces.
	for _, fn := range hooks {
		fn()
	}
	s.mu.Lock()
	s.inflight--
	s.launchLocked()
	s.shipCond.Broadcast()
	s.mu.Unlock()
}

// retireLocked pops the completed prefix of the window: entries retire
// strictly in order, so the session's durable state is always a prefix of
// what it logged. When the last pending update retires, the shadow
// overlays reset — everything they described is visible in SCM. Callers
// hold s.mu.
func (s *Session) retireLocked() {
	n := 0
	for n < len(s.shipq) && s.shipq[n].state == stDone {
		n++
	}
	// At most a window's worth is kept: splits mint extra entries.
	if keep := s.window() + 1 - len(s.retired); keep > 0 {
		s.retired = append(s.retired, s.shipq[:min(n, keep)]...)
	}
	s.shipq = slices.Delete(s.shipq, 0, n)
	if len(s.shipq) == 0 && len(s.batch) == 0 {
		s.shadows = make(map[sobj.OID]*fileShadow)
		s.colShadows = make(map[sobj.OID]*colShadow)
	}
}

// dropCoveredShadows discards every shadow entry staged under lockID. Called
// when that global lock leaves the clerk, after a successful flush: the
// entries' effects are applied to SCM, and other clients may mutate the
// objects from here on, so keeping the overlay would answer stale reads.
// Entries staged under other still-held locks are untouched.
func (s *Session) dropCoveredShadows(lockID uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for oid, cs := range s.colShadows {
		for k, v := range cs.ins {
			if v.cover == lockID {
				delete(cs.ins, k)
			}
		}
		for k, cover := range cs.del {
			if cover == lockID {
				delete(cs.del, k)
			}
		}
		if len(cs.ins) == 0 && len(cs.del) == 0 {
			delete(s.colShadows, oid)
		}
	}
	for oid, sh := range s.shadows {
		if sh.cover == lockID {
			delete(s.shadows, oid)
		}
	}
}

// FlushUpdates ships all buffered metadata updates to the TFS (§4.3's
// libfs sync). On validation failure the batch is discarded: metadata
// integrity is preserved, the client's unshipped changes are lost. On a
// transport failure the fate of the batch is unknown, so the updates are
// NOT discarded — the encoded batch is parked with its RPC request ID and
// the shadows are kept, and the call returns ErrTFSUnreachable. A later
// Sync replays the identical request first: the server's dedup cache
// guarantees it applies at most once whether or not the original arrived.
//
// Resource exhaustion gets graceful, typed handling instead of the generic
// discard:
//   - fsproto.ErrNoSpace: the batch is discarded, but its staged pool
//     extents are reclaimed and the shadows reset, so the session
//     reconverges with the committed state and the caller sees a clean
//     errors.Is(err, fsproto.ErrNoSpace) ENOSPC. After freeing space the
//     session keeps working.
//   - fsproto.ErrBatchTooLarge: the batch is split at logged-group
//     boundaries and the halves shipped separately; only a single
//     indivisible group that still cannot fit is rejected.
//   - fsproto.ErrBusy (admission shed): bounded jittered retries honoring
//     the server's retry-after hint; if still shedding, the batch parks
//     like a transport failure — nothing is lost — and the typed error is
//     returned.
func (s *Session) FlushUpdates() error {
	// Take ship-queue ownership: wait out the in-flight window (entries
	// resolve on their own goroutines) and any concurrent drain, so
	// exactly one goroutine ships synchronously. An injected crash panic
	// stashed by an in-flight entry re-throws here immediately — before
	// the wait completes — so a crashed session surfaces the crash, not a
	// gate-timeout rejection, on the goroutine the harness watches.
	s.mu.Lock()
	for {
		if pv := s.panicVal; pv != nil {
			s.panicVal = nil
			s.mu.Unlock()
			panic(pv)
		}
		if s.inflight == 0 && !s.draining {
			break
		}
		s.shipCond.Wait()
	}
	deferred := s.deferred
	s.deferred = nil
	s.draining = true
	// The synchronous drain IS the recovery path a park waits for.
	s.parked = false
	s.mu.Unlock()
	err := s.drainWindow()
	s.mu.Lock()
	s.draining = false
	s.shipCond.Broadcast()
	s.mu.Unlock()
	if deferred != nil && err != nil {
		return errors.Join(deferred, err)
	}
	if deferred != nil {
		return deferred
	}
	return err
}

// drainWindow ships every queued batch plus the accumulating one, in
// order, until the session has nothing pending. The caller owns the ship
// queue (s.draining, with no entries in flight).
func (s *Session) drainWindow() error {
	for {
		s.mu.Lock()
		var ship *shipState
		if len(s.shipq) > 0 {
			ship = s.shipq[0]
			if ship.state == stDone {
				// Completed by the background window but held behind a
				// parked entry that has since resolved: just retire it.
				s.retireLocked()
				s.mu.Unlock()
				continue
			}
		} else {
			if len(s.batch) == 0 {
				s.mu.Unlock()
				return nil
			}
			ship = s.rotateLocked()
		}
		s.mu.Unlock()

		err := s.shipOne(ship)
		switch {
		case err != nil && rpc.IsTransport(err):
			// The TFS may or may not have applied the batch; it stays
			// parked at the queue head for an identical retry, and the
			// shadows still describe the pending updates either way.
			s.obsWindowParks.Inc()
			return fmt.Errorf("%w: %v", ErrTFSUnreachable, err)
		case errors.Is(err, fsproto.ErrBusy):
			// Admission shed outlasted the in-call retries: park the batch
			// (a later Sync re-ships it) and surface the typed error.
			s.obsWindowParks.Inc()
			return fmt.Errorf("libfs: batch parked, TFS shedding load: %w", err)
		case errors.Is(err, fsproto.ErrBatchTooLarge) && len(ship.groups) > 1:
			s.mu.Lock()
			s.splitEntry(ship)
			s.mu.Unlock()
			continue
		}
		ferr := s.completeHead(ship, err)
		s.Flushes.Add(1)
		if ferr != nil {
			return ferr
		}
		// More queued ships, or ops logged while the ship was in flight:
		// ship them too before declaring the sync complete.
	}
}

// completeHead resolves a synchronous ship's definitive verdict (the drain
// path): success retires the head in order; a rejection discards the head
// and the whole suffix behind it and surfaces typed ErrStaleBatch directly
// (no deferral — the syncing caller is right here).
func (s *Session) completeHead(ship *shipState, err error) error {
	s.mu.Lock()
	if err == nil {
		ship.state = stDone
		s.retireLocked()
		s.shipCond.Broadcast()
		s.mu.Unlock()
		return nil
	}
	hooks := s.rejectLocked(ship, err)
	s.shipCond.Broadcast()
	s.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	return fmt.Errorf("%w: %w", ErrStaleBatch, err)
}

// rejectLocked resolves a definitive TFS rejection of e against the
// window. e does not die alone: every batch sequenced after it — queued
// entries, entries still in flight (the poisoned epoch resolves their
// RPCs as ErrWindowStale), and the accumulating batch — may depend on its
// effects (a staged create the next batch links into a directory), so the
// whole suffix is discarded with it. That keeps the session's visible
// state a PREFIX of what it logged: everything before the rejected batch
// applied, nothing after it half-applied. Staged pool extents from every
// discarded batch are reclaimed (the epoch poison guarantees none of them
// can apply), the epoch advances so the next rotation opens a fresh
// window generation, and the discard hooks are returned for the caller to
// run outside the mutex. Callers hold s.mu.
func (s *Session) rejectLocked(e *shipState, err error) []func() {
	reclaim := func(groups []opGroup) {
		for _, g := range groups {
			for _, ext := range g.staged {
				order := alloc.OrderFor(ext.size)
				sh := s.shardOf(ext.addr)
				s.pools[sh][order] = append(s.pools[sh][order], ext.addr)
			}
		}
	}
	discarded := int64(0)
	idx := -1
	for i, q := range s.shipq {
		if q == e {
			idx = i
			break
		}
	}
	if idx >= 0 {
		for _, q := range s.shipq[idx:] {
			q.discarded = true
			reclaim(q.groups)
			discarded++
		}
		s.shipq = s.shipq[:idx]
	}
	reclaim(s.groups)
	if len(s.batch) > 0 {
		discarded++
	}
	s.batch, s.groups, s.batchBytes = nil, nil, 0
	s.obsWindowDiscards.Add(discarded)
	// The epoch is session-wide: bumping it (and flagging every shard's
	// next rotation an opener) poisons the discarded suffix on all shards.
	s.epoch++
	for i := range s.openersPending {
		s.openersPending[i] = true
	}
	// The surviving prefix may now be fully done; retiring it also resets
	// the shadows once nothing is pending (applied updates are visible in
	// SCM, rejected ones are gone).
	s.retireLocked()
	return s.discardHooks
}

// shipOne sends one batch, absorbing admission sheds with bounded jittered
// retries. Returns nil on apply, a transport-classified error when the
// batch's fate is unknown, or the TFS's typed rejection.
func (s *Session) shipOne(ship *shipState) error {
	for attempt := 0; ; attempt++ {
		if err := s.cfg.Faults.Hit("libfs.flush.preship"); err != nil {
			return fmt.Errorf("%w: %v", rpc.ErrUnreachable, err)
		}
		var err error
		if ic, ok := s.rc.(rpc.IdempotentCaller); ok && ship.reqID != 0 {
			_, err = ic.CallWithReqID(fsproto.MethodApplyLogShard, ship.reqID, ship.payload)
		} else {
			_, err = s.rc.Call(fsproto.MethodApplyLogShard, ship.payload)
		}
		if ferr := s.cfg.Faults.Hit("libfs.flush.postship"); ferr != nil && err == nil {
			err = fmt.Errorf("%w: %v", rpc.ErrUnreachable, ferr)
		}
		if err == nil || !retryableShed(err) {
			return err
		}
		// The shed definitely did not apply the batch, and the server's
		// dedup cache has the rejection filed under this request ID — a
		// retry must carry a fresh one to re-execute.
		if ic, ok := s.rc.(rpc.IdempotentCaller); ok && ship.reqID != 0 {
			ship.reqID = ic.NextReqID()
		}
		if s.cfg.BusyRetries < 0 || attempt >= s.cfg.BusyRetries {
			return err
		}
		sleepBackoff(attempt, err)
	}
}

// backoffDelay is the session's single backoff policy: every server-shaped
// retry-after hint — admission sheds, backlog-shaped overload hints, quota
// rejections with in-flight reservations about to release — funnels through
// here. The delay is exponential in the attempt, floored at the server's
// hint when the error carries one (the server knows its backlog; the client
// must not retry sooner), and capped at 250ms. Deterministic: the caller
// adds jitter when sleeping.
func backoffDelay(attempt int, err error) time.Duration {
	base := 2 * time.Millisecond
	var re *rpc.RemoteError
	if errors.As(err, &re) && re.RetryAfterMs > 0 {
		base = time.Duration(re.RetryAfterMs) * time.Millisecond
	}
	d := base << uint(attempt)
	if d > 250*time.Millisecond || d < base {
		d = 250 * time.Millisecond
	}
	return d
}

// retryableShed reports whether err is worth an in-call retry: an admission
// shed always is (the batch definitively did not apply), a quota rejection
// only when the server hints the tenant's own in-flight reservations may
// release enough to admit a retry. Anything else is a definitive verdict.
func retryableShed(err error) bool {
	if errors.Is(err, fsproto.ErrBusy) {
		return true
	}
	if errors.Is(err, fsproto.ErrQuotaExceeded) {
		var re *rpc.RemoteError
		return errors.As(err, &re) && re.RetryAfterMs > 0
	}
	return false
}

// sleepBackoff sleeps backoffDelay plus up to 50% jitter.
func sleepBackoff(attempt int, err error) {
	d := backoffDelay(attempt, err)
	d += time.Duration(rand.Int63n(int64(d/2 + 1)))
	time.Sleep(d)
}

// splitEntry replaces an oversized window entry with two halves split at a
// logged-group boundary, each re-encoded with its own request ID. Called
// when the TFS rejected the entry with ErrBatchTooLarge; the halves (and
// recursively their halves) ship independently. The halves inherit the
// parent's window sequence number — to the window protocol they are still
// one rotated batch — with the first flagged a fragment (the sequence
// number completes only with the last half) and only the first inheriting
// an Opener flag; the launcher ships equal-sequence siblings one at a
// time, since the gate cannot order them. Callers hold s.mu.
func (s *Session) splitEntry(e *shipState) {
	idx := -1
	for i, q := range s.shipq {
		if q == e {
			idx = i
			break
		}
	}
	if idx < 0 || len(e.groups) < 2 {
		return
	}
	// Balance by op count, keeping at least one group per side.
	total := len(e.ops)
	cut, opsCut := 1, e.groups[0].n
	for cut < len(e.groups)-1 && opsCut < total/2 {
		opsCut += e.groups[cut].n
		cut++
	}
	mk := func(ops []fsproto.Op, groups []opGroup, hdr fsproto.BatchHeader) *shipState {
		h := &shipState{ops: ops, groups: groups, hdr: hdr}
		for i := range ops {
			h.bytes += 64 + len(ops[i].Key) + len(ops[i].Key2)
		}
		h.payload = fsproto.AppendBatch(nil, hdr, ops)
		if ic, ok := s.rc.(rpc.IdempotentCaller); ok {
			h.reqID = ic.NextReqID()
		}
		return h
	}
	loHdr := e.hdr
	loHdr.Frag = true
	hiHdr := e.hdr
	hiHdr.Opener = false
	// The low half's capacity is clipped so the halves stay disjoint when
	// they retire and their arrays are reused.
	lo := mk(e.ops[:opsCut:opsCut], e.groups[:cut:cut], loHdr)
	hi := mk(e.ops[opsCut:], e.groups[cut:], hiHdr)
	s.shipq = append(s.shipq[:idx], append([]*shipState{lo, hi}, s.shipq[idx+1:]...)...)
}

// Sync ships buffered updates, the library equivalent of fsync (§4.3).
func (s *Session) Sync() error { return s.FlushUpdates() }

// PendingOps reports the number of buffered, unshipped updates, including
// a batch parked by a transport failure.
func (s *Session) PendingOps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.batch)
	for _, ship := range s.shipq {
		n += len(ship.ops)
	}
	return n
}

// Statfs fetches volume-wide space and object accounting from the TFS,
// including bytes held by in-flight admission reservations. Interface
// layers surface it as statvfs/df.
func (s *Session) Statfs() (fsproto.StatfsReply, error) {
	resp, err := s.rc.Call(fsproto.MethodStatfs, nil)
	if err != nil {
		return fsproto.StatfsReply{}, err
	}
	return fsproto.DecodeStatfsReply(resp)
}

// TenantCtl sets one tenant's isolation policy — scheduling weight and
// space quota — on every shard of the trusted service. Administrative;
// policy is volatile service state re-applied at boot from configuration.
func (s *Session) TenantCtl(tenant, weight uint32, quotaBytes uint64) error {
	_, err := s.rc.Call(fsproto.MethodTenantCtl, fsproto.EncodeTenantCtl(
		fsproto.TenantCtlRequest{Tenant: tenant, Weight: weight, QuotaBytes: quotaBytes}))
	return err
}

// TenantStat fetches per-tenant, per-shard usage rows: configured policy
// plus the bytes currently applied and reserved against each tenant on each
// shard, and the shed/quota-reject counts.
func (s *Session) TenantStat() ([]fsproto.TenantUsage, error) {
	resp, err := s.rc.Call(fsproto.MethodTenantStat, nil)
	if err != nil {
		return nil, err
	}
	return fsproto.DecodeTenantStatReply(resp)
}

// ---- Open-file and protection RPCs ----

// NotifyOpen tells the TFS the client has oid open (unlink-while-open
// support, §6.1).
func (s *Session) NotifyOpen(oid sobj.OID) error {
	w := wire.NewWriter(8)
	w.U64(uint64(oid))
	_, err := s.rc.Call(fsproto.MethodOpenFile, w.Bytes())
	return err
}

// NotifyClose ends an open registration.
func (s *Session) NotifyClose(oid sobj.OID) error {
	w := wire.NewWriter(8)
	w.U64(uint64(oid))
	_, err := s.rc.Call(fsproto.MethodCloseFile, w.Bytes())
	return err
}

// Chmod asks the TFS to change permission bits; hwProtect also narrows the
// extent ACLs (the expensive path of §7.2.1).
func (s *Session) Chmod(oid sobj.OID, perm uint32, hwProtect bool) error {
	w := wire.NewWriter(16)
	w.U64(uint64(oid))
	w.U32(perm)
	w.Bool(hwProtect)
	_, err := s.rc.Call(fsproto.MethodChmod, w.Bytes())
	return err
}
