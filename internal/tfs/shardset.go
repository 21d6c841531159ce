package tfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/journal"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/shard"
	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/wire"
)

// ShardSet runs N trusted-service shards over N scmmgr partitions of one
// volume. Each shard is a full Service — its own journal, allocator,
// reservation pool, group-commit leader, admission control, and transaction
// side-log — and owns exactly the objects whose header addresses fall in its
// partition (see internal/shard: placement is by construction). A machine
// with one trusted service is the set of one.
//
// Cross-shard operations (a rename whose two directories live on different
// shards, a removal whose child is linked from a foreign shard) cannot ride
// one shard's journal: half the batch would survive a crash without the
// other half. They run as a two-phase mini-transaction instead (TxApply):
//
//  1. The whole op list is planned once — under every shard's mutex, so the
//     plan sees a globally consistent snapshot — and the compiled journal
//     actions are split by owning shard.
//  2. Prepare: every participant except the coordinator appends its action
//     slice as a prepare record to its transaction side-log (a second,
//     small journal that survives main-journal checkpoints) and commits it.
//  3. Decide: the coordinator (lowest participating shard ID) journals its
//     own actions PLUS a jTxCommit marker as one ordinary main-journal
//     batch. That single fenced commit is the transaction's commit point.
//     Applying jTxCommit records the outcome in the coordinator's side-log.
//  4. Resolve: each participant journals its prepared actions plus a
//     jTxResolve marker as one ordinary batch and applies it; applying
//     jTxResolve writes a tombstone that retires the prepare record.
//
// Recovery rule for an orphaned prepare (the crash window between steps 2
// and 4): after each shard's normal journal replay, a prepare with no
// matching tombstone consults the coordinator's side-log. An outcome record
// there means the transaction committed — the participant journals and
// applies its prepared actions now; no outcome means it never committed —
// the participant writes an abort tombstone and the prepared actions are
// dropped. Both directions are idempotent (the markers re-applied during
// replay re-check the side-log state), so a crash during recovery itself
// re-resolves to the same outcome.
type ShardSet struct {
	mgr  *scmmgr.Manager
	proc *scmmgr.Process
	srv  *rpc.Server
	cfg  Config
	mem  *scm.Memory

	shards []*Service
	table  shard.Table
	// repoch is the routing epoch clients echo in every batch and prealloc
	// request; a mismatch means their shard table is stale. The topology is fixed for
	// a volume's lifetime today, so it only steps when the set restarts.
	repoch uint32

	Locks *lockservice.Service

	// txMu serializes cross-shard transactions (they take every shard's
	// mutex in ID order; the outer lock keeps two transactions from ever
	// interleaving their lock sweeps).
	txMu  sync.Mutex
	txGen uint64 // persisted restart generation (shard 0 superblock)
	txCtr uint64 // per-generation transaction counter
	// txParts lists a transaction's participant shards in ID order, under
	// txMu; the first is the coordinator.
	txParts []int

	// hdr stripes object-header access between one shard's plan (ancestor
	// and refcnt walks can cross shard boundaries, read under the shared
	// stripe) and another shard's apply (header writes, under the exclusive
	// stripe).
	hdr hdrLocks

	obsTxns     *obs.Counter // tfs.2pc.txns committed
	obsTxAborts *obs.Counter // tfs.2pc.aborts (live aborts + recovery aborts)
}

// hdrLocks is a striped RW mutex over object header words.
type hdrLocks struct {
	m [64]sync.RWMutex
}

func (h *hdrLocks) of(oid sobj.OID) *sync.RWMutex {
	return &h.m[(oid.Addr()>>12)%uint64(len(h.m))]
}

// Transaction side-log record kinds.
const (
	txRecPrepare uint8 = 1 // participant: actions staged, awaiting outcome
	txRecOutcome uint8 = 2 // coordinator: transaction committed
	txRecTomb    uint8 = 3 // participant: prepare retired (applied or aborted)
)

type txRec struct {
	kind  uint8
	txid  uint64
	coord uint32
	shard uint32
	acts  []byte // encoded actions; prepare records only
}

// appendTxRec appends the side-log record for r to dst.
func appendTxRec(dst []byte, r txRec) []byte {
	w := wire.WriterOn(dst)
	w.U8(r.kind)
	w.U64(r.txid)
	w.U32(r.coord)
	w.U32(r.shard)
	w.Bytes32(r.acts)
	return w.Bytes()
}

func decodeTxRec(p []byte) (txRec, error) {
	r := wire.NewReader(p)
	var rec txRec
	rec.kind = r.U8()
	rec.txid = r.U64()
	rec.coord = r.U32()
	rec.shard = r.U32()
	rec.acts = append([]byte(nil), r.Bytes32()...)
	if err := r.Finish(); err != nil {
		return rec, err
	}
	if rec.kind < txRecPrepare || rec.kind > txRecTomb {
		return rec, fmt.Errorf("tfs: unknown tx record kind %d", rec.kind)
	}
	return rec, nil
}

// txState is one shard's view of the transaction side-log: the log itself
// plus the live records (rebuilt by scanning on attach).
type txState struct {
	log       *journal.Log
	prepares  map[uint64][]byte // txid -> prepared action payload (attach only; see txPrepare)
	prepCoord map[uint64]uint32 // txid -> coordinator shard
	outcomes  map[uint64]bool   // coordinator side: committed transactions
	tombs     map[uint64]bool   // participant side: retired prepares
}

// attachTxLog opens the shard's side-log and rebuilds the live-record maps.
// Records are append-ordered, so a tombstone scanned after its prepare
// correctly retires it.
func attachTxLog(mem *scm.Memory, base uint64) (*txState, error) {
	log, err := journal.Attach(mem, base)
	if err != nil {
		return nil, err
	}
	t := &txState{
		log:       log,
		prepares:  make(map[uint64][]byte),
		prepCoord: make(map[uint64]uint32),
		outcomes:  make(map[uint64]bool),
		tombs:     make(map[uint64]bool),
	}
	if err := log.Replay(func(p []byte) error {
		rec, err := decodeTxRec(p)
		if err != nil {
			return err
		}
		switch rec.kind {
		case txRecPrepare:
			t.prepares[rec.txid] = rec.acts
			t.prepCoord[rec.txid] = rec.coord
		case txRecOutcome:
			t.outcomes[rec.txid] = true
		case txRecTomb:
			t.tombs[rec.txid] = true
			delete(t.prepares, rec.txid)
			delete(t.prepCoord, rec.txid)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// txAppend durably appends one record to the shard's side-log. The side-log
// is deliberately small; capacity is prechecked by TxApply, so overflow here
// means the caller's precheck was wrong — surface it as backpressure.
func (s *Service) txAppend(rec txRec) error {
	s.txRecBuf = appendTxRec(s.txRecBuf[:0], rec)
	if err := s.tx.log.Append(s.txRecBuf); err != nil {
		if errors.Is(err, journalFull) {
			return fmt.Errorf("%w: transaction side-log full", fsproto.ErrBusy)
		}
		return err
	}
	if err := s.tx.log.Commit(); err != nil {
		s.tx.log.Abort()
		return err
	}
	return nil
}

// txPrepare stages a participant's slice of a transaction: durable in the
// side-log before the coordinator is allowed to decide. The live entry
// keeps no copy of the actions: a prepare resolves in the transaction that
// made it, and one a failure leaves behind is resolved at the next attach,
// from the side-log, whose replay fills the actions in.
func (s *Service) txPrepare(txid uint64, coord uint32, payload []byte) error {
	if err := s.txAppend(txRec{kind: txRecPrepare, txid: txid, coord: coord, shard: uint32(s.shardID), acts: payload}); err != nil {
		return err
	}
	s.tx.prepares[txid] = nil
	s.tx.prepCoord[txid] = coord
	return nil
}

// txOutcome records "txid committed" in the coordinator's side-log. It is
// the apply-side of jTxCommit, and idempotent: replaying the marker after a
// crash finds the outcome already recorded and does nothing.
func (s *Service) txOutcome(txid uint64) error {
	if s.tx.outcomes[txid] {
		return nil
	}
	if err := s.txAppend(txRec{kind: txRecOutcome, txid: txid, coord: uint32(s.shardID), shard: uint32(s.shardID)}); err != nil {
		return err
	}
	s.tx.outcomes[txid] = true
	return nil
}

// txTombstone retires a prepare record (the apply-side of jTxResolve, also
// used directly for aborts). Idempotent like txOutcome.
func (s *Service) txTombstone(txid uint64, coord uint32) error {
	if s.tx.tombs[txid] {
		return nil
	}
	if err := s.txAppend(txRec{kind: txRecTomb, txid: txid, coord: coord, shard: uint32(s.shardID)}); err != nil {
		return err
	}
	s.tx.tombs[txid] = true
	delete(s.tx.prepares, txid)
	delete(s.tx.prepCoord, txid)
	return nil
}

// ServeShards attaches one Service per partition, recovers each shard's
// journal, resolves orphaned cross-shard prepares, and registers the RPC
// surface for the whole set. parts[i] becomes shard i; the order must be
// stable across restarts (core passes partitions in slot order).
func ServeShards(srv *rpc.Server, mgr *scmmgr.Manager, proc *scmmgr.Process, parts []scmmgr.PartitionID, cfg Config) (*ShardSet, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("tfs: no shard partitions")
	}
	set := &ShardSet{
		mgr: mgr, proc: proc, srv: srv, cfg: cfg, mem: mgr.Mem(),
		repoch: 1,
	}
	for i, part := range parts {
		info, err := mgr.Partition(part)
		if err != nil {
			return nil, err
		}
		set.table = append(set.table, shard.Range{Start: info.Start, Size: info.Size})
		pfx := ""
		if len(parts) > 1 {
			pfx = fmt.Sprintf("tfs.shard.%d.", i)
		}
		s, err := set.attachShard(i, part, pfx)
		if err != nil {
			return nil, fmt.Errorf("tfs: shard %d: %w", i, err)
		}
		set.shards = append(set.shards, s)
	}
	// Boot-time tenant policy: weights and quotas from config apply to every
	// shard (each enforces its own partition's share independently).
	for id, tc := range cfg.Tenants {
		for _, s := range set.shards {
			s.setTenant(id, tc)
		}
	}
	// Transaction IDs must never repeat across restarts (a stale prepare
	// must not collide with a fresh transaction's id), so shard 0 persists
	// a generation counter bumped once per attach.
	s0 := set.shards[0]
	gen, err := scm.Read64(set.mem, s0.sbBase+offSBTxGen)
	if err != nil {
		return nil, err
	}
	gen++
	if err := scm.Write64Flush(set.mem, s0.sbBase+offSBTxGen, gen); err != nil {
		return nil, err
	}
	set.txGen = gen
	// Per-shard redo replay first: the jTxCommit/jTxResolve markers inside
	// replayed batches re-check the side-log state scanned during attach.
	for _, s := range set.shards {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	// Cross-shard orphan resolution MUST precede prealloc scavenging: a
	// committed-but-unresolved prepare may consume tracked extents, and
	// scavenging them first would free storage the resolution then links.
	if err := set.resolveOrphans(); err != nil {
		return nil, err
	}
	for _, s := range set.shards {
		if err := s.scavengePreallocs(); err != nil {
			return nil, err
		}
	}
	set.Locks = lockservice.Serve(srv, lockservice.Config{
		Lease:          cfg.Lease,
		AcquireTimeout: cfg.AcquireTimeout,
		OnExpire:       func(client uint64) { set.dropClient(client) },
		Obs:            cfg.Obs,
		Domains:        len(set.shards),
		DomainOf: func(id uint64) int {
			if k := set.table.OfAddr(sobj.OID(id).Addr()); k >= 0 {
				return k
			}
			return 0
		},
	})
	set.obsTxns = cfg.Obs.Counter("tfs.2pc.txns")
	set.obsTxAborts = cfg.Obs.Counter("tfs.2pc.aborts")
	set.registerHandlers()
	return set, nil
}

// attachShard builds one shard's Service from its formatted partition:
// superblock decode, allocator and journal attach, side-log scan, metric
// resolution. Recovery is driven by ServeShards afterwards, in set order.
func (set *ShardSet) attachShard(id int, part scmmgr.PartitionID, pfx string) (*Service, error) {
	mgr, cfg := set.mgr, set.cfg
	mem := mgr.Mem()
	info, err := mgr.Partition(part)
	if err != nil {
		return nil, err
	}
	base := info.Start
	magic, err := scm.Read64(mem, base+offSBMagic)
	if err != nil {
		return nil, err
	}
	if magic != sbMagic {
		return nil, ErrNotFormatted
	}
	rootOID, _ := scm.Read64(mem, base+offSBRoot)
	jBase, _ := scm.Read64(mem, base+offSBJBase)
	bitmapAddr, _ := scm.Read64(mem, base+offSBBitmap)
	heapStart, _ := scm.Read64(mem, base+offSBHeap)
	heapSize, _ := scm.Read64(mem, base+offSBHeapSize)
	preOID, _ := scm.Read64(mem, base+offSBPrealloc)
	gid, _ := scm.Read32(mem, base+offSBGID)
	txBase, _ := scm.Read64(mem, base+offSBTxBase)
	if txBase == 0 {
		return nil, ErrNotFormatted
	}

	bd, err := alloc.Attach(mem, bitmapAddr, heapStart, heapSize)
	if err != nil {
		return nil, err
	}
	jl, err := journal.Attach(mem, jBase)
	if err != nil {
		return nil, err
	}
	preCol, err := sobj.OpenCollection(mem, sobj.OID(preOID))
	if err != nil {
		return nil, err
	}
	if cfg.MaxInflightBytes == 0 {
		cfg.MaxInflightBytes = 64 << 20
	}
	if cfg.MaxClientInflight == 0 {
		cfg.MaxClientInflight = 4
	}
	if cfg.RetryAfterHint == 0 {
		cfg.RetryAfterHint = 5 * time.Millisecond
	}
	s := &Service{
		mgr: mgr, proc: set.proc, part: part, mem: mem, cfg: cfg,
		srv: set.srv, bd: bd, jl: jl,
		root: sobj.OID(rootOID), preCol: preCol, gid: gid,
		heap:         [2]uint64{heapStart, heapSize},
		sbBase:       base,
		shardID:      id,
		set:          set,
		clients:      make(map[uint64]*clientState),
		gates:        make(map[uint64]*seqGate),
		openFiles:    make(map[sobj.OID]*openState),
		admPerClient: make(map[uint64]int),
		admTenBytes:  make(map[uint32]int64),
		tenants:      make(map[uint32]*tenantState),
		clientTen:    make(map[uint64]uint32),
		tenVft:       make(map[uint32]float64),
		faults:       cfg.Faults,
	}
	metric := func(name string) string {
		if pfx == "" {
			return name
		}
		return pfx + strings.TrimPrefix(name, "tfs.")
	}
	s.metric = metric
	s.obsBatchOps = cfg.Obs.Histogram(metric("tfs.batch.ops"))
	s.obsFsckRepairs = cfg.Obs.Counter(metric("tfs.fsck.repairs"))
	s.obsReserveBytes = cfg.Obs.Histogram(metric("tfs.reserve.bytes"))
	s.obsReserveWait = cfg.Obs.Histogram(metric("tfs.reserve.wait_ns"))
	s.obsReserveFallbks = cfg.Obs.Counter(metric("tfs.reserve.fallbacks"))
	s.obsSheds = cfg.Obs.Counter(metric("tfs.admission.sheds"))
	s.obsGroupBatches = cfg.Obs.Histogram(metric("tfs.groupcommit.batches"))
	s.obsGroupFences = cfg.Obs.Counter(metric("tfs.groupcommit.fences"))
	s.obsGroupCoalesced = cfg.Obs.Counter(metric("tfs.groupcommit.coalesced"))
	jl.SetFaults(cfg.Faults)
	jl.SetObs(cfg.Obs)
	bd.SetFaults(cfg.Faults)
	if s.tx, err = attachTxLog(mem, txBase); err != nil {
		return nil, err
	}
	return s, nil
}

// Shard returns shard i's Service.
func (set *ShardSet) Shard(i int) *Service { return set.shards[i] }

// Shards returns the shard count.
func (set *ShardSet) Shards() int { return len(set.shards) }

// JournalIdle reports whether no shard's redo journal holds a committed,
// un-checkpointed batch. With the one-group recovery invariant it must be
// true whenever the service is quiescent; the exhaustion sweep asserts it
// after every operation to prove no batch was stranded half-applied.
func (set *ShardSet) JournalIdle() bool {
	for _, s := range set.shards {
		s.mu.Lock()
		idle := s.jl.Empty()
		s.mu.Unlock()
		if !idle {
			return false
		}
	}
	return true
}

// RoutingEpoch returns the epoch clients must echo in batch headers and
// prealloc requests.
func (set *ShardSet) RoutingEpoch() uint32 { return set.repoch }

// ownerOf returns the shard whose partition contains addr, falling back to
// shard 0 for addresses outside every partition (validation will reject).
func (set *ShardSet) ownerOf(addr uint64) *Service {
	if k := set.table.OfAddr(addr); k >= 0 {
		return set.shards[k]
	}
	return set.shards[0]
}

// checkFrame validates a request's target shard and routing epoch.
func (set *ShardSet) checkFrame(shard, epoch uint32) error {
	if int(shard) >= len(set.shards) || epoch != set.repoch {
		return &fsproto.WrongShardError{Shard: shard % uint32(len(set.shards)), Epoch: set.repoch}
	}
	return nil
}

// actionAddr returns the SCM address that decides which shard applies a
// compiled action: extent actions carry the address directly; object
// actions route by the object's header address; transaction markers are
// shard-local bookkeeping and route nowhere.
func actionAddr(ac *action) uint64 {
	switch ac.code {
	case jFree, jPreallocAdd, jPreallocConsume:
		return ac.a
	case jTxCommit, jTxResolve:
		return 0
	default:
		return ac.oid.Addr()
	}
}

// checkHomeActs rejects a single-shard batch whose compiled actions touch
// storage outside the shard's partition. Honest clients route such groups
// through TxApply; this is the trusted side's defense against a client that
// lies about placement (the WrongShardError names the owning shard so a
// merely-stale client can re-route; an address no shard owns is a forgery,
// not a routing mistake, and fails validation). Callers hold s.mu.
func (s *Service) checkHomeActs(acts []action) error {
	for i := range acts {
		addr := actionAddr(&acts[i])
		if addr == 0 {
			continue
		}
		switch k := s.set.table.OfAddr(addr); {
		case k < 0:
			return fmt.Errorf("%w: action on unowned address %#x", ErrValidation, addr)
		case k != s.shardID:
			return &fsproto.WrongShardError{Shard: uint32(k), Epoch: s.set.repoch}
		}
	}
	return nil
}

// openStateFor resolves the open-file registration covering oid. Open-file
// state lives on the object's owning shard (OpenFile/CloseFile are routed
// there), so a plan on another shard must look it up remotely — legal only
// inside a cross-shard transaction, where every shard's mutex is held. On
// the normal path a foreign object is a routing error.
func (s *Service) openStateFor(oid sobj.OID) (*openState, error) {
	if k := s.set.table.OfAddr(oid.Addr()); k >= 0 && k != s.shardID {
		if !s.planAcrossShards {
			return nil, &fsproto.WrongShardError{Shard: uint32(k), Epoch: s.set.repoch}
		}
		return s.set.shards[k].openFiles[oid], nil
	}
	return s.openFiles[oid], nil
}

// preallocSize looks addr up in the client's pre-allocation pool. A
// cross-shard plan reads the pool of the shard owning addr; any other plan
// only this shard's, so a single-shard batch cannot consume a foreign
// shard's extent.
func (s *Service) preallocSize(client uint64, addr uint64) (uint64, bool) {
	owner := s
	if s.planAcrossShards {
		k := s.set.table.OfAddr(addr)
		if k < 0 {
			return 0, false
		}
		owner = s.set.shards[k]
	}
	st := owner.clients[client]
	if st == nil {
		return 0, false
	}
	size, ok := st.prealloc[addr]
	return size, ok
}

// dropPrealloc removes a consumed pre-allocation from the owning shard's
// per-client tracking (post-apply effect).
func (s *Service) dropPrealloc(client uint64, addr uint64) {
	owner := s
	if k := s.set.table.OfAddr(addr); k >= 0 {
		owner = s.set.shards[k]
	}
	if st := owner.clients[client]; st != nil {
		delete(st.prealloc, addr)
	}
}

// dropClient discards a departed client's state on every shard, then
// releases its locks once.
func (set *ShardSet) dropClient(client uint64) {
	for _, s := range set.shards {
		s.dropClientState(client)
	}
	if set.Locks != nil {
		set.Locks.ReleaseAll(client)
	}
}

// mount registers the client on every shard and returns the volume geometry
// with the placement table the client's router needs. The tenant binding is fixed at mount: later batches naming a different tenant
// are rejected (checkTenant), so one client cannot spend another tenant's
// quota or ride its scheduler weight.
func (set *ShardSet) mount(client uint64, uid uint32, tenant uint32) fsproto.MountReply {
	for _, s := range set.shards {
		s.mu.Lock()
		st := s.client(client)
		st.uid = uid
		s.mu.Unlock()
		s.setClientTenant(client, tenant)
	}
	set.srv.OnDisconnect(client, func() { set.dropClient(client) })
	s0 := set.shards[0]
	rep := fsproto.MountReply{
		Root:         s0.root,
		HeapStart:    s0.heap[0],
		HeapSize:     s0.heap[1],
		Partition:    uint32(s0.part),
		VolumeGID:    s0.gid,
		RoutingEpoch: set.repoch,
	}
	for _, s := range set.shards {
		rep.Shards = append(rep.Shards, fsproto.ShardInfo{
			Root:      s.root,
			HeapStart: s.heap[0],
			HeapSize:  s.heap[1],
			Partition: uint32(s.part),
		})
	}
	return rep
}

// Statfs aggregates space and object accounting across shards, with a
// per-shard row for each and the used bytes broken down by owner. Objects
// are attributed to their owning shard by header address. The rows come
// from fsck's reachability walk, run under every shard mutex — cheap for
// interactive `df`, not meant for per-request hot paths.
func (set *ShardSet) Statfs() (fsproto.StatfsReply, error) {
	for _, s := range set.shards {
		s.mu.Lock()
	}
	defer func() {
		for i := len(set.shards) - 1; i >= 0; i-- {
			set.shards[i].mu.Unlock()
		}
	}()
	w, err := set.walkReachable()
	if err != nil {
		return fsproto.StatfsReply{}, err
	}
	rep := fsproto.StatfsReply{Owners: w.owners()}
	rows := make([]fsproto.ShardStat, len(set.shards))
	for i, s := range set.shards {
		rows[i] = fsproto.ShardStat{
			TotalBytes:     s.bd.HeapSize(),
			FreeBytes:      s.bd.FreeBytes(),
			ReservedBytes:  s.bd.ReservedBytes(),
			Objects:        w.shardNS[i],
			BatchesApplied: uint64(s.BatchesApplied.Load()),
		}
		rep.TotalBytes += rows[i].TotalBytes
		rep.FreeBytes += rows[i].FreeBytes
		rep.ReservedBytes += rows[i].ReservedBytes
		rep.Objects += rows[i].Objects
		rep.BatchesApplied += rows[i].BatchesApplied
	}
	rep.Shards = rows
	return rep, nil
}

// Fsck runs a mark-and-sweep over the volume: every extent reachable from a
// shard's root namespace (plus tracked pre-allocations and open-but-unlinked
// files) is marked, then each shard's allocation bitmap is swept for
// unreachable blocks. With repair set, leaked blocks are freed. The service
// must be quiescent (no concurrent clients); run it right after recovery.
func (set *ShardSet) Fsck(repair bool) (FsckReport, error) {
	for _, s := range set.shards {
		s.mu.Lock()
	}
	defer func() {
		for i := len(set.shards) - 1; i >= 0; i-- {
			set.shards[i].mu.Unlock()
		}
	}()
	var rep FsckReport
	w, err := set.walkReachable()
	if err != nil {
		return rep, err
	}
	rep.Objects = w.objects
	rep.ReachableBlocks = w.marked
	for _, s := range set.shards {
		if err := s.fsckSweepLocked(&rep, w, repair); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// resolveOrphans applies the recovery rule to every prepare that survived
// the per-shard replays: commit it if the coordinator's side-log holds an
// outcome record, abort it otherwise. Must run after every shard's journal
// replay (the markers there can retire prepares) and before any prealloc
// scavenging (a committing prepare consumes tracked extents).
func (set *ShardSet) resolveOrphans() error {
	for _, s := range set.shards {
		txids := make([]uint64, 0, len(s.tx.prepares))
		for txid := range s.tx.prepares {
			txids = append(txids, txid)
		}
		sort.Slice(txids, func(i, j int) bool { return txids[i] < txids[j] })
		for _, txid := range txids {
			coordID := int(s.tx.prepCoord[txid])
			committed := false
			if coordID >= 0 && coordID < len(set.shards) && coordID != s.shardID {
				committed = set.shards[coordID].tx.outcomes[txid]
			}
			if !committed {
				set.obsTxAborts.Inc()
				if err := s.txTombstone(txid, uint32(coordID)); err != nil {
					return err
				}
				continue
			}
			acts, err := decodeActions(s.tx.prepares[txid])
			if err != nil {
				return err
			}
			acts = append(acts, action{code: jTxResolve, a: txid, b: uint64(coordID)})
			if err := s.reserveFor(&s.res, acts); err != nil {
				return err
			}
			err = s.commitActions(acts)
			if err == nil {
				err = s.applyAll(acts, &s.res, 0)
			}
			s.res.Release()
			if err != nil {
				return err
			}
		}
	}
	return set.txGCLocked()
}

// txGCLocked checkpoints every shard's side-log once no prepare anywhere is
// still pending (outcome and tombstone records exist only to resolve
// prepares; with none outstanding they are dead weight). Callers hold txMu
// or run single-threaded (recovery).
func (set *ShardSet) txGCLocked() error {
	for _, s := range set.shards {
		if len(s.tx.prepares) > 0 {
			return nil
		}
	}
	for _, s := range set.shards {
		if err := s.tx.log.Checkpoint(); err != nil {
			return err
		}
		clear(s.tx.outcomes)
		clear(s.tx.tombs)
	}
	return nil
}

// txApply runs a batch of ops that spans shards as a two-phase mini-
// transaction (see the ShardSet comment for the protocol and recovery
// rule). The client drains its pipelined windows first, so the transaction
// orders after everything the session already shipped. The ops decode into
// a recycled batch of shard 0, whose action buffer then holds the plan.
func (set *ShardSet) txApply(client uint64, payload []byte) error {
	s0 := set.shards[0]
	gb := s0.newBatch()
	err := set.txApplyBatch(gb, client, payload)
	s0.freeBatch(gb) // not on a crash panic: see ApplyBatch
	return err
}

// txApplyBatch is txApply into gb, a batch of shard 0.
func (set *ShardSet) txApplyBatch(gb *groupBatch, client uint64, payload []byte) error {
	s0 := set.shards[0]
	var err error
	if gb.ops, gb.keys, err = fsproto.DecodeOpsInto(gb.ops, gb.keys, payload); err != nil {
		return fmt.Errorf("%w: %v", ErrValidation, err)
	}
	// Cross-shard transactions pass the same weight-aware admission gate as
	// ordinary batches, accounted on shard 0 (the coordinator candidate):
	// an aggressor cannot sidestep overload shedding by routing everything
	// through TxApply.
	tenant := s0.clientTenant(client)
	if err := s0.admit(client, tenant, int64(len(payload))); err != nil {
		return err
	}
	defer s0.admitDone(client, tenant, int64(len(payload)))
	if len(set.shards) == 1 {
		// One-shard transaction: the ordinary group-commit batch is already
		// atomic. It rides outside the session's window (seq 0: no gate).
		return s0.runBatch(gb, client, tenant, 0, int64(len(payload)))
	}
	set.txMu.Lock()
	defer set.txMu.Unlock()
	// Every shard's mutex, in ID order: the plan reads cross-shard state
	// and the commit windows below must exclude every shard leader. Group
	// leaders never take a foreign shard's mutex, so the global order
	// cannot deadlock against them.
	for _, s := range set.shards {
		s.mu.Lock()
	}
	defer func() {
		for i := len(set.shards) - 1; i >= 0; i-- {
			set.shards[i].mu.Unlock()
		}
	}()
	return set.txApplyLocked(client, gb)
}

// txApplyLocked plans and commits gb's ops across shards. Each shard's
// part lives in that shard's scratch (acts, res, txDemand) and the
// participants in the set's txParts, all under the mutexes txApply holds.
func (set *ShardSet) txApplyLocked(client uint64, gb *groupBatch) error {
	// The mount-time tenant binding is identical on every shard; read it from
	// shard 0 and bill each participant shard's reservation against it.
	tenant := set.shards[0].clientTenant(client)
	// The plan checks each consumed extent against the prealloc pool of the
	// shard that owns it (preallocSize): a staged object's extents were
	// pre-allocated on its owning shard.
	host := set.shards[0]
	host.planAcrossShards = true
	acts, effects, err := host.plan(client, gb.ops, gb.acts, gb.effects)
	host.planAcrossShards = false
	if err != nil {
		host.opsRejected.Add(int64(len(gb.ops)))
		return err
	}
	gb.acts, gb.effects = acts, effects
	if len(acts) == 0 {
		return nil
	}
	// Split the compiled actions by owning shard, preserving each shard's
	// relative order (redo guards depend on in-shard ordering only).
	for _, s := range set.shards {
		s.acts = s.acts[:0]
	}
	for i := range acts {
		addr := actionAddr(&acts[i])
		if addr == 0 {
			return fmt.Errorf("%w: unroutable action %d", ErrValidation, acts[i].code)
		}
		k := set.table.OfAddr(addr)
		if k < 0 {
			return fmt.Errorf("%w: action on unowned address %#x", ErrValidation, addr)
		}
		set.shards[k].acts = append(set.shards[k].acts, acts[i])
	}
	participants := set.txParts[:0]
	for k, s := range set.shards {
		if len(s.acts) > 0 {
			participants = append(participants, k)
		}
	}
	set.txParts = participants
	coordID := participants[0]
	coord := set.shards[coordID]

	// Capacity precheck: every non-coordinator slice must fit its shard's
	// side-log as one prepare record.
	for _, k := range participants[1:] {
		s := set.shards[k]
		p := s.recordFor(s.acts)
		if max := s.tx.log.MaxPayload(); uint64(len(p))+32 > max {
			return fmt.Errorf("%w: %d-byte prepare, side-log fits %d",
				fsproto.ErrBatchTooLarge, len(p), max)
		}
	}
	// Worst-case space reservation per shard, charged against the tenant's
	// quota on each participant (every shard enforces its own partition).
	// The deferred settle credits back the unconsumed surplus per shard —
	// mid-transaction, TenantStat shows the reserved bytes on exactly the
	// participating shards and nowhere else.
	reserved := 0
	defer func() {
		for _, k := range participants[:reserved] {
			s := set.shards[k]
			s.obsReserveFallbks.Add(int64(s.res.Fallbacks()))
			s.res.Release()
			s.tenantReserveDone(tenant, s.txDemand, s.res.ConsumedBytes())
		}
	}()
	for _, k := range participants {
		s := set.shards[k]
		demand, rerr := s.reserveForTenant(&s.res, tenant, s.acts)
		if rerr != nil {
			return rerr
		}
		s.txDemand = demand
		reserved++
	}
	set.txCtr++
	txid := set.txGen<<32 | (set.txCtr & 0xffffffff)

	// Phase 1 — prepare: each non-coordinator participant makes its slice
	// durable in its side-log. An abort from here until the coordinator's
	// fenced commit only needs tombstones (nothing reached a main journal).
	prepared := participants[1:]
	abortPrepared := func(upto int) {
		set.obsTxAborts.Inc()
		for _, k := range prepared[:upto] {
			_ = set.shards[k].txTombstone(txid, uint32(coordID))
		}
	}
	for i, k := range prepared {
		s := set.shards[k]
		if perr := s.txPrepare(txid, uint32(coordID), s.recordFor(s.acts)); perr != nil {
			abortPrepared(i)
			return perr
		}
	}
	// Every prepare is durable; the transaction's fate now rests on the
	// coordinator's main-journal commit. A kill here must abort on reopen
	// (no outcome record exists).
	if ferr := coord.faults.Hit("tfs.2pc.prepare"); ferr != nil {
		abortPrepared(len(prepared))
		return ferr
	}
	// Phase 2 — decide: the coordinator's actions plus the jTxCommit
	// marker ride one ordinary fenced batch. The fence IS the commit point:
	// before it, recovery aborts every prepare; after it, replay applies
	// the marker, which records the outcome the participants resolve by.
	coord.acts = append(coord.acts, action{code: jTxCommit, a: txid})
	if cerr := coord.commitActions(coord.acts); cerr != nil {
		abortPrepared(len(prepared))
		return cerr
	}
	// Committed but not yet applied: a kill here replays the coordinator's
	// batch (marker included) and the prepares resolve to commit.
	if ferr := coord.faults.Hit("tfs.2pc.commit"); ferr != nil {
		return ferr
	}
	if aerr := coord.applyAll(coord.acts, &coord.res, tenant); aerr != nil {
		return aerr
	}
	// Outcome durable and coordinator applied; participants still hold
	// prepares. A kill here resolves them to commit on reopen.
	if ferr := coord.faults.Hit("tfs.2pc.resolve"); ferr != nil {
		return ferr
	}
	// Phase 3 — resolve: each participant journals its prepared actions
	// plus the jTxResolve marker as one batch; applying the marker retires
	// the prepare, atomically with the batch by replay.
	for _, k := range prepared {
		s := set.shards[k]
		s.acts = append(s.acts, action{code: jTxResolve, a: txid, b: uint64(coordID)})
		if cerr := s.commitActions(s.acts); cerr != nil {
			return cerr
		}
		if aerr := s.applyAll(s.acts, &s.res, tenant); aerr != nil {
			return aerr
		}
	}
	host.runEffects(client, acts, effects)
	for _, k := range participants {
		set.shards[k].BatchesApplied.Add(1)
	}
	coord.obsBatchOps.Observe(int64(len(gb.ops)))
	set.obsTxns.Inc()
	return set.txGCLocked()
}
