// Package tfs implements Aerie's Trusted File System service (§4.2, §5.3):
// the user-mode process that enforces metadata integrity and concurrency
// control for mutually distrustful clients. It owns the volume's buddy
// allocator and redo journal, runs the distributed lock service, validates
// client metadata-update batches (structure, locks held, allocations
// legitimate, namespace invariants), applies them crash-consistently, and
// tracks open-but-unlinked files and per-client pre-allocated objects
// (WAFL-style leak prevention, §5.3.7).
package tfs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/journal"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// Volume superblock, at the start of the partition:
//
//	0x00 u64 magic
//	0x08 u64 root collection OID
//	0x10 u64 journal base   0x18 u64 journal size
//	0x20 u64 alloc bitmap address
//	0x28 u64 heap start     0x30 u64 heap size
//	0x38 u64 prealloc-tracking collection OID
//	0x40 u32 volume GID
//	0x48 u64 transaction side-log base   0x50 u64 transaction side-log size
//	0x58 u64 transaction generation (bumped once per attach; shard 0 only)
//
// txBase == 0 marks a volume formatted before cross-shard transactions; such
// a volume runs single-shard with no side-log.
const (
	sbMagic       = 0xae81ef5000000001
	offSBMagic    = 0x00
	offSBRoot     = 0x08
	offSBJBase    = 0x10
	offSBJSize    = 0x18
	offSBBitmap   = 0x20
	offSBHeap     = 0x28
	offSBHeapSize = 0x30
	offSBPrealloc = 0x38
	offSBGID      = 0x40
	offSBTxBase   = 0x48
	offSBTxSize   = 0x50
	offSBTxGen    = 0x58
)

// Errors.
var (
	ErrNotFormatted = errors.New("tfs: volume not formatted")
	ErrValidation   = errors.New("tfs: validation failed")
	ErrLockCover    = errors.New("tfs: required lock not held")
	ErrNotPrealloc  = errors.New("tfs: extent was not pre-allocated to client")
	ErrCycle        = errors.New("tfs: rename would create a namespace cycle")
)

// Config tunes the service.
type Config struct {
	// JournalSize is the redo-log region size (default 4 MiB).
	JournalSize uint64
	// Lease and AcquireTimeout configure the lock service.
	Lease          time.Duration
	AcquireTimeout time.Duration
	// VolumeGID is the extent ACL group for the whole volume (default 100).
	VolumeGID uint32
	// Costs injects modeled latencies (may be nil).
	Costs *costmodel.Costs
	// MaxInflightBytes bounds the total encoded batch bytes admitted into
	// the service at once; requests over the limit are shed with
	// fsproto.ErrBusy (default 64 MiB, -1 disables). A single batch is
	// always admitted when nothing else is in flight, so the limit can
	// never wedge a client.
	MaxInflightBytes int64
	// MaxClientInflight bounds the per-client admitted request depth
	// (default 4, -1 disables).
	MaxClientInflight int
	// RetryAfterHint is the backpressure hint attached to shed requests
	// (default 5ms); the client's jittered backoff uses it as a floor.
	// Weight-aware shedding scales it by the tenant's backlog depth, and
	// quota rejections reuse it when a same-tenant reservation in flight
	// could release enough to admit a retry.
	RetryAfterHint time.Duration
	// Tenants is the boot-time tenant policy (weights and quotas), applied
	// to every shard before the service starts accepting requests. Policy
	// is volatile — MethodTenantCtl changes live only until restart, when
	// this map is re-applied. Unlisted tenants default to weight 1 with no
	// quota.
	Tenants map[uint32]TenantConfig
	// Faults, when non-nil, arms fault points on the service's mutation
	// paths (tfs.*), its journal (journal.*), and its allocator (alloc.*).
	// Nil in production.
	Faults *faultinject.Injector
	// Obs, when non-nil, wires per-layer observability: the service's
	// tfs.batch.ops histogram and tfs.fsck.repairs counter, plus the
	// journal and lock-service metrics (the sink is shared down the
	// stack so the breakdown can relate them).
	Obs *obs.Sink
}

// Service is a running TFS instance for one volume.
type Service struct {
	mgr  *scmmgr.Manager
	proc *scmmgr.Process // the TFS's privileged identity (partition owner)
	part scmmgr.PartitionID
	mem  *scm.Memory // privileged access
	cfg  Config

	srv   *rpc.Server
	Locks *lockservice.Service

	// mu serializes metadata validation, journaling, and application.
	mu     sync.Mutex
	bd     *alloc.Buddy
	jl     *journal.Log
	root   sobj.OID
	preCol *sobj.Collection // persistent pre-allocation tracking
	gid    uint32
	heap   [2]uint64 // start, size

	clients map[uint64]*clientState
	// openFiles tracks files kept alive while unlinked (§6.1).
	openFiles map[sobj.OID]*openState

	faults *faultinject.Injector

	// Sharding (shardset.go). Every Service is one shard of a ShardSet — a
	// machine with one service is a set of one — and shardID is its index
	// there. tx is the transaction side-log (nil on pre-sharding volumes), and
	// planAcrossShards widens plan's placement checks while a cross-shard
	// transaction holds every shard's mutex.
	set              *ShardSet
	shardID          int
	tx               *txState
	sbBase           uint64
	txBase, txSize   uint64
	planAcrossShards bool

	// Group commit (groupcommit.go): handler goroutines enqueue batches
	// under gqMu; the first enqueuer with no leader running becomes the
	// leader and drains the queue group by group under s.mu.
	gqMu     sync.Mutex
	groupq   []*groupBatch
	leaderOn bool
	// Scratch the commit path reuses from group to group instead of
	// allocating per batch: the leader's gathered group (guarded by
	// leadership), and under mu the staged list, the encoded journal record,
	// and the apply scheduler's last-toucher index.
	groupBuf  []*groupBatch
	stagedBuf []*groupBatch
	recordBuf []byte
	lastTouch map[sobj.OID]int

	// Per-client window sequence gates (groupcommit.go): pipelined sessions
	// ship several sequenced batches concurrently, and the gate makes their
	// server-side outcomes follow window order. Tracked outside mu so a
	// handler waiting for an out-of-order sibling never holds the service
	// mutex.
	gateMu sync.Mutex
	gates  map[uint64]*seqGate

	// Admission control (backpressure): tracked outside mu so shedding
	// happens before a request ever queues on the service mutex.
	// admTenBytes splits the admitted bytes by tenant for the weight-aware
	// overload degradation (reserve.go).
	admMu        sync.Mutex
	admBytes     int64
	admPerClient map[uint64]int
	admTenBytes  map[uint32]int64

	// Multi-tenancy (tenant.go): per-tenant policy (weight, quota), space
	// accounting, and the session -> tenant binding made at Mount. Guarded
	// by tenMu alone — never s.mu — so TenantRows stays readable while the
	// shard mutex is held, including mid-2PC.
	tenMu     sync.Mutex
	tenants   map[uint32]*tenantState
	clientTen map[uint64]uint32
	metric    func(string) string // shard-prefixed metric names

	// Weighted-fair queueing state, under gqMu: the scheduler's virtual
	// time and each tenant's last assigned virtual finish time
	// (groupcommit.go).
	vtime  float64
	tenVft map[uint32]float64

	// Stats.
	BatchesApplied costmodel.Counter
	OpsApplied     costmodel.Counter
	OpsRejected    costmodel.Counter
	BatchesShed    costmodel.Counter

	// Metrics resolved once in Serve; all nil when cfg.Obs is nil.
	obsBatchOps       *obs.Histogram // ops per applied batch
	obsFsckRepairs    *obs.Counter
	obsReserveBytes   *obs.Histogram // reserved bytes per admitted batch
	obsReserveWait    *obs.Histogram // ns from admission to reservation held
	obsReserveFallbks *obs.Counter   // apply allocs the reservation missed
	obsSheds          *obs.Counter   // requests shed with ErrBusy
	obsGroupBatches   *obs.Histogram // batches published per fence
	obsGroupFences    *obs.Counter   // fenced group commits
	obsGroupCoalesced *obs.Counter   // batches that shared a fence (groups >1)
	obsGroupParallel  *obs.Counter   // batches applied on scheduler workers
}

type clientState struct {
	uid      uint32
	prealloc map[uint64]uint64 // extent addr -> size
	// lastSeq is the highest window sequence number applied for this
	// session; a batch sequenced behind it is rejected.
	lastSeq uint64
}

type openState struct {
	opens    int
	unlinked bool
}

// FormatVolume lays out a fresh volume in the partition: superblock, redo
// journal, allocation bitmap, heap, root directory collection, and the
// pre-allocation tracking collection. The whole partition gets a
// volume-wide extent ACL so members of the volume group can read metadata
// and read/write data directly (per-object protection changes go through
// MethodChmod, which narrows extents).
func FormatVolume(mgr *scmmgr.Manager, proc *scmmgr.Process, part scmmgr.PartitionID, cfg Config) error {
	mem := mgr.Mem()
	info, err := mgr.Partition(part)
	if err != nil {
		return err
	}
	if cfg.JournalSize == 0 {
		cfg.JournalSize = 4 << 20
	}
	if cfg.VolumeGID == 0 {
		cfg.VolumeGID = 100
	}
	base := info.Start
	jBase := base + scm.PageSize
	jSize := cfg.JournalSize
	// Transaction side-log: small — it only ever holds prepare/outcome/
	// tombstone records for in-flight cross-shard transactions — but it must
	// clear the journal's minimum region (header + 4 pages).
	txSize := jSize / 8
	if txSize < 8*scm.PageSize {
		txSize = 8 * scm.PageSize
	}
	txBase := jBase + jSize
	bitmapAddr := txBase + txSize
	// Heap begins after the bitmap; compute with the final heap size.
	heapStart := bitmapAddr
	heapSize := uint64(0)
	for {
		// Iterate: bitmap size depends on heap size.
		hs := info.Start + info.Size - heapStart
		bm := alloc.BitmapBytes(hs)
		newStart := (bitmapAddr + bm + scm.PageSize - 1) / scm.PageSize * scm.PageSize
		if newStart == heapStart {
			heapSize = info.Start + info.Size - heapStart
			break
		}
		heapStart = newStart
	}
	heapSize = heapSize / alloc.MinBlock * alloc.MinBlock
	if heapSize < 16*alloc.MinBlock {
		return fmt.Errorf("tfs: partition too small for a volume")
	}
	// Volume-wide protection: group cfg.VolumeGID gets read/write.
	npages := int(info.Size / scm.PageSize)
	if err := mgr.CreateExtent(proc, part, info.Start, npages,
		scmmgr.MakeACL(cfg.VolumeGID, scmmgr.RightRead|scmmgr.RightWrite)); err != nil {
		return err
	}
	bd, err := alloc.Format(mem, bitmapAddr, heapStart, heapSize)
	if err != nil {
		return err
	}
	if _, err := journal.Format(mem, jBase, jSize); err != nil {
		return err
	}
	if _, err := journal.Format(mem, txBase, txSize); err != nil {
		return err
	}
	root, err := sobj.CreateCollection(mem, bd, 0755)
	if err != nil {
		return err
	}
	pre, err := sobj.CreateCollection(mem, bd, 0)
	if err != nil {
		return err
	}
	// Superblock fields, magic last.
	if err := scm.Write64(mem, base+offSBRoot, uint64(root.OID())); err != nil {
		return err
	}
	if err := scm.Write64(mem, base+offSBJBase, jBase); err != nil {
		return err
	}
	if err := scm.Write64(mem, base+offSBJSize, jSize); err != nil {
		return err
	}
	if err := scm.Write64(mem, base+offSBBitmap, bitmapAddr); err != nil {
		return err
	}
	if err := scm.Write64(mem, base+offSBHeap, heapStart); err != nil {
		return err
	}
	if err := scm.Write64(mem, base+offSBHeapSize, heapSize); err != nil {
		return err
	}
	if err := scm.Write64(mem, base+offSBPrealloc, uint64(pre.OID())); err != nil {
		return err
	}
	if err := scm.Write32(mem, base+offSBGID, cfg.VolumeGID); err != nil {
		return err
	}
	if err := scm.Write64(mem, base+offSBTxBase, txBase); err != nil {
		return err
	}
	if err := scm.Write64(mem, base+offSBTxSize, txSize); err != nil {
		return err
	}
	if err := scm.Write64(mem, base+offSBTxGen, 0); err != nil {
		return err
	}
	if err := mem.Flush(base, scm.PageSize); err != nil {
		return err
	}
	mem.Fence()
	return scm.Write64Flush(mem, base+offSBMagic, sbMagic)
}

// Root returns the volume's root collection OID.
func (s *Service) Root() sobj.OID { return s.root }

// VolumeGID returns the volume's extent ACL group.
func (s *Service) VolumeGID() uint32 { return s.gid }

// FreeBytes reports the allocator's free space (excluding open
// reservations).
func (s *Service) FreeBytes() uint64 { return s.bd.FreeBytes() }

// ReservedBytes reports bytes held by open admission reservations.
func (s *Service) ReservedBytes() uint64 { return s.bd.ReservedBytes() }

// FragStats reports the allocator's fragmentation profile (free-list shape,
// largest contiguous run, fragmentation index): how the buddy free lists
// have degraded under the workload so far.
func (s *Service) FragStats() alloc.FragStats { return s.bd.FragStats() }

// recover replays the redo journal after a crash.
func (s *Service) recover() error {
	// The fault point fires before the empty check so "crash at recovery
	// entry" is reachable even when there is nothing to replay.
	if err := s.faults.Hit("tfs.recover"); err != nil {
		return err
	}
	if s.jl.Empty() {
		return nil
	}
	// Replay frees are quarantined exactly like apply frees: until the
	// checkpoint erases the batch, a freed block keeps its bitmap bit so a
	// second replay (crash during this recovery) can only re-quarantine it,
	// never free a reused live block.
	df := &deferFrees{inner: tolerantAlloc{s.bd}}
	if err := s.jl.Replay(func(payload []byte) error {
		acts, err := decodeActions(payload)
		if err != nil {
			return err
		}
		for i := range acts {
			if err := s.applyAction(acts, i, df, true); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Between replay and checkpoint the journal still holds the batch; a
	// crash here forces the next recovery to replay it a second time, which
	// the idempotent-redo rules must absorb without allocating anything.
	if err := s.faults.Hit("tfs.recover.postreplay"); err != nil {
		return err
	}
	if err := s.jl.Checkpoint(); err != nil {
		return err
	}
	return df.release()
}

// scavengePreallocs frees every tracked pre-allocated extent.
func (s *Service) scavengePreallocs() error {
	type ent struct {
		addr, size uint64
	}
	var ents []ent
	if err := s.preCol.Iterate(func(key []byte, val sobj.OID) error {
		if len(key) != 8 {
			return fmt.Errorf("tfs: corrupt prealloc key")
		}
		addr := uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		ents = append(ents, ent{addr, uint64(val)})
		return nil
	}); err != nil {
		return err
	}
	for _, e := range ents {
		// A crash here leaves some orphans freed and some still tracked;
		// the next restart's scavenge must finish the job.
		if err := s.faults.Hit("tfs.scavenge"); err != nil {
			return err
		}
		if err := s.bd.Free(e.addr, e.size); err != nil && !errors.Is(err, alloc.ErrBadFree) {
			return err
		}
		if err := s.preCol.Remove(s.bd, addrKey(e.addr)); err != nil && !errors.Is(err, sobj.ErrNotFound) {
			return err
		}
	}
	return nil
}

func addrKey(addr uint64) []byte {
	return []byte{byte(addr), byte(addr >> 8), byte(addr >> 16), byte(addr >> 24),
		byte(addr >> 32), byte(addr >> 40), byte(addr >> 48), byte(addr >> 56)}
}

// dropClientState reclaims a departed client's shard-local state; the set
// drops every shard's state this way, then releases locks once (§4.3: lock
// revocation implicitly discards outstanding updates — the client's
// unshipped ones were never seen). The freed pre-allocations are credited
// back to the tenant the session mounted as.
func (s *Service) dropClientState(client uint64) {
	tenant := s.clientTenant(client)
	var credit uint64
	s.mu.Lock()
	st := s.clients[client]
	delete(s.clients, client)
	if st != nil {
		for addr, size := range st.prealloc {
			if err := s.bd.Free(addr, size); err == nil {
				_ = s.preCol.Remove(s.bd, addrKey(addr))
				credit += size
			}
		}
	}
	s.mu.Unlock()
	s.tenantCredit(tenant, credit)
	s.dropClientTenant(client)
}

func (s *Service) client(id uint64) *clientState {
	st := s.clients[id]
	if st == nil {
		st = &clientState{prealloc: make(map[uint64]uint64)}
		s.clients[id] = st
	}
	return st
}

// Prealloc allocates count extents of the given size for the client,
// journaled with tracking entries so a crash cannot leak them.
func (s *Service) Prealloc(client uint64, size uint64, count uint32) ([]uint64, error) {
	if count == 0 || count > 4096 || size == 0 || size > 64<<20 {
		return nil, fmt.Errorf("%w: prealloc %d x %d bytes", ErrValidation, count, size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.client(client)
	tenant := s.clientTenant(client)
	addrs := make([]uint64, 0, count)
	actual := alloc.BlockSize(alloc.OrderFor(size))
	// Pre-allocated extents bypass the batch reservation path, so their
	// quota charge happens here: the worst case up front (batch-atomic,
	// before any block is allocated), settled on exit by whether the
	// extents actually stayed allocated.
	extentB := uint64(count) * actual
	if err := s.tenantReserve(tenant, extentB); err != nil {
		return nil, err
	}
	charged := extentB
	defer func() { s.tenantReserveDone(tenant, extentB, charged) }()
	rollback := func() {
		for _, got := range addrs {
			_ = s.bd.Free(got, actual)
		}
		charged = 0
	}
	for i := uint32(0); i < count; i++ {
		a, err := s.bd.Alloc(size)
		if err != nil {
			rollback()
			if errors.Is(err, alloc.ErrNoSpace) || errors.Is(err, alloc.ErrTooLarge) {
				return nil, fmt.Errorf("%w: prealloc %dx%d: %v", fsproto.ErrNoSpace, count, size, err)
			}
			return nil, err
		}
		addrs = append(addrs, a)
	}
	// Journal and track.
	var acts []action
	for _, a := range addrs {
		acts = append(acts, action{code: jPreallocAdd, a: a, b: actual})
	}
	// Reserve the tracking inserts' worst case before commit so apply
	// cannot fail on space.
	res, demand, err := s.reserveForTenant(tenant, acts)
	if err != nil {
		rollback()
		return nil, err
	}
	defer func() {
		s.obsReserveFallbks.Add(int64(res.Fallbacks()))
		res.Release()
		s.tenantReserveDone(tenant, demand, res.ConsumedBytes())
	}()
	if err := s.commitActions(acts); err != nil {
		rollback()
		return nil, err
	}
	// Tracking entries are committed but not yet applied; a crash here
	// must still reclaim the extents via replay + scavenge.
	if err := s.faults.Hit("tfs.prealloc.postcommit"); err != nil {
		return nil, err
	}
	if err := s.applyAll(acts, res, tenant); err != nil {
		return nil, err
	}
	for _, a := range addrs {
		st.prealloc[a] = actual
	}
	return addrs, nil
}

// OpenFile notes that a client has the file open while releasing its lock
// (§6.1): the file must survive unlink until closed.
func (s *Service) OpenFile(client uint64, oid sobj.OID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.openFiles[oid]
	if st == nil {
		st = &openState{}
		s.openFiles[oid] = st
	}
	st.opens++
}

// CloseFile ends an open-file registration; the last close of an unlinked
// file reclaims its storage.
func (s *Service) CloseFile(client uint64, oid sobj.OID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.openFiles[oid]
	if st == nil {
		return nil
	}
	st.opens--
	if st.opens > 0 {
		return nil
	}
	delete(s.openFiles, oid)
	if st.unlinked {
		return s.destroyObject(oid)
	}
	return nil
}

// Chmod updates FS-level permission bits; when hwProtect is set it also
// narrows the memory protection of the object's extents (the expensive
// path measured in §7.2.1).
func (s *Service) Chmod(client uint64, oid sobj.OID, perm uint32, hwProtect bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := sobj.ReadHeader(s.mem, oid); err != nil {
		return err
	}
	acts := []action{{code: jSetPerm, oid: oid, a: uint64(perm)}}
	if err := s.commitActions(acts); err != nil {
		return err
	}
	if err := s.faults.Hit("tfs.chmod.postcommit"); err != nil {
		return err
	}
	if err := s.applyAll(acts, s.bd, s.clientTenant(client)); err != nil {
		return err
	}
	if hwProtect {
		rights := uint32(0)
		if perm&0444 != 0 {
			rights |= scmmgr.RightRead
		}
		if perm&0222 != 0 {
			rights |= scmmgr.RightWrite
		}
		newACL := scmmgr.MakeACL(s.gid, rights)
		// FS perm bits are durable but the extent ACLs are not yet
		// narrowed — the window the paper closes by redoing protection
		// from the journaled perm on recovery.
		if err := s.faults.Hit("tfs.chmod.protect"); err != nil {
			return err
		}
		if err := s.protectObjectExtents(oid, newACL); err != nil {
			return err
		}
	}
	return nil
}

// protectObjectExtents applies acl to the pages of every extent of oid
// (§5.3.3: the service propagates protection down to the object's extents).
func (s *Service) protectObjectExtents(oid sobj.OID, acl scmmgr.ACL) error {
	mprot := func(addr, size uint64) error {
		npages := int((size + scm.PageSize - 1) / scm.PageSize)
		pageAddr := addr &^ uint64(scm.PageSize-1)
		return s.mgr.MProtectExtent(s.proc, s.part, pageAddr, npages, acl)
	}
	switch oid.Type() {
	case sobj.TypeMFile:
		m, err := sobj.OpenMFile(s.mem, oid)
		if err != nil {
			return err
		}
		size, err := m.Size()
		if err != nil {
			return err
		}
		bs, err := m.BlockSize()
		if err != nil {
			return err
		}
		if single, _ := m.IsSingle(); single {
			ext, err := m.ExtentFor(0)
			if err != nil {
				return err
			}
			if ext != 0 {
				return mprot(ext, size)
			}
			return nil
		}
		for off := uint64(0); off < size; off += bs {
			ext, err := m.ExtentFor(off)
			if err != nil {
				return err
			}
			if ext != 0 {
				if err := mprot(ext, bs); err != nil {
					return err
				}
			}
		}
		return nil
	case sobj.TypeCollection:
		// Protect the head page; table extents keep the volume ACL so
		// other readers can still traverse if FS-level perms allow.
		return mprot(oid.Addr(), scm.PageSize)
	default:
		return fmt.Errorf("%w: chmod on %v", ErrValidation, oid)
	}
}

// destroyObject frees an object's storage.
func (s *Service) destroyObject(oid sobj.OID) error {
	switch oid.Type() {
	case sobj.TypeCollection:
		c, err := sobj.OpenCollection(s.mem, oid)
		if err != nil {
			return err
		}
		return c.Destroy(s.bd)
	case sobj.TypeMFile:
		m, err := sobj.OpenMFile(s.mem, oid)
		if err != nil {
			return err
		}
		return m.Destroy(s.bd)
	}
	return fmt.Errorf("%w: destroy %v", ErrValidation, oid)
}
