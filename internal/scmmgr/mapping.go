package scmmgr

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/aerie-fs/aerie/internal/scm"
)

var (
	_ scm.Slicer = (*Mapping)(nil)
	_ scm.Storer = (*Mapping)(nil)
)

// Process models a user process identity: a UID plus the user's group
// memberships, kept in a hash set exactly as the paper's run-time GID table
// (§5.2) so faults can decide access in O(1).
type Process struct {
	UID  uint32
	gids map[uint32]bool
}

// NewProcess creates a process identity with the given UID and groups.
// Every process is implicitly a member of the group equal to its UID.
func NewProcess(uid uint32, gids ...uint32) *Process {
	p := &Process{UID: uid, gids: make(map[uint32]bool, len(gids)+1)}
	p.gids[uid] = true
	for _, g := range gids {
		p.gids[g] = true
	}
	return p
}

// InGroup reports whether the process belongs to gid.
func (p *Process) InGroup(gid uint32) bool { return p.gids[gid] }

// Mapping is a partition mapped into one process. It implements scm.Space
// with hardware-style protection: each access consults a per-page soft TLB;
// misses fault into the manager, which checks the page's extent ACL against
// the process's groups. Mappings are safe for concurrent use by the
// process's threads: the TLB bitmaps are read with atomics and faults
// serialize on a mutex.
type Mapping struct {
	mgr       *Manager
	proc      *Process
	part      PartitionID
	start     uint64
	size      uint64
	firstPage uint64

	faultMu  sync.Mutex
	readable []uint64 // atomic bitmaps indexed by page - firstPage
	writable []uint64

	// lastRead caches the most recent successful read-permission check so a
	// sequential scan consults the TLB bitmap once per page instead of once
	// per access. It packs readEpoch<<32 | rel+1 (zero means empty): a hit
	// counts only when tagged with the current epoch, and invalidate()
	// bumps the epoch, so an entry seeded by a check that raced a shootdown
	// (it loaded the pre-bump epoch) can never be consulted afterwards —
	// clearing alone cannot guarantee that, because the racing reader could
	// store after the clear.
	lastRead  atomic.Uint64
	readEpoch atomic.Uint64
}

func (mp *Mapping) bit(bm []uint64, rel uint64) bool {
	return atomic.LoadUint64(&bm[rel/64])&(1<<(rel%64)) != 0
}

func (mp *Mapping) setBit(bm []uint64, rel uint64) {
	for {
		old := atomic.LoadUint64(&bm[rel/64])
		if atomic.CompareAndSwapUint64(&bm[rel/64], old, old|1<<(rel%64)) {
			return
		}
	}
}

func (mp *Mapping) clearBit(bm []uint64, rel uint64) bool {
	for {
		old := atomic.LoadUint64(&bm[rel/64])
		if old&(1<<(rel%64)) == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&bm[rel/64], old, old&^(1<<(rel%64))) {
			return true
		}
	}
}

// fault resolves access to a page not present in the soft TLB, as the
// manager's page-fault handler does (§5.2): compute the entry from the
// linear mapping and the extent tree's permissions.
func (mp *Mapping) fault(rel uint64, write bool) error {
	mp.faultMu.Lock()
	defer mp.faultMu.Unlock()
	// Re-check under the lock: another thread may have faulted it in.
	if write && mp.bit(mp.writable, rel) || !write && mp.bit(mp.readable, rel) {
		return nil
	}
	mp.mgr.Faults.Add(1)
	acl, err := mp.mgr.pageACL(mp.part, mp.firstPage+rel)
	if err != nil {
		return err
	}
	if !mp.proc.InGroup(acl.GID()) {
		return fmt.Errorf("%w: page %d gid %d not in process groups", ErrProtection, mp.firstPage+rel, acl.GID())
	}
	rights := acl.Rights()
	need := uint32(RightRead)
	if write {
		need = RightWrite
	}
	if rights&need == 0 {
		return fmt.Errorf("%w: page %d rights %#b, need %#b", ErrProtection, mp.firstPage+rel, rights, need)
	}
	if rights&RightRead != 0 {
		mp.setBit(mp.readable, rel)
	}
	if rights&RightWrite != 0 {
		mp.setBit(mp.writable, rel)
	}
	return nil
}

// access verifies rights over [addr, addr+n), faulting pages in as needed.
func (mp *Mapping) access(addr uint64, n int, write bool) error {
	if n < 0 || addr < mp.start || addr+uint64(n) > mp.start+mp.size || addr+uint64(n) < addr {
		return fmt.Errorf("%w: [%#x,+%d) outside mapping", ErrProtection, addr, n)
	}
	if n == 0 {
		return nil
	}
	first := (addr - mp.start) / scm.PageSize
	last := (addr + uint64(n) - 1 - mp.start) / scm.PageSize
	var epoch uint64
	if !write {
		// Load the epoch BEFORE consulting the bitmap. The store below is
		// tagged with this value, so if an invalidate() lands anywhere
		// between here and the store, the bumped epoch makes the entry
		// unconsultable — the cache can never outlive a shootdown.
		epoch = mp.readEpoch.Load()
		if first == last && mp.lastRead.Load() == epoch<<32|(first+1) {
			return nil
		}
	}
	bm := mp.readable
	if write {
		bm = mp.writable
	}
	for rel := first; rel <= last; rel++ {
		if !mp.bit(bm, rel) {
			if err := mp.fault(rel, write); err != nil {
				return err
			}
		}
	}
	if !write && last+1 < 1<<32 {
		mp.lastRead.Store(epoch<<32 | (last + 1))
	}
	return nil
}

// invalidate clears soft-TLB entries for npages pages starting at absolute
// page firstPage, returning how many entries were present (referenced), the
// count the manager charges shootdown cost for.
func (mp *Mapping) invalidate(firstPage uint64, npages int) int {
	referenced := 0
	for i := 0; i < npages; i++ {
		page := firstPage + uint64(i)
		if page < mp.firstPage || page >= mp.firstPage+mp.size/scm.PageSize {
			continue
		}
		rel := page - mp.firstPage
		r := mp.clearBit(mp.readable, rel)
		w := mp.clearBit(mp.writable, rel)
		if r || w {
			referenced++
		}
	}
	// Bump the read-cache epoch after dropping the bitmap bits. Hits are
	// honored only when tagged with the current epoch, so any cache entry
	// stored by an access racing this shootdown (it loaded the pre-bump
	// epoch) is dead the moment the bump lands, even if the store happens
	// after this line. An in-flight access may still complete with the old
	// permission — as a real TLB allows until the shootdown IPI is
	// acknowledged — but no access that starts afterwards can.
	mp.readEpoch.Add(1)
	return referenced
}

// Read implements scm.Space with read-permission checks.
func (mp *Mapping) Read(addr uint64, p []byte) error {
	if err := mp.access(addr, len(p), false); err != nil {
		return err
	}
	return mp.mgr.mem.Read(addr, p)
}

// Slice implements scm.Slicer with the same read-permission checks as Read:
// the soft TLB is consulted (or faulted) for every covered page before the
// zero-copy window is handed out. The window aliases the volatile image and
// must not be written through.
func (mp *Mapping) Slice(addr uint64, n int) ([]byte, error) {
	if err := mp.access(addr, n, false); err != nil {
		return nil, err
	}
	return mp.mgr.mem.Slice(addr, n)
}

// Write implements scm.Space with write-permission checks.
func (mp *Mapping) Write(addr uint64, p []byte) error {
	if err := mp.access(addr, len(p), true); err != nil {
		return err
	}
	return mp.mgr.mem.Write(addr, p)
}

// Store implements scm.Storer with the same write-permission checks as
// Write.
func (mp *Mapping) Store(addr uint64, v uint64, width int) error {
	if err := mp.access(addr, width, true); err != nil {
		return err
	}
	return mp.mgr.mem.Store(addr, v, width)
}

// WriteStream implements scm.Space with write-permission checks.
func (mp *Mapping) WriteStream(addr uint64, p []byte) error {
	if err := mp.access(addr, len(p), true); err != nil {
		return err
	}
	return mp.mgr.mem.WriteStream(addr, p)
}

// Flush implements scm.Space. Flushing requires no permission beyond the
// write that dirtied the lines. This call's charged latency is attributed
// to the client side: a mapping is by construction a user-process window,
// so everything flushed through it is library-file-system work, not TFS
// work. The per-call return is used rather than diffing the shared
// scm.charged_ns counter, which would misattribute concurrent flushers.
func (mp *Mapping) Flush(addr uint64, n int) error {
	charged, err := mp.mgr.mem.FlushCharged(addr, n)
	mp.mgr.mem.AddClientChargedNS(charged)
	return err
}

// BFlush implements scm.Space.
func (mp *Mapping) BFlush() {
	mp.mgr.mem.AddClientChargedNS(mp.mgr.mem.BFlushCharged())
}

// Fence implements scm.Space.
func (mp *Mapping) Fence() { mp.mgr.mem.Fence() }

// Atomic64 implements scm.Space with write-permission checks.
func (mp *Mapping) Atomic64(addr uint64, v uint64) error {
	if err := mp.access(addr, 8, true); err != nil {
		return err
	}
	return mp.mgr.mem.Atomic64(addr, v)
}

// Size implements scm.Space: the arena size (the mapping is linear, so
// addresses are arena-absolute; accesses outside the partition still fail
// the permission check).
func (mp *Mapping) Size() uint64 { return mp.mgr.mem.Size() }

// Partition returns the mapped partition's ID.
func (mp *Mapping) Partition() PartitionID { return mp.part }

// Base returns the first address of the mapped partition.
func (mp *Mapping) Base() uint64 { return mp.start }

// Span returns the mapped partition's address range. A sharded client
// session composes one mapping per shard partition and routes accesses by
// these ranges.
func (mp *Mapping) Span() (start, size uint64) { return mp.start, mp.size }

// Proc returns the owning process identity.
func (mp *Mapping) Proc() *Process { return mp.proc }
