// Package scmmgr implements the kernel component of Aerie: the SCM manager
// (§5.2). Its responsibilities are exactly those the paper assigns to the
// kernel — allocation of large static partitions, mapping partitions into
// processes, and page-granularity protection via extents — leaving all
// file-system logic to user mode.
//
// Protection model. An extent is a range of pages carrying a 32-bit ACL:
// the 30 high bits are a group identifier (GID), the low 2 bits are the
// memory rights (read, write). ACLs are stored in a three-level radix tree
// in SCM (the paper stores extents in a radix tree corresponding to the
// page-table layout). Each process mapping maintains a "soft TLB": the
// first touch of a page faults, looks up the page's ACL, checks the
// process's group memberships, and caches the decision; changing protection
// invalidates the cached entries of every mapping and charges the paper's
// measured TLB-shootdown cost per referenced page (§7.2.1), letting pages
// fault back in later — the paper's "page table as a giant software TLB".
package scmmgr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/scm"
)

// Rights bits in the low 2 bits of an ACL.
const (
	RightRead  = 1
	RightWrite = 2
)

// ACL packs a 30-bit GID with 2 rights bits, as in the paper (§5.2).
type ACL uint32

// MakeACL builds an ACL from a group ID and rights bits.
func MakeACL(gid uint32, rights uint32) ACL {
	return ACL(gid<<2 | rights&3)
}

// gid returns the group identifier.
func (a ACL) gid() uint32 { return uint32(a) >> 2 }

// rights returns the rights bits.
func (a ACL) rights() uint32 { return uint32(a) & 3 }

// Errors returned by the manager and mappings.
var (
	ErrProtection   = errors.New("scmmgr: protection violation")
	ErrNoPartition  = errors.New("scmmgr: no such partition")
	ErrBadMagic     = errors.New("scmmgr: arena not formatted")
	ErrSpace        = errors.New("scmmgr: out of manager space")
	ErrNotOwner     = errors.New("scmmgr: process does not own partition")
	ErrBadPartition = errors.New("scmmgr: bad partition geometry")
)

// On-SCM layout of the manager region at the start of the arena:
//
//	0x00 magic (u64)
//	0x08 bump pointer for radix pages (u64)
//	0x10 manager region size (u64)
//	0x18 partition count (u64)
//	0x40 partition table: maxPartitions slots of partSlotSize bytes
//	...  bump-allocated radix pages
const (
	magicValue    = 0xae81e5c300000001
	offMagic      = 0x00
	offBump       = 0x08
	offRegionSize = 0x10
	offPartCount  = 0x18
	offPartTable  = 0x40
	maxPartitions = 15
	partSlotSize  = 64

	// partition slot fields
	psStart    = 0  // u64 first byte of partition
	psSize     = 8  // u64 bytes
	psOwner    = 16 // u32 owner uid
	psFlags    = 20 // u32 (1 = in use)
	psACLRoot  = 24 // u64 addr of ACL radix root page
	psReserved = 32
)

const (
	radixFanout = 512  // u64 pointers per interior page
	leafACLs    = 1024 // u32 ACLs per leaf page
)

// PartitionID names a partition slot.
type PartitionID uint32

// PartitionInfo describes a partition.
type PartitionInfo struct {
	ID    PartitionID
	Start uint64
	Size  uint64
	Owner uint32
}

// Manager is the kernel SCM manager.
type Manager struct {
	mem   *scm.Memory
	costs *costmodel.Costs

	mu       sync.Mutex
	mappings []*Mapping

	// Stats
	Faults     costmodel.Counter
	Shootdowns costmodel.Counter
}

// format initializes the manager structures on a raw arena, reserving a
// manager region for the partition table and ACL radix pages. All prior
// contents are logically discarded.
func format(mem *scm.Memory) error {
	region := mem.Size() / 64
	if region < 64*1024 {
		region = 64 * 1024
	}
	if region > mem.Size()/2 {
		return fmt.Errorf("%w: arena %d too small", ErrBadPartition, mem.Size())
	}
	region = (region + scm.PageSize - 1) / scm.PageSize * scm.PageSize
	if err := scm.Zero(mem, 0, int(offPartTable+maxPartitions*partSlotSize)); err != nil {
		return err
	}
	firstBump := (offPartTable + maxPartitions*partSlotSize + scm.PageSize - 1) / scm.PageSize * scm.PageSize
	if err := scm.Write64(mem, offBump, uint64(firstBump)); err != nil {
		return err
	}
	if err := scm.Write64(mem, offRegionSize, region); err != nil {
		return err
	}
	if err := scm.Write64(mem, offPartCount, 0); err != nil {
		return err
	}
	if err := mem.Flush(0, int(offPartTable+maxPartitions*partSlotSize)); err != nil {
		return err
	}
	mem.Fence()
	return scm.Write64Flush(mem, offMagic, magicValue)
}

// Attach connects a manager to a formatted arena (e.g. after a reboot). The
// partition table is validated against the arena's actual size before any
// partition is trusted: a table that references bytes beyond the arena (a
// truncated or foreign image) is rejected rather than dereferenced.
func Attach(mem *scm.Memory, costs *costmodel.Costs) (*Manager, error) {
	magic, err := scm.Read64(mem, offMagic)
	if err != nil {
		return nil, err
	}
	if magic != magicValue {
		return nil, ErrBadMagic
	}
	m := &Manager{mem: mem, costs: costs}
	region, err := scm.Read64(mem, offRegionSize)
	if err != nil {
		return nil, err
	}
	if region < offPartTable+maxPartitions*partSlotSize || region > mem.Size() {
		return nil, fmt.Errorf("%w: manager region %d in arena of %d", ErrBadPartition, region, mem.Size())
	}
	parts, err := m.Partitions()
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		if p.Start < region || p.Size == 0 || p.Start+p.Size < p.Start || p.Start+p.Size > mem.Size() {
			return nil, fmt.Errorf("%w: partition %d spans [%#x,+%d) in arena of %d",
				ErrBadPartition, p.ID, p.Start, p.Size, mem.Size())
		}
	}
	return m, nil
}

// FormatAndAttach formats a raw arena and attaches a manager to it.
func FormatAndAttach(mem *scm.Memory, costs *costmodel.Costs) (*Manager, error) {
	if err := format(mem); err != nil {
		return nil, err
	}
	return Attach(mem, costs)
}

// Mem returns the privileged (unchecked) view of the arena, used only by
// the manager itself and by trusted in-kernel tests.
func (m *Manager) Mem() *scm.Memory { return m.mem }

func (m *Manager) slotAddr(id PartitionID) uint64 {
	return offPartTable + uint64(id)*partSlotSize
}

// allocRadixPage bump-allocates a zeroed page inside the manager region.
func (m *Manager) allocRadixPage() (uint64, error) {
	bump, err := scm.Read64(m.mem, offBump)
	if err != nil {
		return 0, err
	}
	region, err := scm.Read64(m.mem, offRegionSize)
	if err != nil {
		return 0, err
	}
	if bump+scm.PageSize > region {
		return 0, ErrSpace
	}
	if err := scm.Zero(m.mem, bump, scm.PageSize); err != nil {
		return 0, err
	}
	if err := m.mem.Flush(bump, scm.PageSize); err != nil {
		return 0, err
	}
	if err := scm.Write64Flush(m.mem, offBump, bump+scm.PageSize); err != nil {
		return 0, err
	}
	return bump, nil
}

// CreatePartition allocates a contiguous partition of size bytes (rounded up
// to pages) using first-fit after the manager region and existing
// partitions, owned by owner UID. As in the paper, partitions are few and
// large.
func (m *Manager) CreatePartition(size uint64, owner uint32) (PartitionID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	size = (size + scm.PageSize - 1) / scm.PageSize * scm.PageSize
	if size == 0 {
		return 0, fmt.Errorf("%w: zero size", ErrBadPartition)
	}
	region, err := scm.Read64(m.mem, offRegionSize)
	if err != nil {
		return 0, err
	}
	// First-fit scan over the gaps between existing partitions.
	type seg struct{ start, end uint64 }
	var used []seg
	used = append(used, seg{0, region})
	var freeSlot = PartitionID(maxPartitions)
	for id := PartitionID(0); id < maxPartitions; id++ {
		slot := m.slotAddr(id)
		flags, err := scm.Read32(m.mem, slot+psFlags)
		if err != nil {
			return 0, err
		}
		if flags&1 == 0 {
			if freeSlot == maxPartitions {
				freeSlot = id
			}
			continue
		}
		start, _ := scm.Read64(m.mem, slot+psStart)
		psz, _ := scm.Read64(m.mem, slot+psSize)
		used = append(used, seg{start, start + psz})
	}
	if freeSlot == maxPartitions {
		return 0, fmt.Errorf("%w: partition table full", ErrSpace)
	}
	// Sort used segments (tiny N; insertion sort).
	for i := 1; i < len(used); i++ {
		for j := i; j > 0 && used[j].start < used[j-1].start; j-- {
			used[j], used[j-1] = used[j-1], used[j]
		}
	}
	var start uint64
	found := false
	cursor := uint64(0)
	for _, s := range used {
		if s.start > cursor && s.start-cursor >= size {
			start, found = cursor, true
			break
		}
		if s.end > cursor {
			cursor = s.end
		}
	}
	if !found && m.mem.Size()-cursor >= size {
		start, found = cursor, true
	}
	if !found {
		return 0, fmt.Errorf("%w: no gap of %d bytes", ErrSpace, size)
	}
	aclRoot, err := m.allocRadixPage()
	if err != nil {
		return 0, err
	}
	slot := m.slotAddr(freeSlot)
	if err := scm.Write64(m.mem, slot+psStart, start); err != nil {
		return 0, err
	}
	if err := scm.Write64(m.mem, slot+psSize, size); err != nil {
		return 0, err
	}
	if err := scm.Write32(m.mem, slot+psOwner, owner); err != nil {
		return 0, err
	}
	if err := scm.Write64(m.mem, slot+psACLRoot, aclRoot); err != nil {
		return 0, err
	}
	if err := m.mem.Flush(slot, partSlotSize); err != nil {
		return 0, err
	}
	m.mem.Fence()
	// Publish with an atomic flag write, so a crash mid-create leaves the
	// slot unused.
	if err := scm.Write32(m.mem, slot+psFlags, 1); err != nil {
		return 0, err
	}
	if err := m.mem.Flush(slot+psFlags, 4); err != nil {
		return 0, err
	}
	return freeSlot, nil
}

// Partition returns metadata for a partition.
func (m *Manager) Partition(id PartitionID) (PartitionInfo, error) {
	if id >= maxPartitions {
		return PartitionInfo{}, ErrNoPartition
	}
	slot := m.slotAddr(id)
	flags, err := scm.Read32(m.mem, slot+psFlags)
	if err != nil {
		return PartitionInfo{}, err
	}
	if flags&1 == 0 {
		return PartitionInfo{}, ErrNoPartition
	}
	start, _ := scm.Read64(m.mem, slot+psStart)
	size, _ := scm.Read64(m.mem, slot+psSize)
	owner, _ := scm.Read32(m.mem, slot+psOwner)
	return PartitionInfo{ID: id, Start: start, Size: size, Owner: owner}, nil
}

// Partitions returns metadata for every live partition, in slot order. It is
// how a recovering service rediscovers its partition after reattaching to a
// persistent arena.
func (m *Manager) Partitions() ([]PartitionInfo, error) {
	var out []PartitionInfo
	for id := PartitionID(0); id < maxPartitions; id++ {
		info, err := m.Partition(id)
		if errors.Is(err, ErrNoPartition) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}

// aclAddr walks (allocating interior pages if create is set) to the address
// of the u32 ACL entry for absolute page number page.
func (m *Manager) aclAddr(id PartitionID, page uint64, create bool) (uint64, error) {
	slot := m.slotAddr(id)
	root, err := scm.Read64(m.mem, slot+psACLRoot)
	if err != nil {
		return 0, err
	}
	// Three levels: root (512) -> mid (512) -> leaf (1024 ACLs).
	idxRoot := page / (radixFanout * leafACLs)
	idxMid := page / leafACLs % radixFanout
	idxLeaf := page % leafACLs
	if idxRoot >= radixFanout {
		return 0, fmt.Errorf("%w: page %d beyond radix coverage", ErrBadPartition, page)
	}
	midPtr := root + idxRoot*8
	mid, err := scm.Read64(m.mem, midPtr)
	if err != nil {
		return 0, err
	}
	if mid == 0 {
		if !create {
			return 0, nil
		}
		mid, err = m.allocRadixPage()
		if err != nil {
			return 0, err
		}
		if err := scm.Write64Flush(m.mem, midPtr, mid); err != nil {
			return 0, err
		}
	}
	leafPtr := mid + idxMid*8
	leaf, err := scm.Read64(m.mem, leafPtr)
	if err != nil {
		return 0, err
	}
	if leaf == 0 {
		if !create {
			return 0, nil
		}
		leaf, err = m.allocRadixPage()
		if err != nil {
			return 0, err
		}
		if err := scm.Write64Flush(m.mem, leafPtr, leaf); err != nil {
			return 0, err
		}
	}
	return leaf + idxLeaf*4, nil
}

// pageACL reads the ACL for absolute page number page (0 if none). It takes
// the manager lock: a fault may walk the table while setACL rewrites it.
func (m *Manager) pageACL(id PartitionID, page uint64) (ACL, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	addr, err := m.aclAddr(id, page, false)
	if err != nil || addr == 0 {
		return 0, err
	}
	v, err := scm.Read32(m.mem, addr)
	return ACL(v), err
}

// checkInPartition verifies [addr, addr+n) lies inside partition info.
func checkInPartition(info PartitionInfo, addr uint64, n uint64) error {
	if addr < info.Start || addr+n > info.Start+info.Size || addr+n < addr {
		return fmt.Errorf("%w: [%#x,+%d) outside partition [%#x,+%d)",
			ErrProtection, addr, n, info.Start, info.Size)
	}
	return nil
}

// CreateExtent assigns acl to the npages pages starting at the page
// containing addr — the paper's scm_create_extent. Only a process with
// ownership of the partition (the TFS) may call it.
func (m *Manager) CreateExtent(proc *Process, id PartitionID, addr uint64, npages int, acl ACL) error {
	return m.setACL(proc, id, addr, npages, acl, false)
}

// MProtectExtent changes the protection on an existing extent — the paper's
// scm_mprotect_extent. It invalidates the soft-TLB entries of every mapping
// and charges the TLB-shootdown cost for each page that was referenced.
func (m *Manager) MProtectExtent(proc *Process, id PartitionID, addr uint64, npages int, acl ACL) error {
	return m.setACL(proc, id, addr, npages, acl, true)
}

func (m *Manager) setACL(proc *Process, id PartitionID, addr uint64, npages int, acl ACL, shoot bool) error {
	info, err := m.Partition(id)
	if err != nil {
		return err
	}
	if proc != nil && proc.uid != info.Owner {
		return ErrNotOwner
	}
	if err := checkInPartition(info, addr&^uint64(scm.PageSize-1), uint64(npages)*scm.PageSize); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	firstPage := addr / scm.PageSize
	for i := 0; i < npages; i++ {
		a, err := m.aclAddr(id, firstPage+uint64(i), true)
		if err != nil {
			return err
		}
		if err := scm.Write32(m.mem, a, uint32(acl)); err != nil {
			return err
		}
		if err := m.mem.Flush(a, 4); err != nil {
			return err
		}
	}
	if shoot {
		referenced := 0
		for _, mp := range m.mappings {
			referenced += mp.invalidate(firstPage, npages)
		}
		if referenced > 0 {
			m.Shootdowns.Add(int64(referenced))
			if m.costs != nil {
				costmodel.Spin(time.Duration(referenced) * m.costs.TLBShootdown)
			}
		}
	}
	return nil
}

// Mount maps a partition into a process — the paper's scm_mount_partition.
// The mapping is linear (virtual address == arena address) and the page
// table is populated lazily by faults.
func (m *Manager) Mount(proc *Process, id PartitionID) (*Mapping, error) {
	info, err := m.Partition(id)
	if err != nil {
		return nil, err
	}
	npages := info.Size / scm.PageSize
	mp := &Mapping{
		mgr:       m,
		proc:      proc,
		part:      id,
		start:     info.Start,
		size:      info.Size,
		firstPage: info.Start / scm.PageSize,
		readable:  make([]uint64, (npages+63)/64),
		writable:  make([]uint64, (npages+63)/64),
	}
	m.mu.Lock()
	m.mappings = append(m.mappings, mp)
	m.mu.Unlock()
	return mp, nil
}

// Unmount removes a mapping from the shootdown list.
func (m *Manager) Unmount(mp *Mapping) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, x := range m.mappings {
		if x == mp {
			m.mappings = append(m.mappings[:i], m.mappings[i+1:]...)
			return
		}
	}
}
