package tfs

import (
	"fmt"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// FsckReport summarizes an offline volume check.
type FsckReport struct {
	// Objects reachable from the root (collections + files).
	Objects int
	// ReachableBlocks is the number of minimum allocator blocks covered
	// by reachable extents (including tracked pre-allocations).
	ReachableBlocks int
	// AllocatedBlocks is the number marked allocated in the bitmap.
	AllocatedBlocks int
	// LeakedBlocks were allocated but unreachable (e.g. structural
	// maintenance interrupted by a crash between journal commit and
	// checkpoint; see internal/tfs/apply.go). Leaks waste space but are
	// harmless until repaired.
	LeakedBlocks int
	// LostBlocks are the dangerous inverse: reachable from the object
	// graph but marked free in the bitmap, so a future allocation could
	// hand live data to another owner. A correct volume never has any.
	LostBlocks int
	// LostAddrs lists the lost blocks' addresses (diagnostics).
	LostAddrs []uint64
	// RepairedBlocks were returned to the allocator (repair mode).
	RepairedBlocks int
}

func (r FsckReport) String() string {
	return fmt.Sprintf("fsck: %d objects, %d/%d blocks reachable, %d leaked, %d lost, %d repaired",
		r.Objects, r.ReachableBlocks, r.AllocatedBlocks, r.LeakedBlocks, r.LostBlocks, r.RepairedBlocks)
}

// fsckMarkLocked marks every min-block reachable from this shard's root
// namespace, pre-allocation tracking, and open-file registrations into
// reach. The walk may cross into other shards' storage (a directory here
// can reference a child there); reach is shared set-wide for that reason.
// Callers hold s.mu.
func (s *Service) fsckMarkLocked(rep *FsckReport, reach map[uint64]bool) error {
	markExtent := func(addr, size uint64) {
		actual := alloc.BlockSize(alloc.OrderFor(size))
		for a := addr; a < addr+actual; a += alloc.MinBlock {
			reach[a&^uint64(alloc.MinBlock-1)] = true
		}
	}

	var markObject func(oid sobj.OID, depth int) error
	markObject = func(oid sobj.OID, depth int) error {
		if depth > 64 {
			return fmt.Errorf("tfs fsck: namespace deeper than 64 levels")
		}
		exts, err := s.objectExtents(oid)
		if err != nil {
			return err
		}
		rep.Objects++
		for _, e := range exts {
			markExtent(e.Addr, e.Size)
		}
		if oid.Type() == sobj.TypeCollection {
			col, err := sobj.OpenCollection(s.mem, oid)
			if err != nil {
				return err
			}
			var children []sobj.OID
			if err := col.Iterate(func(_ []byte, val sobj.OID) error {
				children = append(children, val)
				return nil
			}); err != nil {
				return err
			}
			for _, child := range children {
				if err := markObject(child, depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := markObject(s.root, 0); err != nil {
		return err
	}
	// The pre-allocation tracking collection (its values are extent sizes,
	// not object IDs, so mark only its own extents) and every extent it
	// tracks.
	preExts, err := s.preCol.Extents()
	if err != nil {
		return err
	}
	rep.Objects++
	for _, e := range preExts {
		markExtent(e.Addr, e.Size)
	}
	if err := s.preCol.Iterate(func(key []byte, val sobj.OID) error {
		if len(key) == 8 {
			addr := uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
				uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
			markExtent(addr, uint64(val))
		}
		return nil
	}); err != nil {
		return err
	}
	// Open-but-unlinked files are live until closed.
	for oid := range s.openFiles {
		if err := markObject(oid, 0); err != nil {
			return err
		}
	}
	return nil
}

// fsckSweepLocked sweeps this shard's allocation bitmap against the (shared)
// reach map: allocated-but-unreachable blocks are leaks (freed under
// repair); reachable addresses inside this shard's heap that its bitmap
// says are free are lost blocks. Callers hold s.mu.
func (s *Service) fsckSweepLocked(rep *FsckReport, reach map[uint64]bool, repair bool) error {
	var leaked []uint64
	allocated := make(map[uint64]bool)
	if err := s.bd.ForEachAllocated(func(addr uint64) error {
		rep.AllocatedBlocks++
		allocated[addr] = true
		if !reach[addr] {
			leaked = append(leaked, addr)
		}
		return nil
	}); err != nil {
		return err
	}
	rep.LeakedBlocks += len(leaked)
	heapEnd := s.heap[0] + s.heap[1]
	for addr := range reach {
		if addr >= s.heap[0] && addr < heapEnd && !allocated[addr] {
			rep.LostAddrs = append(rep.LostAddrs, addr)
		}
	}
	rep.LostBlocks = len(rep.LostAddrs)
	if repair {
		for _, addr := range leaked {
			if err := s.bd.Free(addr, alloc.MinBlock); err != nil {
				return err
			}
			rep.RepairedBlocks++
			s.obsFsckRepairs.Inc()
		}
	}
	return nil
}
