package tfs

import (
	"fmt"
	"math/bits"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/fsproto"
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

// reachWalk is the one walk over everything reachable on a shard set, shared
// by fsck's mark phase and Statfs's per-owner space rows. Each extent's
// minimum blocks are marked in a bitset shaped like its shard's allocation
// bitmap, and the bytes it newly marks are charged to its owner — so an
// object reached twice (two links, or linked and also open) is counted
// once, by the first owner that reached it.
type reachWalk struct {
	set  *ShardSet
	bits [][]uint64 // per shard: one bit per minimum block of its heap

	marked  int              // blocks marked
	objects int              // objects walked
	shardNS []uint64         // namespace objects, by owning shard
	bytes   [ownCount]uint64 // newly marked bytes, by owner
}

// owner is the Statfs row an extent's bytes are charged to.
type owner int

const (
	ownByType owner = iota // namespace objects: the head, then by object type
	ownHeads
	ownTables
	ownFiles
	ownTracking
	ownPrealloc
	ownUnlinked
	ownCount
)

// owners returns the walk's bytes as Statfs's rows.
func (w *reachWalk) owners() fsproto.SpaceOwners {
	b := &w.bytes
	return fsproto.SpaceOwners{Heads: b[ownHeads], Tables: b[ownTables], FileData: b[ownFiles],
		Tracking: b[ownTracking], Prealloc: b[ownPrealloc], Unlinked: b[ownUnlinked]}
}

// walkReachable marks everything reachable on the set, in owner order:
// every shard's root namespace, then each shard's pre-allocation tracking
// collection and the extents it tracks, then open-but-unlinked files.
// Reachability is a whole-volume property — a directory on one shard links
// children on any shard — so the walk crosses shards freely. Callers hold
// every shard's mutex.
func (set *ShardSet) walkReachable() (*reachWalk, error) {
	w := &reachWalk{
		set:     set,
		bits:    make([][]uint64, len(set.shards)),
		shardNS: make([]uint64, len(set.shards)),
	}
	for i, s := range set.shards {
		w.bits[i] = make([]uint64, (s.heap[1]/alloc.MinBlock+63)/64)
	}
	for _, s := range set.shards {
		if err := w.object(s, s.root, 0, ownByType); err != nil {
			return nil, err
		}
	}
	for _, s := range set.shards {
		// The tracking collection's values are extent sizes, not object
		// IDs: walk its own extents, then every extent it tracks.
		preExts, err := s.preCol.Extents(nil)
		if err != nil {
			return nil, err
		}
		w.objects++
		for _, e := range preExts {
			w.mark(e.Addr, e.Size, ownTracking)
		}
		if err := s.preCol.Iterate(func(key []byte, val sobj.OID) error {
			if len(key) == 8 {
				w.mark(keyAddr(key), uint64(val), ownPrealloc)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	for _, s := range set.shards {
		// Open files are live until closed; the ones still linked were
		// marked above and add nothing here.
		for oid := range s.openFiles {
			if err := w.object(s, oid, 0, ownUnlinked); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// object marks oid's extents and, for a collection, its children's,
// charging them to own (ownByType: the head to ownHeads, the rest by object
// type).
func (w *reachWalk) object(s *Service, oid sobj.OID, depth int, own owner) error {
	if depth > 64 {
		return fmt.Errorf("tfs: namespace deeper than 64 levels")
	}
	exts, err := s.objectExtents(oid)
	if err != nil {
		return err
	}
	w.objects++
	if own == ownByType {
		if k := w.set.table.OfAddr(oid.Addr()); k >= 0 {
			w.shardNS[k]++
		}
	}
	for i, e := range exts {
		o := own
		switch {
		case o != ownByType:
		case i == 0:
			o = ownHeads
		case oid.Type() == sobj.TypeCollection:
			o = ownTables
		default:
			o = ownFiles
		}
		w.mark(e.Addr, e.Size, o)
	}
	if oid.Type() != sobj.TypeCollection {
		return nil
	}
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
		if err := w.object(s, child, depth+1, own); err != nil {
			return err
		}
	}
	return nil
}

// mark sets the bits of the block an extent of size bytes at addr
// occupies and charges the newly set bytes to own. Addresses outside every
// shard's heap mark nothing.
func (w *reachWalk) mark(addr, size uint64, own owner) {
	k := w.set.table.OfAddr(addr)
	if k < 0 {
		return
	}
	heap := w.set.shards[k].heap
	if addr < heap[0] || addr >= heap[0]+heap[1] {
		return
	}
	bm := w.bits[k]
	first := (addr - heap[0]) / alloc.MinBlock
	end := first + alloc.BlockSize(alloc.OrderFor(size))/alloc.MinBlock
	if max := uint64(len(bm)) * 64; end > max {
		end = max
	}
	newly := 0
	for blk := first; blk < end; {
		n := 64 - blk%64
		if n > end-blk {
			n = end - blk
		}
		mask := ^uint64(0) >> (64 - n) << (blk % 64)
		newly += bits.OnesCount64(mask &^ bm[blk/64])
		bm[blk/64] |= mask
		blk += n
	}
	w.marked += newly
	w.bytes[own] += uint64(newly) * alloc.MinBlock
}

// keyAddr decodes a tracking-collection key (see addrKey).
func keyAddr(key []byte) uint64 {
	return uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
		uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
}

// fsckSweepLocked sweeps this shard's allocation bitmap against the walk's
// reach bits: allocated-but-unreachable blocks are leaks (freed under
// repair); reachable blocks its bitmap says are free are lost blocks.
// Callers hold s.mu.
func (s *Service) fsckSweepLocked(rep *FsckReport, w *reachWalk, repair bool) error {
	reach := w.bits[s.shardID]
	allocated := make([]uint64, len(reach))
	var leaked []uint64
	if err := s.bd.ForEachAllocated(func(addr uint64) error {
		blk := (addr - s.heap[0]) / alloc.MinBlock
		rep.AllocatedBlocks++
		allocated[blk/64] |= 1 << (blk % 64)
		if reach[blk/64]&(1<<(blk%64)) == 0 {
			leaked = append(leaked, addr)
		}
		return nil
	}); err != nil {
		return err
	}
	rep.LeakedBlocks += len(leaked)
	for i, r := range reach {
		for lost := r &^ allocated[i]; lost != 0; lost &= lost - 1 {
			blk := uint64(i)*64 + uint64(bits.TrailingZeros64(lost))
			rep.LostAddrs = append(rep.LostAddrs, s.heap[0]+blk*alloc.MinBlock)
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
