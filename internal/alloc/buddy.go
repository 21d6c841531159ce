// Package alloc implements the TFS's buddy storage allocator (§5.3.7): it
// carves power-of-two extents out of a partition's data area. The free-list
// structure is volatile (rebuilt at attach time), while the authoritative
// allocation state is a persistent bitmap in SCM with one bit per minimum
// block. The TFS updates the bitmap only while applying journaled operations,
// so a crash never leaks blocks that no committed operation references.
package alloc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/scm"
)

// MinBlock is the smallest allocatable extent: one cache line, the minimum
// object size the OID encoding assumes (§5.3.1). Pages stay the protection
// unit; callers that protect an extent on its own allocate it as at least a
// page (see internal/sobj).
const MinBlock = scm.LineSize

const minOrder = 6 // log2(MinBlock)

// Errors.
var (
	ErrNoSpace  = errors.New("alloc: out of space")
	ErrBadFree  = errors.New("alloc: bad free")
	ErrTooLarge = errors.New("alloc: request exceeds heap")
)

// BitmapBytes returns the size of the persistent bitmap needed for a heap of
// heapSize bytes, rounded up to a cache line.
func BitmapBytes(heapSize uint64) uint64 {
	blocks := heapSize / MinBlock
	return (blocks/8 + scm.LineSize - 1) / scm.LineSize * scm.LineSize
}

// Buddy is a buddy allocator over [heapStart, heapStart+heapSize) with its
// allocation bitmap at bitmapAddr. Safe for concurrent use.
type Buddy struct {
	mem scm.Space
	// sl and st are mem's in-place load and by-value store capabilities
	// (nil when absent), resolved once: the bitmap is read and updated
	// without a scratch buffer crossing the Space interface.
	sl         scm.Slicer
	st         scm.Storer
	bitmapAddr uint64
	heapStart  uint64
	heapSize   uint64
	maxOrder   uint

	mu        sync.Mutex
	free      map[uint][]uint64 // order -> free block addresses (volatile)
	freeB     uint64            // free bytes
	reservedB uint64            // bytes held by open reservations

	faults *faultinject.Injector
}

// SetFaults installs a fault injector (nil-safe) hit on the allocation
// paths: "alloc.alloc" and "alloc.reserve".
func (b *Buddy) SetFaults(inj *faultinject.Injector) { b.faults = inj }

// Format zeroes the bitmap (everything free) and returns an attached
// allocator. The free lists are seeded with the whole heap directly: there
// is nothing to scan on a fresh bitmap.
func Format(mem scm.Space, bitmapAddr, heapStart, heapSize uint64) (*Buddy, error) {
	heapSize = heapSize / MinBlock * MinBlock
	if heapSize == 0 {
		return nil, fmt.Errorf("%w: empty heap", ErrNoSpace)
	}
	if err := scm.Zero(mem, bitmapAddr, int(BitmapBytes(heapSize))); err != nil {
		return nil, err
	}
	if err := mem.Flush(bitmapAddr, int(BitmapBytes(heapSize))); err != nil {
		return nil, err
	}
	b := attached(mem, bitmapAddr, heapStart, heapSize)
	b.insertRun(0, heapSize/MinBlock)
	return b, nil
}

// attached returns an allocator over the heap with empty free lists, for
// Format and Attach to fill.
func attached(mem scm.Space, bitmapAddr, heapStart, heapSize uint64) *Buddy {
	b := &Buddy{
		mem:        mem,
		sl:         scm.AsSlicer(mem),
		bitmapAddr: bitmapAddr,
		heapStart:  heapStart,
		heapSize:   heapSize,
		free:       make(map[uint][]uint64),
	}
	b.st, _ = mem.(scm.Storer)
	b.maxOrder = uint(bits.Len64(heapSize)) - 1
	return b
}

// Attach rebuilds the volatile free lists from the persistent bitmap, e.g.
// after a crash: maximal aligned free runs are decomposed greedily into
// buddy blocks. The bitmap is scanned a 64-bit word at a time, so an empty
// or full stretch of 64 blocks costs one load.
func Attach(mem scm.Space, bitmapAddr, heapStart, heapSize uint64) (*Buddy, error) {
	heapSize = heapSize / MinBlock * MinBlock
	b := attached(mem, bitmapAddr, heapStart, heapSize)
	nblocks := heapSize / MinBlock
	run, runStart := uint64(0), uint64(0)
	err := b.eachWord(func(blk, w uint64) {
		n := nblocks - blk
		if n > 64 {
			n = 64
		}
		if w == 0 {
			if run == 0 {
				runStart = blk
			}
			run += n
			return
		}
		if w == ^uint64(0) {
			if run > 0 {
				b.insertRun(runStart, run)
				run = 0
			}
			return
		}
		for i := uint64(0); i < n; i++ {
			if w&(1<<i) == 0 {
				if run == 0 {
					runStart = blk + i
				}
				run++
				continue
			}
			if run > 0 {
				b.insertRun(runStart, run)
				run = 0
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if run > 0 {
		b.insertRun(runStart, run)
	}
	return b, nil
}

// eachWord calls fn with every 64-block word of the bitmap and the index of
// its first block, in ascending order. Bits past the heap's end read as
// zero (Format clears them and nothing sets them). Callers that hold no
// lock run before the allocator is shared (Attach); others hold b.mu.
func (b *Buddy) eachWord(fn func(blk, w uint64)) error {
	nblocks := b.heapSize / MinBlock
	nbytes := int((nblocks + 7) / 8)
	var bm []byte
	if b.sl != nil {
		var err error
		if bm, err = b.sl.Slice(b.bitmapAddr, nbytes); err != nil {
			return err
		}
	} else {
		bm = make([]byte, nbytes)
		if err := b.mem.Read(b.bitmapAddr, bm); err != nil {
			return err
		}
	}
	for off := 0; off < nbytes; off += 8 {
		var w uint64
		if off+8 <= nbytes {
			w = scm.U64(bm[off:])
		} else {
			for i, c := range bm[off:] {
				w |= uint64(c) << (8 * i)
			}
		}
		fn(uint64(off)*8, w)
	}
	return nil
}

// insertRun decomposes a free run of blocks into maximal aligned buddy
// blocks and pushes them on the free lists.
func (b *Buddy) insertRun(startBlk, nblocks uint64) {
	blk := startBlk
	remaining := nblocks
	for remaining > 0 {
		// Largest order that is aligned at blk and fits in remaining.
		order := uint(minOrder)
		for order < b.maxOrder {
			sizeBlocks := uint64(1) << (order + 1 - minOrder)
			if blk%sizeBlocks != 0 || sizeBlocks > remaining {
				break
			}
			order++
		}
		sizeBlocks := uint64(1) << (order - minOrder)
		addr := b.heapStart + blk*MinBlock
		b.free[order] = append(b.free[order], addr)
		b.freeB += sizeBlocks * MinBlock
		blk += sizeBlocks
		remaining -= sizeBlocks
	}
}

func (b *Buddy) bitAt(blk uint64) (bool, error) {
	w, err := b.loadBytes(b.bitmapAddr+blk/8, 1)
	return w&(1<<(blk%8)) != 0, err
}

// setBits marks [blk, blk+n) allocated (v=true) or free (v=false) and
// flushes the touched bitmap bytes. The span is updated eight bytes at a
// time — loaded in place, stored by value — so no extent size allocates.
func (b *Buddy) setBits(blk, n uint64, v bool) error {
	firstByte := blk / 8
	lastByte := (blk + n - 1) / 8
	for lo := firstByte; lo <= lastByte; lo += 8 {
		span := lastByte - lo + 1
		if span > 8 {
			span = 8
		}
		// The bits of [blk, blk+n) that fall in this chunk.
		from, to := lo*8, (lo+span)*8
		if blk > from {
			from = blk
		}
		if blk+n < to {
			to = blk + n
		}
		mask := ^uint64(0) >> (64 - (to - from)) << (from - lo*8)
		addr := b.bitmapAddr + lo
		w, err := b.loadBytes(addr, int(span))
		if err != nil {
			return err
		}
		if v {
			w |= mask
		} else {
			w &^= mask
		}
		if err := b.storeBytes(addr, w, int(span)); err != nil {
			return err
		}
	}
	return b.mem.Flush(b.bitmapAddr+firstByte, int(lastByte-firstByte+1))
}

// loadBytes reads n ≤ 8 little-endian bitmap bytes at addr as one word.
func (b *Buddy) loadBytes(addr uint64, n int) (uint64, error) {
	var p []byte
	if b.sl != nil {
		var err error
		if p, err = b.sl.Slice(addr, n); err != nil {
			return 0, err
		}
	} else {
		p = make([]byte, n)
		if err := b.mem.Read(addr, p); err != nil {
			return 0, err
		}
	}
	var w uint64
	for i, c := range p {
		w |= uint64(c) << (8 * i)
	}
	return w, nil
}

// storeBytes writes w's low n bytes at addr.
func (b *Buddy) storeBytes(addr, w uint64, n int) error {
	if b.st != nil {
		return b.st.Store(addr, w, n)
	}
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(w >> (8 * i))
	}
	return b.mem.Write(addr, p)
}

// OrderFor returns the buddy order used for a request of size bytes.
func OrderFor(size uint64) uint {
	if size <= MinBlock {
		return minOrder
	}
	o := uint(bits.Len64(size - 1))
	return o
}

// BlockSize returns the byte size of a block of the given order.
func BlockSize(order uint) uint64 { return 1 << order }

// Alloc allocates an extent of at least size bytes, returning its address.
// The extent's actual size is BlockSize(OrderFor(size)).
func (b *Buddy) Alloc(size uint64) (uint64, error) {
	order := OrderFor(size)
	if order > b.maxOrder {
		return 0, fmt.Errorf("%w: %d bytes (order %d > max %d)", ErrTooLarge, size, order, b.maxOrder)
	}
	if err := b.faults.Hit("alloc.alloc"); err != nil {
		return 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.allocLocked(order)
}

// allocLocked pops a block of the given order and commits it to the bitmap.
func (b *Buddy) allocLocked(order uint) (uint64, error) {
	addr, err := b.popLocked(order)
	if err != nil {
		return 0, err
	}
	blk := (addr - b.heapStart) / MinBlock
	n := BlockSize(order) / MinBlock
	if err := b.setBits(blk, n, true); err != nil {
		// Roll the block back onto the free list.
		b.free[order] = append(b.free[order], addr)
		return 0, err
	}
	b.freeB -= BlockSize(order)
	return addr, nil
}

// popLocked removes a free block of exactly the given order from the free
// lists, splitting a larger block if needed. No bitmap writes: the block
// stays free in persistent state until the caller commits it.
func (b *Buddy) popLocked(order uint) (uint64, error) {
	o := order
	for o <= b.maxOrder && len(b.free[o]) == 0 {
		o++
	}
	if o > b.maxOrder {
		return 0, fmt.Errorf("%w: no free block of order %d", ErrNoSpace, order)
	}
	addr := b.free[o][len(b.free[o])-1]
	b.free[o] = b.free[o][:len(b.free[o])-1]
	for o > order {
		o--
		buddy := addr + BlockSize(o)
		b.free[o] = append(b.free[o], buddy)
	}
	return addr, nil
}

// pushLocked returns a block to the free lists, coalescing with free
// buddies. It does not touch the bitmap or the byte counters.
func (b *Buddy) pushLocked(addr uint64, order uint) {
	for order < b.maxOrder {
		buddy := b.heapStart + ((addr - b.heapStart) ^ BlockSize(order))
		if !b.removeFree(order, buddy) {
			break
		}
		if buddy < addr {
			addr = buddy
		}
		order++
	}
	b.free[order] = append(b.free[order], addr)
}

// Free returns an extent previously allocated with size bytes (the original
// request size; it is rounded to the same order). Buddies are coalesced.
func (b *Buddy) Free(addr, size uint64) error {
	order := OrderFor(size)
	if addr < b.heapStart || addr+BlockSize(order) > b.heapStart+b.heapSize {
		return fmt.Errorf("%w: [%#x,+%d) outside heap", ErrBadFree, addr, size)
	}
	if (addr-b.heapStart)%BlockSize(order) != 0 {
		return fmt.Errorf("%w: %#x misaligned for order %d", ErrBadFree, addr, order)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	blk := (addr - b.heapStart) / MinBlock
	// Double-free detection: the first block must be marked allocated.
	set, err := b.bitAt(blk)
	if err != nil {
		return err
	}
	if !set {
		return fmt.Errorf("%w: %#x already free", ErrBadFree, addr)
	}
	if err := b.setBits(blk, BlockSize(order)/MinBlock, false); err != nil {
		return err
	}
	b.freeB += BlockSize(order)
	b.pushLocked(addr, order)
	return nil
}

func (b *Buddy) removeFree(order uint, addr uint64) bool {
	list := b.free[order]
	for i, a := range list {
		if a == addr {
			list[i] = list[len(list)-1]
			b.free[order] = list[:len(list)-1]
			return true
		}
	}
	return false
}

// FreeBytes returns the total free space, excluding bytes held by open
// reservations.
func (b *Buddy) FreeBytes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.freeB
}

// ReservedBytes returns the bytes currently held by open reservations.
func (b *Buddy) ReservedBytes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reservedB
}

// HeapSize returns the managed heap size.
func (b *Buddy) HeapSize() uint64 { return b.heapSize }

// ForEachAllocated calls fn for every allocated minimum block's address, in
// ascending order, skipping free 64-block words whole. Used by fsck's
// mark-and-sweep.
func (b *Buddy) ForEachAllocated(fn func(addr uint64) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ferr error
	err := b.eachWord(func(blk, w uint64) {
		for ; w != 0 && ferr == nil; w &= w - 1 {
			ferr = fn(b.heapStart + (blk+uint64(bits.TrailingZeros64(w)))*MinBlock)
		}
	})
	if err != nil {
		return err
	}
	return ferr
}

// Reservation holds concrete blocks taken off the volatile free lists
// without any bitmap writes: persistent state still records them free, so a
// crash releases every open reservation for free (the free lists are rebuilt
// from the bitmap at attach). The TFS reserves a batch's worst-case demand
// before journaling it, then serves apply-time allocations from the
// reservation, guaranteeing a committed batch can never fail on space.
//
// A Reservation implements the same Alloc/Free contract as Buddy and is not
// safe for concurrent use with itself, matching the TFS's serialized apply.
type Reservation struct {
	b *Buddy
	// blocks lists the held blocks in the order they were taken. A batch
	// holds a handful, so a flat list searched linearly replaces a per-order
	// map, and the first few live in the reservation itself.
	blocks   []heldBlock
	inline   [8]heldBlock
	held     uint64 // bytes currently held (not yet consumed)
	fallback uint64 // allocs that fell through to the shared pool
	consumed uint64 // bytes actually drawn (held-serve + fallbacks)
}

type heldBlock struct {
	addr  uint64
	order uint
}

// take removes and returns the held block of the smallest order that is at
// least order, the most recently held among equals.
func (r *Reservation) take(order uint) (heldBlock, bool) {
	best := -1
	for i, h := range r.blocks {
		if h.order >= order && (best < 0 || h.order <= r.blocks[best].order) {
			best = i
		}
	}
	if best < 0 {
		return heldBlock{}, false
	}
	h := r.blocks[best]
	r.blocks = append(r.blocks[:best], r.blocks[best+1:]...)
	return h, true
}

// Reserve takes one block per requested size off the free lists into r,
// which must hold no blocks (new, or released): its counters start over and
// its block list is reused, so a caller that recycles one Reservation from
// batch to batch reserves without allocating. It either reserves the whole
// demand or nothing: on failure everything is returned and ErrNoSpace (or
// ErrTooLarge) is reported.
func (b *Buddy) Reserve(r *Reservation, sizes []uint64) error {
	if err := b.faults.Hit("alloc.reserve"); err != nil {
		return err
	}
	blocks := r.blocks[:0]
	if blocks == nil {
		blocks = r.inline[:0]
	}
	r.b, r.blocks = b, blocks
	r.held, r.fallback, r.consumed = 0, 0, 0
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, size := range sizes {
		order := OrderFor(size)
		var err error
		if order > b.maxOrder {
			err = fmt.Errorf("%w: %d bytes (order %d > max %d)", ErrTooLarge, size, order, b.maxOrder)
		} else {
			var addr uint64
			addr, err = b.popLocked(order)
			if err == nil {
				r.blocks = append(r.blocks, heldBlock{addr, order})
				sz := BlockSize(order)
				b.freeB -= sz
				b.reservedB += sz
				r.held += sz
				continue
			}
		}
		b.releaseLocked(r)
		return err
	}
	return nil
}

// releaseLocked returns every held block to the free lists.
func (b *Buddy) releaseLocked(r *Reservation) {
	for _, h := range r.blocks {
		b.pushLocked(h.addr, h.order)
		sz := BlockSize(h.order)
		b.freeB += sz
		b.reservedB -= sz
	}
	r.blocks = r.blocks[:0]
	if cap(r.blocks) > keepBlocks {
		r.blocks = nil // a reused reservation does not pin one huge batch's list
	}
	r.held = 0
}

// keepBlocks bounds the block list a released reservation keeps for its
// next Reserve (32 KiB). A steady-state batch on the benchmark suite holds
// at most 1 280 blocks.
const keepBlocks = 2048

// Alloc serves an allocation from the reservation: the block's bitmap bits
// are committed only now. If the reservation cannot cover the request (the
// worst-case estimate was wrong), it falls through to the shared pool; the
// Fallbacks counter records how often that happened.
func (r *Reservation) Alloc(size uint64) (uint64, error) {
	b := r.b
	order := OrderFor(size)
	if order > b.maxOrder {
		return 0, fmt.Errorf("%w: %d bytes (order %d > max %d)", ErrTooLarge, size, order, b.maxOrder)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := r.take(order)
	if !ok {
		r.fallback++
		addr, err := b.allocLocked(order)
		if err == nil {
			r.consumed += BlockSize(order)
		}
		return addr, err
	}
	addr := h.addr
	for o := h.order; o > order; {
		o--
		r.blocks = append(r.blocks, heldBlock{addr + BlockSize(o), o})
	}
	blk := (addr - b.heapStart) / MinBlock
	n := BlockSize(order) / MinBlock
	if err := b.setBits(blk, n, true); err != nil {
		r.blocks = append(r.blocks, heldBlock{addr, order})
		return 0, err
	}
	sz := BlockSize(order)
	b.reservedB -= sz
	r.held -= sz
	r.consumed += sz
	return addr, nil
}

// Free returns an extent to the shared pool (frees during apply — truncates,
// unlinks, table rehashes — are real frees, not reservation refills).
func (r *Reservation) Free(addr, size uint64) error { return r.b.Free(addr, size) }

// Release returns all unconsumed blocks to the free lists. Idempotent.
func (r *Reservation) Release() {
	b := r.b
	b.mu.Lock()
	defer b.mu.Unlock()
	b.releaseLocked(r)
}

// HeldBytes returns the bytes still held (reserved but not consumed).
func (r *Reservation) HeldBytes() uint64 {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	return r.held
}

// Fallbacks returns how many allocations bypassed the reservation because it
// could not cover them.
func (r *Reservation) Fallbacks() uint64 {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	return r.fallback
}

// ConsumedBytes returns the bytes actually drawn through this reservation —
// held blocks whose bitmap bits were committed plus fallback allocations.
// This is the batch's real space cost (the worst-case demand minus whatever
// Release returns), which the TFS charges against the batch's tenant.
func (r *Reservation) ConsumedBytes() uint64 {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	return r.consumed
}

// FragStats is a snapshot of the allocator's free-space fragmentation: how
// the free bytes are scattered across buddy orders. LargestFree is the
// biggest single extent allocatable right now; Index is 1 −
// LargestFree/FreeBytes, so 0 means all free space is one contiguous block
// and values near 1 mean the free space has shattered into minimum-order
// fragments — the signal of an aged allocator.
type FragStats struct {
	FreeBytes   uint64
	LargestFree uint64
	Fragments   uint64          // total free blocks across all orders
	PerOrder    map[uint]uint64 // order -> free block count
	Index       float64
}

// FragStats snapshots free-list fragmentation. Blocks held by open
// reservations are off the free lists and therefore excluded, matching
// FreeBytes.
func (b *Buddy) FragStats() FragStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := FragStats{FreeBytes: b.freeB, PerOrder: make(map[uint]uint64)}
	for order, list := range b.free {
		if len(list) == 0 {
			continue
		}
		st.PerOrder[order] = uint64(len(list))
		st.Fragments += uint64(len(list))
		if sz := BlockSize(order); sz > st.LargestFree {
			st.LargestFree = sz
		}
	}
	if st.FreeBytes > 0 {
		st.Index = 1 - float64(st.LargestFree)/float64(st.FreeBytes)
	}
	return st
}
