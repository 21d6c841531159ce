package sobj

import (
	"fmt"

	"github.com/aerie-fs/aerie/internal/scm"
)

// Extent describes one storage extent of an object, with the size that was
// requested from the allocator (so frees land in the same buddy class).
type Extent struct {
	Addr uint64
	Size uint64
}

// Extents appends every extent of the collection — head, table, and
// overflow extents — to dst. The TFS uses the list to journal deterministic
// frees when an object is destroyed, into a buffer it reuses.
func (c *Collection) Extents(dst []Extent) ([]Extent, error) {
	table, nb, err := c.table()
	if err != nil {
		return dst, err
	}
	dst = append(dst,
		Extent{Addr: c.oid.Addr(), Size: colHeadAlloc},
		Extent{Addr: table, Size: TableSizeFor(nb)})
	err = c.eachOverflow(table, nb, func(addr uint64) {
		dst = append(dst, Extent{Addr: addr, Size: ovfSize})
	})
	return dst, err
}

// eachOverflow calls fn with the address of every overflow extent chained
// off the table's buckets.
func (c *Collection) eachOverflow(table uint64, nb uint32, fn func(addr uint64)) error {
	for b := uint32(0); b < nb; b++ {
		n := primaryNode(table + uint64(b)*bucketSize)
		for depth := 0; ; depth++ {
			if depth > maxChainDepth {
				return fmt.Errorf("%w: bucket chain too long", ErrCorrupt)
			}
			next, err := scm.Read64(c.mem, n.addr+n.chainOff)
			if err != nil {
				return err
			}
			if next == 0 {
				break
			}
			fn(next)
			n = overflowNode(next)
		}
	}
	return nil
}

// Extents appends every extent of the mFile — head, radix nodes, and data
// extents (or the single extent in single mode) — to dst.
func (m *MFile) Extents(dst []Extent) ([]Extent, error) {
	dst = append(dst, Extent{Addr: m.oid.Addr(), Size: mfHeadSize})
	single, err := m.IsSingle()
	if err != nil {
		return dst, err
	}
	head := m.oid.Addr()
	if single {
		data, err := scm.Read64(m.mem, head+offMFSingle)
		if err != nil {
			return dst, err
		}
		cap64, err := scm.Read64(m.mem, head+offMFSingleCap)
		if err != nil {
			return dst, err
		}
		if data != 0 {
			if cap64 < scm.PageSize {
				return dst, fmt.Errorf("%w: single extent of %d bytes", ErrCorrupt, cap64)
			}
			dst = append(dst, Extent{Addr: data, Size: cap64})
		}
		return dst, nil
	}
	bs, err := m.BlockSize()
	if err != nil {
		return dst, err
	}
	root, depth, err := m.rootDepth()
	if err != nil {
		return dst, err
	}
	if root == 0 || depth == 0 {
		return dst, nil
	}
	return m.nodeExtents(dst, root, depth-1, bs)
}

// nodeExtents appends the radix node at node and everything below it;
// level 0 nodes point at data extents of bs bytes.
func (m *MFile) nodeExtents(dst []Extent, node uint64, level uint, bs uint64) ([]Extent, error) {
	dst = append(dst, Extent{Addr: node, Size: radixNodeSize})
	// One view of the whole node, not a load per slot: fsck and Statfs
	// walk every file this way.
	slots, err := m.nodeView(node)
	if err != nil {
		return dst, err
	}
	for slot := uint64(0); slot < radixSlots; slot++ {
		ptr := scm.U64(slots[slot*8:])
		if ptr == 0 {
			continue
		}
		if level == 0 {
			dst = append(dst, Extent{Addr: ptr, Size: bs})
		} else if dst, err = m.nodeExtents(dst, ptr, level-1, bs); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// nodeView returns the bytes of the radix node at addr: in place on a
// slicing space, else copied out.
func (m *MFile) nodeView(addr uint64) ([]byte, error) {
	if m.sl != nil {
		return m.sl.Slice(addr, radixNodeSize)
	}
	b := make([]byte, radixNodeSize)
	return b, m.mem.Read(addr, b)
}
