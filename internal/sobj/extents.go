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

// Extents enumerates every extent of the collection: head, table, and
// overflow extents. The TFS uses the list to journal deterministic frees
// when an object is destroyed.
func (c *Collection) Extents() ([]Extent, error) {
	table, nb, err := c.table()
	if err != nil {
		return nil, err
	}
	exts := []Extent{
		{Addr: c.oid.Addr(), Size: colHeadAlloc},
		{Addr: table, Size: TableSizeFor(nb)},
	}
	err = c.eachOverflow(table, nb, func(addr uint64) {
		exts = append(exts, Extent{Addr: addr, Size: ovfSize})
	})
	if err != nil {
		return nil, err
	}
	return exts, nil
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

// Extents enumerates every extent of the mFile: head, radix nodes, and data
// extents (or the single extent in single mode).
func (m *MFile) Extents() ([]Extent, error) {
	exts := []Extent{{Addr: m.oid.Addr(), Size: mfHeadSize}}
	single, err := m.IsSingle()
	if err != nil {
		return nil, err
	}
	head := m.oid.Addr()
	if single {
		data, err := scm.Read64(m.mem, head+offMFSingle)
		if err != nil {
			return nil, err
		}
		cap64, err := scm.Read64(m.mem, head+offMFSingleCap)
		if err != nil {
			return nil, err
		}
		if data != 0 {
			if cap64 < scm.PageSize {
				return nil, fmt.Errorf("%w: single extent of %d bytes", ErrCorrupt, cap64)
			}
			exts = append(exts, Extent{Addr: data, Size: cap64})
		}
		return exts, nil
	}
	bs, err := m.BlockSize()
	if err != nil {
		return nil, err
	}
	root, depth, err := m.rootDepth()
	if err != nil {
		return nil, err
	}
	if root == 0 || depth == 0 {
		return exts, nil
	}
	var walk func(node uint64, level uint) error
	walk = func(node uint64, level uint) error {
		exts = append(exts, Extent{Addr: node, Size: radixNodeSize})
		// One view of the whole node, not a load per slot: fsck and Statfs
		// walk every file this way.
		slots, err := m.nodeView(node)
		if err != nil {
			return err
		}
		for slot := uint64(0); slot < radixSlots; slot++ {
			ptr := scm.U64(slots[slot*8:])
			if ptr == 0 {
				continue
			}
			if level == 0 {
				exts = append(exts, Extent{Addr: ptr, Size: bs})
			} else if err := walk(ptr, level-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, depth-1); err != nil {
		return nil, err
	}
	return exts, nil
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
