package sobj

import (
	"fmt"

	"github.com/aerie-fs/aerie/internal/scm"
)

// MFile is the memory-file object (§5.3.2): it maps byte offsets to data
// extents through a radix tree of indirect blocks, so clients can locate
// and read/write file data directly in SCM. PXFS files are mFiles with
// page-sized extents; FlatFS files use the single-extent mode, where the
// whole file lives in one extent and get/put is a single memcpy (§6.2).
//
// Head-extent layout after the common header:
//
//	0x20 u64 size — logical file size
//	0x28 u64 root — radix root address (64-byte aligned) packed with the
//	     tree depth in the low 6 bits, so growing the tree publishes a
//	     new root with one atomic 64-bit write
//	0x30 u32 extentLog — log2 of the data-extent size
//	0x34 u32 flags (bit 0: single-extent mode)
//	0x38 u64 single — data extent address (single mode)
//	0x40 u64 singleCap — capacity of the single extent
//
// Radix nodes are one page holding 512 slots; a zero slot is a hole
// (sparse file ranges read as zeros).
const (
	offMFSize      = 0x20
	offMFRoot      = 0x28
	offMFExtentLog = 0x30
	offMFFlags     = 0x34
	offMFSingle    = 0x38
	offMFSingleCap = 0x40

	mfHeadSize = 128

	mfFlagSingle = 1

	radixSlots    = 512
	radixNodeSize = scm.PageSize
	maxDepth      = 4 // 512^4 blocks: ample

	// DefaultExtentLog gives page-sized data extents (PXFS files).
	DefaultExtentLog = 12
)

// MFile provides access to an mFile object. The zero-copy capability of the
// space is resolved once at open so the read path can locate data extents
// and copy them straight into the caller's buffer.
type MFile struct {
	mem scm.Space
	sl  scm.Slicer
	oid OID
}

// mfHead is the decoded head extent, fetched as a single view on the read
// path instead of one scalar read (and, on non-slicing spaces, one
// allocation) per field.
type mfHead struct {
	size      uint64
	root      uint64
	depth     uint
	extentLog uint32
	flags     uint32
	single    uint64
	singleCap uint64
}

func (h *mfHead) isSingle() bool { return h.flags&mfFlagSingle != 0 }

func (h *mfHead) blockSize() (uint64, error) {
	if h.extentLog < 6 || h.extentLog > 26 {
		return 0, fmt.Errorf("%w: extent log %d", ErrCorrupt, h.extentLog)
	}
	return 1 << h.extentLog, nil
}

// head decodes the whole head extent in one view. The slicing and copying
// paths are kept separate so the scratch buffer does not escape through an
// interface call and cost the zero-copy path a heap allocation.
func (m *MFile) head() (mfHead, error) {
	if m.sl != nil {
		b, err := m.sl.Slice(m.oid.Addr(), mfHeadSize)
		if err != nil {
			return mfHead{}, err
		}
		return decodeMFHead(b)
	}
	var buf [mfHeadSize]byte
	if err := m.mem.Read(m.oid.Addr(), buf[:]); err != nil {
		return mfHead{}, err
	}
	return decodeMFHead(buf[:])
}

func decodeMFHead(b []byte) (mfHead, error) {
	rd := scm.U64(b[offMFRoot:])
	h := mfHead{
		size:      scm.U64(b[offMFSize:]),
		root:      rd &^ 63,
		depth:     uint(rd & 63),
		extentLog: scm.U32(b[offMFExtentLog:]),
		flags:     scm.U32(b[offMFFlags:]),
		single:    scm.U64(b[offMFSingle:]),
		singleCap: scm.U64(b[offMFSingleCap:]),
	}
	if h.depth > maxDepth {
		return mfHead{}, fmt.Errorf("%w: radix depth %d", ErrCorrupt, h.depth)
	}
	return h, nil
}

// CreateMFile allocates an empty radix-tree mFile with 2^extentLog-byte
// data extents.
func CreateMFile(mem scm.Space, a Allocator, perm uint32, extentLog uint32) (*MFile, error) {
	if extentLog < 6 || extentLog > 26 {
		return nil, fmt.Errorf("sobj: bad extent log %d", extentLog)
	}
	head, err := a.Alloc(mfHeadSize)
	if err != nil {
		return nil, err
	}
	if err := initMFileHead(mem, head, perm, extentLog, 0); err != nil {
		return nil, err
	}
	oid, err := MakeOID(head, TypeMFile)
	if err != nil {
		return nil, err
	}
	return &MFile{mem: mem, sl: scm.AsSlicer(mem), oid: oid}, nil
}

// CreateMFileSingle allocates a single-extent mFile with the given capacity
// (rounded up by the allocator), FlatFS's fixed-size file layout.
func CreateMFileSingle(mem scm.Space, a Allocator, perm uint32, capacity uint64) (*MFile, error) {
	if capacity == 0 {
		capacity = 64
	}
	head, err := a.Alloc(mfHeadSize)
	if err != nil {
		return nil, err
	}
	data, err := a.Alloc(capacity)
	if err != nil {
		_ = a.Free(head, mfHeadSize)
		return nil, err
	}
	if err := initMFileHead(mem, head, perm, DefaultExtentLog, mfFlagSingle); err != nil {
		return nil, err
	}
	if err := scm.Write64(mem, head+offMFSingle, data); err != nil {
		return nil, err
	}
	if err := scm.Write64(mem, head+offMFSingleCap, capacity); err != nil {
		return nil, err
	}
	if err := mem.Flush(head, mfHeadSize); err != nil {
		return nil, err
	}
	oid, err := MakeOID(head, TypeMFile)
	if err != nil {
		return nil, err
	}
	return &MFile{mem: mem, sl: scm.AsSlicer(mem), oid: oid}, nil
}

func initMFileHead(mem scm.Space, head uint64, perm, extentLog, flags uint32) error {
	if err := scm.Zero(mem, head, mfHeadSize); err != nil {
		return err
	}
	if err := writeHeader(mem, head, Header{Type: TypeMFile, Perm: perm}); err != nil {
		return err
	}
	if err := scm.Write32(mem, head+offMFExtentLog, extentLog); err != nil {
		return err
	}
	if err := scm.Write32(mem, head+offMFFlags, flags); err != nil {
		return err
	}
	if err := mem.Flush(head, mfHeadSize); err != nil {
		return err
	}
	mem.Fence()
	return nil
}

// OpenMFile validates and opens an existing mFile.
func OpenMFile(mem scm.Space, oid OID) (*MFile, error) {
	m := new(MFile)
	if err := m.Open(mem, oid); err != nil {
		return nil, err
	}
	return m, nil
}

// Open is OpenMFile into a handle the caller declares (var m MFile), so one
// that does not outlive its frame — the service opens one per journal
// action — is not a heap object.
func (m *MFile) Open(mem scm.Space, oid OID) error {
	if oid.Type() != TypeMFile {
		return fmt.Errorf("%w: %v is not an mFile", ErrBadObject, oid)
	}
	if _, err := ReadHeader(mem, oid); err != nil {
		return err
	}
	*m = MFile{mem: mem, sl: scm.AsSlicer(mem), oid: oid}
	return nil
}

// OID returns the mFile's object ID.
func (m *MFile) OID() OID { return m.oid }

// Size returns the logical file size.
func (m *MFile) Size() (uint64, error) {
	return scm.Read64(m.mem, m.oid.Addr()+offMFSize)
}

// SetSize sets the logical file size (trusted side, or staged client-side
// and validated by the TFS).
func (m *MFile) SetSize(n uint64) error {
	return scm.Write64Flush(m.mem, m.oid.Addr()+offMFSize, n)
}

// IsSingle reports whether the mFile is in single-extent mode.
func (m *MFile) IsSingle() (bool, error) {
	flags, err := scm.Read32(m.mem, m.oid.Addr()+offMFFlags)
	return flags&mfFlagSingle != 0, err
}

// SingleExtent returns the data extent address and capacity of a
// single-extent mFile.
func (m *MFile) SingleExtent() (addr, capacity uint64, err error) {
	head := m.oid.Addr()
	addr, err = scm.Read64(m.mem, head+offMFSingle)
	if err != nil {
		return 0, 0, err
	}
	capacity, err = scm.Read64(m.mem, head+offMFSingleCap)
	return addr, capacity, err
}

// BlockSize returns the data-extent size in bytes.
func (m *MFile) BlockSize() (uint64, error) {
	lg, err := scm.Read32(m.mem, m.oid.Addr()+offMFExtentLog)
	if err != nil {
		return 0, err
	}
	if lg < 6 || lg > 26 {
		return 0, fmt.Errorf("%w: extent log %d", ErrCorrupt, lg)
	}
	return 1 << lg, nil
}

func (m *MFile) rootDepth() (root uint64, depth uint, err error) {
	v, err := scm.Read64(m.mem, m.oid.Addr()+offMFRoot)
	if err != nil {
		return 0, 0, err
	}
	depth = uint(v & 63)
	if depth > maxDepth {
		return 0, 0, fmt.Errorf("%w: radix depth %d", ErrCorrupt, depth)
	}
	return v &^ 63, depth, nil
}

// capacityBlocks returns how many blocks a tree of the given depth spans.
func capacityBlocks(depth uint) uint64 {
	n := uint64(1)
	for i := uint(0); i < depth; i++ {
		n *= radixSlots
	}
	return n
}

// ExtentFor returns the address of the data extent covering offset, or 0
// when the range is a hole. In single mode it returns the single extent.
func (m *MFile) ExtentFor(off uint64) (uint64, error) {
	single, err := m.IsSingle()
	if err != nil {
		return 0, err
	}
	if single {
		cap64, err := scm.Read64(m.mem, m.oid.Addr()+offMFSingleCap)
		if err != nil {
			return 0, err
		}
		if off >= cap64 {
			return 0, nil
		}
		return scm.Read64(m.mem, m.oid.Addr()+offMFSingle)
	}
	bs, err := m.BlockSize()
	if err != nil {
		return 0, err
	}
	return m.lookupBlock(off / bs)
}

// ExtentAtBlock returns the data extent address attached at blockIdx, or 0
// when the slot is empty. Redo-replay uses it to probe whether an attach
// from a journaled batch already took effect.
func (m *MFile) ExtentAtBlock(blockIdx uint64) (uint64, error) {
	single, err := m.IsSingle()
	if err != nil {
		return 0, err
	}
	if single {
		if blockIdx != 0 {
			return 0, nil
		}
		return scm.Read64(m.mem, m.oid.Addr()+offMFSingle)
	}
	return m.lookupBlock(blockIdx)
}

// lookupBlock walks the radix tree to the data extent for blockIdx.
func (m *MFile) lookupBlock(blockIdx uint64) (uint64, error) {
	root, depth, err := m.rootDepth()
	if err != nil {
		return 0, err
	}
	return m.lookupBlockIn(root, depth, blockIdx)
}

// lookupBlockIn walks a known radix root, so readers that already decoded
// the head extent do not re-read it per block.
func (m *MFile) lookupBlockIn(root uint64, depth uint, blockIdx uint64) (uint64, error) {
	if depth == 0 || blockIdx >= capacityBlocks(depth) || root == 0 {
		return 0, nil
	}
	cur := root
	for level := depth - 1; level > 0; level-- {
		slot := (blockIdx >> (9 * level)) & (radixSlots - 1)
		next, err := read64(m.mem, m.sl, cur+slot*8)
		if err != nil {
			return 0, err
		}
		if next == 0 {
			return 0, nil
		}
		cur = next
	}
	return read64(m.mem, m.sl, cur+(blockIdx&(radixSlots-1))*8)
}

// copyOut copies n bytes at addr into dst: straight from the zero-copy
// window when available (one copy, SCM to caller), else through Read.
func (m *MFile) copyOut(addr uint64, dst []byte) error {
	if m.sl != nil {
		b, err := m.sl.Slice(addr, len(dst))
		if err != nil {
			return err
		}
		copy(dst, b)
		return nil
	}
	return m.mem.Read(addr, dst)
}

// ReadAt reads into p starting at off, stopping at the file size. Holes
// read as zeros. Returns the number of bytes read. The whole head extent is
// decoded from a single view, and on a slicing space each data extent is
// copied straight into p — the direct load path, no intermediate buffer.
func (m *MFile) ReadAt(p []byte, off uint64) (int, error) {
	h, err := m.head()
	if err != nil {
		return 0, err
	}
	if off >= h.size {
		return 0, nil
	}
	if off+uint64(len(p)) > h.size {
		p = p[:h.size-off]
	}
	if h.isSingle() {
		if err := m.copyOut(h.single+off, p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	bs, err := h.blockSize()
	if err != nil {
		return 0, err
	}
	read := 0
	for read < len(p) {
		cur := off + uint64(read)
		blockIdx := cur / bs
		inBlock := cur % bs
		chunk := int(bs - inBlock)
		if chunk > len(p)-read {
			chunk = len(p) - read
		}
		ext, err := m.lookupBlockIn(h.root, h.depth, blockIdx)
		if err != nil {
			return read, err
		}
		dst := p[read : read+chunk]
		if ext == 0 {
			for i := range dst {
				dst[i] = 0
			}
		} else if err := m.copyOut(ext+inBlock, dst); err != nil {
			return read, err
		}
		read += chunk
	}
	return read, nil
}

// WriteAt writes p at off directly into allocated extents (the client
// fast path: no service involvement). Writing a hole returns
// ErrNotAllocated; the caller attaches pre-allocated extents through the
// TFS (or its staged shadow) first. Data is flushed for persistence.
// WriteAt does not extend the logical size; use SetSize.
func (m *MFile) WriteAt(p []byte, off uint64) (int, error) {
	single, err := m.IsSingle()
	if err != nil {
		return 0, err
	}
	if single {
		cap64, err := scm.Read64(m.mem, m.oid.Addr()+offMFSingleCap)
		if err != nil {
			return 0, err
		}
		if off+uint64(len(p)) > cap64 {
			return 0, fmt.Errorf("%w: write [%d,+%d) beyond single extent cap %d",
				ErrNotAllocated, off, len(p), cap64)
		}
		data, err := scm.Read64(m.mem, m.oid.Addr()+offMFSingle)
		if err != nil {
			return 0, err
		}
		if err := scm.WriteFlush(m.mem, data+off, p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	bs, err := m.BlockSize()
	if err != nil {
		return 0, err
	}
	written := 0
	for written < len(p) {
		cur := off + uint64(written)
		blockIdx := cur / bs
		inBlock := cur % bs
		chunk := int(bs - inBlock)
		if chunk > len(p)-written {
			chunk = len(p) - written
		}
		ext, err := m.lookupBlock(blockIdx)
		if err != nil {
			return written, err
		}
		if ext == 0 {
			return written, fmt.Errorf("%w: block %d", ErrNotAllocated, blockIdx)
		}
		if err := scm.WriteFlush(m.mem, ext+inBlock, p[written:written+chunk]); err != nil {
			return written, err
		}
		written += chunk
	}
	return written, nil
}

// AttachExtent links a data extent at blockIdx (trusted side; §5.3.5: the
// client pre-allocates and fills extents, the service verifies and attaches
// them). The tree grows and intermediate nodes are allocated as needed;
// every new structure is persisted before the single atomic write that
// publishes it. Attaching over an existing extent fails with ErrExists.
func (m *MFile) AttachExtent(a Allocator, blockIdx uint64, extAddr uint64) error {
	single, err := m.IsSingle()
	if err != nil {
		return err
	}
	if single {
		return fmt.Errorf("sobj: AttachExtent on single-extent mFile")
	}
	root, depth, err := m.rootDepth()
	if err != nil {
		return err
	}
	// Grow the tree until blockIdx fits.
	for depth == 0 || blockIdx >= capacityBlocks(depth) {
		if depth >= maxDepth {
			return fmt.Errorf("%w: block index %d", ErrTooLarge, blockIdx)
		}
		node, err := m.newNode(a)
		if err != nil {
			return err
		}
		if root != 0 {
			if err := scm.Write64Flush(m.mem, node, root); err != nil {
				return err
			}
		}
		m.mem.Fence()
		depth++
		root = node
		if err := scm.AtomicFlush64(m.mem, m.oid.Addr()+offMFRoot, root|uint64(depth)); err != nil {
			return err
		}
	}
	// Walk down, allocating interior nodes.
	cur := root
	for level := depth - 1; level > 0; level-- {
		slot := (blockIdx >> (9 * level)) & (radixSlots - 1)
		next, err := scm.Read64(m.mem, cur+slot*8)
		if err != nil {
			return err
		}
		if next == 0 {
			next, err = m.newNode(a)
			if err != nil {
				return err
			}
			m.mem.Fence()
			if err := scm.AtomicFlush64(m.mem, cur+slot*8, next); err != nil {
				return err
			}
		}
		cur = next
	}
	leafSlot := cur + (blockIdx&(radixSlots-1))*8
	old, err := scm.Read64(m.mem, leafSlot)
	if err != nil {
		return err
	}
	if old != 0 {
		return fmt.Errorf("%w: block %d already mapped to %#x", ErrExists, blockIdx, old)
	}
	m.mem.Fence()
	return scm.AtomicFlush64(m.mem, leafSlot, extAddr)
}

func (m *MFile) newNode(a Allocator) (uint64, error) {
	node, err := a.Alloc(radixNodeSize)
	if err != nil {
		return 0, err
	}
	if err := scm.Zero(m.mem, node, radixNodeSize); err != nil {
		return 0, err
	}
	if err := m.mem.Flush(node, radixNodeSize); err != nil {
		return 0, err
	}
	return node, nil
}

// ReplaceSingleExtent swaps the single-mode data extent (trusted side; used
// when a FlatFS put outgrows the current extent). The new extent must
// already contain the file data. The old extent is freed.
func (m *MFile) ReplaceSingleExtent(a Allocator, newAddr, newCap uint64) error {
	single, err := m.IsSingle()
	if err != nil {
		return err
	}
	if !single {
		return fmt.Errorf("sobj: ReplaceSingleExtent on radix mFile")
	}
	head := m.oid.Addr()
	oldAddr, err := scm.Read64(m.mem, head+offMFSingle)
	if err != nil {
		return err
	}
	oldCap, err := scm.Read64(m.mem, head+offMFSingleCap)
	if err != nil {
		return err
	}
	// Publish the new extent first (atomic), then the capacity; a crash
	// between the two leaves the old smaller capacity, which is safe
	// (reads just see a shorter valid region than available).
	m.mem.Fence()
	if err := scm.AtomicFlush64(m.mem, head+offMFSingle, newAddr); err != nil {
		return err
	}
	if err := scm.Write64Flush(m.mem, head+offMFSingleCap, newCap); err != nil {
		return err
	}
	if oldAddr != 0 {
		return a.Free(oldAddr, oldCap)
	}
	return nil
}

// Truncate frees whole data extents beyond newSize and updates the size
// (trusted side). Interior nodes whose subtree becomes empty are freed
// too. The tail of a partial kept block is zeroed so that a later
// extension past newSize exposes zeros, not stale data (POSIX semantics).
func (m *MFile) Truncate(a Allocator, newSize uint64) error {
	return m.truncate(a, newSize, true)
}

// TruncatePruneOnly is Truncate without the tail zeroing, for the TFS's
// batched-apply path: data writes go straight to SCM without passing
// through the op log, so by the time a staged truncate is applied, bytes
// past the cut may legitimately have been rewritten by a later write in
// the same batch. The client zeroes the tail at staging time instead
// (libfs.FileTruncate).
func (m *MFile) TruncatePruneOnly(a Allocator, newSize uint64) error {
	return m.truncate(a, newSize, false)
}

func (m *MFile) truncate(a Allocator, newSize uint64, zeroTail bool) error {
	single, err := m.IsSingle()
	if err != nil {
		return err
	}
	if single {
		return m.SetSize(newSize)
	}
	bs, err := m.BlockSize()
	if err != nil {
		return err
	}
	root, depth, err := m.rootDepth()
	if err != nil {
		return err
	}
	keepBlocks := (newSize + bs - 1) / bs
	if root != 0 && depth > 0 {
		if _, err := m.pruneNode(a, root, depth-1, 0, keepBlocks, bs); err != nil {
			return err
		}
	}
	if tail := newSize % bs; zeroTail && tail != 0 {
		if ext, err := m.lookupBlock(newSize / bs); err != nil {
			return err
		} else if ext != 0 {
			if err := scm.Zero(m.mem, ext+tail, int(bs-tail)); err != nil {
				return err
			}
			if err := m.mem.Flush(ext+tail, int(bs-tail)); err != nil {
				return err
			}
		}
	}
	return m.SetSize(newSize)
}

// pruneNode frees extents/subtrees whose block range is entirely beyond
// keepBlocks. Returns whether the node is now completely empty.
func (m *MFile) pruneNode(a Allocator, node uint64, level uint, base uint64, keepBlocks uint64, bs uint64) (bool, error) {
	span := capacityBlocks(level) // blocks per slot at this level
	empty := true
	for slot := uint64(0); slot < radixSlots; slot++ {
		ptr, err := scm.Read64(m.mem, node+slot*8)
		if err != nil {
			return false, err
		}
		if ptr == 0 {
			continue
		}
		lo := base + slot*span
		if lo >= keepBlocks {
			// Entire subtree beyond the keep range.
			if level == 0 {
				if err := a.Free(ptr, bs); err != nil {
					return false, err
				}
			} else {
				sub := &MFile{mem: m.mem, sl: m.sl, oid: m.oid}
				if _, err := sub.freeSubtree(a, ptr, level-1, bs); err != nil {
					return false, err
				}
			}
			if err := scm.AtomicFlush64(m.mem, node+slot*8, 0); err != nil {
				return false, err
			}
			continue
		}
		if level > 0 {
			subEmpty, err := m.pruneNode(a, ptr, level-1, lo, keepBlocks, bs)
			if err != nil {
				return false, err
			}
			if subEmpty {
				if err := a.Free(ptr, radixNodeSize); err != nil {
					return false, err
				}
				if err := scm.AtomicFlush64(m.mem, node+slot*8, 0); err != nil {
					return false, err
				}
				continue
			}
		}
		empty = false
	}
	return empty, nil
}

// freeSubtree frees every extent and node under node (level counts
// remaining interior levels below node).
func (m *MFile) freeSubtree(a Allocator, node uint64, level uint, bs uint64) (int, error) {
	freed := 0
	for slot := uint64(0); slot < radixSlots; slot++ {
		ptr, err := scm.Read64(m.mem, node+slot*8)
		if err != nil {
			return freed, err
		}
		if ptr == 0 {
			continue
		}
		if level == 0 {
			if err := a.Free(ptr, bs); err != nil {
				return freed, err
			}
			freed++
		} else {
			n, err := m.freeSubtree(a, ptr, level-1, bs)
			freed += n
			if err != nil {
				return freed, err
			}
		}
	}
	return freed, a.Free(node, radixNodeSize)
}

// Destroy frees all storage of the mFile (trusted side).
func (m *MFile) Destroy(a Allocator) error {
	single, err := m.IsSingle()
	if err != nil {
		return err
	}
	head := m.oid.Addr()
	if single {
		data, err := scm.Read64(m.mem, head+offMFSingle)
		if err != nil {
			return err
		}
		cap64, err := scm.Read64(m.mem, head+offMFSingleCap)
		if err != nil {
			return err
		}
		if data != 0 {
			if err := a.Free(data, cap64); err != nil {
				return err
			}
		}
		return a.Free(head, mfHeadSize)
	}
	bs, err := m.BlockSize()
	if err != nil {
		return err
	}
	root, depth, err := m.rootDepth()
	if err != nil {
		return err
	}
	if root != 0 && depth > 0 {
		if _, err := m.freeSubtree(a, root, depth-1, bs); err != nil {
			return err
		}
	}
	return a.Free(head, mfHeadSize)
}
