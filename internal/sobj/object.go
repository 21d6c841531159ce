package sobj

import (
	"errors"
	"fmt"

	"github.com/aerie-fs/aerie/internal/scm"
)

// Common object header, at the start of every object's head extent:
//
//	0x00 u32 magic (magicBase XOR type, so a type confusion fails fast)
//	0x04 u8  type
//	0x05 u8..u16 reserved
//	0x08 u32 refcnt — membership count: how many collections link this
//	     object (§5.3.4 uses it to decide when hierarchical locking is
//	     unsafe and explicit locking is required)
//	0x0c u32 perm — file-system-level permission bits (interpreted by the
//	     interface layer, e.g. PXFS mode bits)
//	0x10 u64 parent — OID of a collection containing this object (valid
//	     when refcnt == 1; the TFS uses it to validate hierarchical lock
//	     coverage and rename cycles)
//	0x18 u64 attrs — interface-specific (PXFS: mtime nanoseconds)
//
// HeaderSize bytes total; type-specific fields follow.
const (
	magicBase = 0xA11E0B00

	offHdrMagic  = 0x00
	offHdrType   = 0x04
	offHdrRefcnt = 0x08
	offHdrPerm   = 0x0c
	offHdrParent = 0x10
	offHdrAttrs  = 0x18

	// HeaderSize is the size of the common object header.
	HeaderSize = 0x20
)

// Errors shared by object implementations.
var (
	ErrBadObject    = errors.New("sobj: not a valid object")
	ErrCorrupt      = errors.New("sobj: corrupt object structure")
	ErrExists       = errors.New("sobj: key exists")
	ErrNotFound     = errors.New("sobj: not found")
	ErrNotAllocated = errors.New("sobj: file range not allocated")
	ErrTooLarge     = errors.New("sobj: value too large")
)

// Allocator supplies and reclaims extents for trusted-side mutations. It is
// implemented by the TFS's buddy allocator, and by the client-side
// pre-allocated pool when clients stage objects locally.
type Allocator interface {
	Alloc(size uint64) (uint64, error)
	Free(addr, size uint64) error
}

// Header is the decoded common object header.
type Header struct {
	Type   Type
	Refcnt uint32
	Perm   uint32
	Parent OID
	Attrs  uint64
}

func magicFor(typ Type) uint32 { return magicBase ^ uint32(typ) }

// writeHeader initializes a common header at addr (volatile; caller
// flushes).
func writeHeader(mem scm.Space, addr uint64, h Header) error {
	if err := scm.Write32(mem, addr+offHdrMagic, magicFor(h.Type)); err != nil {
		return err
	}
	if err := scm.Write32(mem, addr+offHdrType, uint32(h.Type)); err != nil {
		return err
	}
	if err := scm.Write32(mem, addr+offHdrRefcnt, h.Refcnt); err != nil {
		return err
	}
	if err := scm.Write32(mem, addr+offHdrPerm, h.Perm); err != nil {
		return err
	}
	if err := scm.Write64(mem, addr+offHdrParent, uint64(h.Parent)); err != nil {
		return err
	}
	return scm.Write64(mem, addr+offHdrAttrs, h.Attrs)
}

// ReadHeader reads and validates the common header of oid. The header is
// decoded in place on slicing spaces; the scratch buffer is declared on the
// copying fallback only, because handing it to the Space interface moves it
// to the heap.
func ReadHeader(mem scm.Space, oid OID) (Header, error) {
	if sl, ok := mem.(scm.Slicer); ok {
		b, err := sl.Slice(oid.Addr(), HeaderSize)
		if err != nil {
			return Header{}, err
		}
		return decodeHeader(b, oid)
	}
	var buf [HeaderSize]byte
	if err := mem.Read(oid.Addr(), buf[:]); err != nil {
		return Header{}, err
	}
	return decodeHeader(buf[:], oid)
}

func decodeHeader(b []byte, oid OID) (Header, error) {
	magic := scm.U32(b[offHdrMagic:])
	if magic != magicFor(oid.Type()) {
		return Header{}, fmt.Errorf("%w: %v has magic %#x", ErrBadObject, oid, magic)
	}
	return Header{
		Type:   oid.Type(),
		Refcnt: scm.U32(b[offHdrRefcnt:]),
		Perm:   scm.U32(b[offHdrPerm:]),
		Parent: OID(scm.U64(b[offHdrParent:])),
		Attrs:  scm.U64(b[offHdrAttrs:]),
	}, nil
}

// read64/read32/read16 are the direct readers' scalar loads: sl, resolved
// once at object open, keeps the per-access type assertion off hot loops.
func read64(mem scm.Space, sl scm.Slicer, addr uint64) (uint64, error) {
	if sl != nil {
		b, err := sl.Slice(addr, 8)
		if err != nil {
			return 0, err
		}
		return scm.U64(b), nil
	}
	return scm.Read64(mem, addr)
}

func read16(mem scm.Space, sl scm.Slicer, addr uint64) (uint16, error) {
	if sl != nil {
		b, err := sl.Slice(addr, 2)
		if err != nil {
			return 0, err
		}
		return scm.U16(b), nil
	}
	return scm.Read16(mem, addr)
}

// SetRefcnt updates the membership count (trusted side).
func SetRefcnt(mem scm.Space, oid OID, n uint32) error {
	if err := scm.Write32(mem, oid.Addr()+offHdrRefcnt, n); err != nil {
		return err
	}
	return mem.Flush(oid.Addr()+offHdrRefcnt, 4)
}

// SetParent updates the parent pointer (trusted side).
func SetParent(mem scm.Space, oid OID, parent OID) error {
	if err := scm.Write64Flush(mem, oid.Addr()+offHdrParent, uint64(parent)); err != nil {
		return err
	}
	return nil
}

// SetPerm updates the FS-level permission bits (trusted side).
func SetPerm(mem scm.Space, oid OID, perm uint32) error {
	if err := scm.Write32(mem, oid.Addr()+offHdrPerm, perm); err != nil {
		return err
	}
	return mem.Flush(oid.Addr()+offHdrPerm, 4)
}

// SetAttrs updates the interface-specific attribute word (trusted side).
func SetAttrs(mem scm.Space, oid OID, attrs uint64) error {
	return scm.Write64Flush(mem, oid.Addr()+offHdrAttrs, attrs)
}
