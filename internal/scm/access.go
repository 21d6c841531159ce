package scm

// Typed load/store helpers over any Space. All values are little-endian.
// These are the only way higher layers read and write scalar fields of
// structures stored in SCM, keeping every persistent layout explicit.

// U64 decodes a little-endian uint64 from a view obtained via Slice/View.
func U64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// U32 decodes a little-endian uint32 from a view.
func U32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U16 decodes a little-endian uint16 from a view.
func U16(b []byte) uint16 {
	_ = b[1]
	return uint16(b[0]) | uint16(b[1])<<8
}

// Read64 loads a little-endian uint64 at addr. Spaces with zero-copy
// support decode in place. A scratch buffer handed to a Space method escapes
// into the interface call and costs one heap allocation — on loads and
// stores alike — which is why loads go through Slicer and stores through
// Storer when the space offers them.
func Read64(s Space, addr uint64) (uint64, error) {
	if sl, ok := s.(Slicer); ok {
		b, err := sl.Slice(addr, 8)
		if err != nil {
			return 0, err
		}
		return U64(b), nil
	}
	var b [8]byte
	if err := s.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return U64(b[:]), nil
}

// Write64 stores a little-endian uint64 at addr (volatile until flushed).
func Write64(s Space, addr uint64, v uint64) error {
	if st, ok := s.(Storer); ok {
		return st.Store(addr, v, 8)
	}
	var b [8]byte
	putU64(b[:], v)
	return s.Write(addr, b[:])
}

// Read32 loads a little-endian uint32 at addr.
func Read32(s Space, addr uint64) (uint32, error) {
	if sl, ok := s.(Slicer); ok {
		b, err := sl.Slice(addr, 4)
		if err != nil {
			return 0, err
		}
		return U32(b), nil
	}
	var b [4]byte
	if err := s.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return U32(b[:]), nil
}

// Write32 stores a little-endian uint32 at addr.
func Write32(s Space, addr uint64, v uint32) error {
	if st, ok := s.(Storer); ok {
		return st.Store(addr, uint64(v), 4)
	}
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return s.Write(addr, b[:])
}

// Read16 loads a little-endian uint16 at addr.
func Read16(s Space, addr uint64) (uint16, error) {
	if sl, ok := s.(Slicer); ok {
		b, err := sl.Slice(addr, 2)
		if err != nil {
			return 0, err
		}
		return U16(b), nil
	}
	var b [2]byte
	if err := s.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return U16(b[:]), nil
}

// Write16 stores a little-endian uint16 at addr.
func Write16(s Space, addr uint64, v uint16) error {
	if st, ok := s.(Storer); ok {
		return st.Store(addr, uint64(v), 2)
	}
	b := [2]byte{byte(v), byte(v >> 8)}
	return s.Write(addr, b[:])
}

// WriteFlush stores p at addr and flushes the covering lines — the paper's
// wlflush primitive.
func WriteFlush(s Space, addr uint64, p []byte) error {
	if err := s.Write(addr, p); err != nil {
		return err
	}
	return s.Flush(addr, len(p))
}

// Write64Flush stores a uint64 and flushes its line.
func Write64Flush(s Space, addr uint64, v uint64) error {
	if err := Write64(s, addr, v); err != nil {
		return err
	}
	return s.Flush(addr, 8)
}

// AtomicFlush64 performs the paper's consistent-update commit step: an
// atomic 8-byte store followed by a flush of its line, used to atomically
// publish shadow-updated structures.
func AtomicFlush64(s Space, addr uint64, v uint64) error {
	if err := s.Atomic64(addr, v); err != nil {
		return err
	}
	return s.Flush(addr, 8)
}

// zeros is the source of every Zero store; Space implementations only read
// the buffers they are handed.
var zeros [PageSize]byte

// Zero writes n zero bytes at addr.
func Zero(s Space, addr uint64, n int) error {
	for n > 0 {
		chunk := n
		if chunk > len(zeros) {
			chunk = len(zeros)
		}
		if err := s.Write(addr, zeros[:chunk]); err != nil {
			return err
		}
		addr += uint64(chunk)
		n -= chunk
	}
	return nil
}
