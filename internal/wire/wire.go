// Package wire provides the little-endian binary encoding used for RPC
// payloads, client metadata-update logs, and journal records. The format is
// deliberately simple: fixed-width scalars plus length-prefixed byte strings,
// with a cursor-based reader that fails softly so untrusted client messages
// can be validated without panics.
package wire

import (
	"errors"
	"fmt"
)

// ErrTruncated reports a read past the end of a message.
var ErrTruncated = errors.New("wire: truncated message")

// MaxBytesLen bounds a single length-prefixed byte string, protecting the
// trusted service from hostile length fields.
const MaxBytesLen = 1 << 26 // 64 MiB

// Writer appends encoded values to a byte slice.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// WriterOn returns a writer that appends to buf: encoders that lay several
// pieces into one reused buffer hold it by value and allocate nothing.
func WriterOn(buf []byte) Writer { return Writer{buf: buf} }

// Bytes returns the encoded message. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the writer, retaining its buffer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = append(w.buf, byte(v), byte(v>>8)) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a uint32 length prefix followed by p.
func (w *Writer) Bytes32(p []byte) {
	w.U32(uint32(len(p)))
	w.buf = append(w.buf, p...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes values sequentially from a message. The first decoding
// error sticks: all subsequent reads return zero values, and Err reports it.
// This lets decoders run a straight-line sequence of reads and check the
// error once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over msg.
func NewReader(msg []byte) *Reader { return &Reader{buf: msg} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: reading %s at offset %d of %d", ErrTruncated, what, r.off, len(r.buf))
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 decodes a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 decodes a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2, "u16")
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 decodes a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 decodes a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool decodes a boolean byte.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 decodes a length-prefixed byte string. The result aliases the
// message buffer.
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(fmt.Sprintf("bytes32 length %d", n))
		return nil
	}
	return r.take(int(n), "bytes32 body")
}

// Str decodes a length-prefixed string. (Named Str, not String, so a Reader
// is not accidentally a fmt.Stringer that consumes its own buffer.)
func (r *Reader) Str() string { return string(r.Bytes32()) }

// Finish verifies the entire message was consumed and returns any error.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}
