package wire

import "testing"

// FuzzReader drives a Reader through an arbitrary sequence of typed reads
// against arbitrary bytes. The first part of the input is interpreted as a
// read script (one op per byte), the rest as the message. Invariants: no
// read panics, Remaining never goes negative, the error is sticky (once set
// it never clears and later reads return zero values), and Finish rejects
// any message with leftover bytes.
func FuzzReader(f *testing.F) {
	// A well-formed message matching its script.
	w := NewWriter(64)
	w.U8(7)
	w.U16(512)
	w.U32(1 << 20)
	w.U64(1 << 40)
	w.Bool(true)
	w.Bytes32([]byte("payload"))
	w.String("name")
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, w.Bytes())
	f.Add([]byte{3, 3, 3}, []byte{1, 2})             // underflow
	f.Add([]byte{5}, []byte{0xff, 0xff, 0xff, 0x7f}) // hostile length prefix
	f.Add([]byte{}, []byte("trailing"))
	f.Fuzz(func(t *testing.T, script, msg []byte) {
		r := NewReader(msg)
		for _, op := range script {
			hadErr := r.Err() != nil
			var zero bool
			switch op % 7 {
			case 0:
				zero = r.U8() == 0
			case 1:
				zero = r.U16() == 0
			case 2:
				zero = r.U32() == 0
			case 3:
				zero = r.U64() == 0
			case 4:
				zero = !r.Bool()
			case 5:
				zero = r.Bytes32() == nil
			case 6:
				zero = r.Str() == ""
			}
			if r.Remaining() < 0 {
				t.Fatalf("Remaining went negative: %d", r.Remaining())
			}
			if hadErr {
				if r.Err() == nil {
					t.Fatal("sticky error cleared by a later read")
				}
				if !zero {
					t.Fatal("read after error returned a non-zero value")
				}
			}
		}
		err := r.Finish()
		if r.Err() == nil && r.Remaining() > 0 && err == nil {
			t.Fatalf("Finish accepted %d trailing bytes", r.Remaining())
		}
		if r.Err() != nil && err == nil {
			t.Fatal("Finish cleared a decode error")
		}
	})
}

// FuzzWriterReaderRoundTrip checks that anything the Writer produces for a
// (value, string) pair decodes back exactly.
func FuzzWriterReaderRoundTrip(f *testing.F) {
	f.Add(uint64(0), "")
	f.Add(uint64(1<<63), "hello")
	f.Add(uint64(42), string([]byte{0, 0xff, 0x80}))
	f.Fuzz(func(t *testing.T, v uint64, s string) {
		w := NewWriter(16)
		w.U64(v)
		w.String(s)
		w.Bool(len(s)%2 == 0)
		r := NewReader(w.Bytes())
		if got := r.U64(); got != v {
			t.Fatalf("u64: %d != %d", got, v)
		}
		if got := r.Str(); got != s {
			t.Fatalf("str: %q != %q", got, s)
		}
		if got := r.Bool(); got != (len(s)%2 == 0) {
			t.Fatalf("bool mismatch")
		}
		if err := r.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
	})
}
