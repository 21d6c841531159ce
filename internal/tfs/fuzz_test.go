package tfs

import (
	"bytes"
	"testing"
)

// FuzzDecodeActions throws arbitrary bytes at the journal-record decoder.
// Recovery runs it on every committed journal record — bytes that crossed a
// crash, so corruption is a when, not an if — and it must never panic or
// over-allocate on a hostile count. Anything it accepts must survive a
// re-encode/re-decode round trip unchanged, since redo replay re-reads the
// same record and must see the same actions.
func FuzzDecodeActions(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendActions(nil, nil))
	f.Add(appendActions(nil, []action{
		{code: jInsert, oid: 0x4001, child: 0x8002, key: []byte("file.txt")},
	}))
	f.Add(appendActions(nil, []action{
		{code: jTruncate, oid: 0x8002, a: 4096},
		{code: jPreallocConsume, oid: 0x4001, key: []byte{1, 2, 3, 4, 5, 6, 7, 8}, a: 1 << 20},
		{code: jAttach, oid: 0x8002, a: 3, b: 1 << 20},
		{code: jFree, oid: 0x8002, a: 1 << 21, b: 8192},
	}))
	// The multi-tenant era's records: an apply-time object free (the
	// unlink-of-buffered-appends path) and a degraded NoGC remove, as a
	// quota-era batch would journal them.
	f.Add(appendActions(nil, []action{
		{code: jFreeObj, oid: 0x8002},
		{code: jRemove, oid: 0x4001, key: []byte("old"), a: 1},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}) // hostile count
	f.Fuzz(func(t *testing.T, data []byte) {
		acts, err := decodeActions(data)
		if err != nil {
			return
		}
		back := appendActions(nil, acts)
		acts2, err := decodeActions(back)
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if len(acts) != len(acts2) {
			t.Fatalf("round trip changed action count: %d -> %d", len(acts), len(acts2))
		}
		for i := range acts {
			a, b := acts[i], acts2[i]
			if a.code != b.code || a.oid != b.oid || a.child != b.child ||
				!bytes.Equal(a.key, b.key) || a.a != b.a || a.b != b.b {
				t.Fatalf("round trip changed action %d: %+v -> %+v", i, a, b)
			}
		}
		// The count cap bounds what a corrupted record can make recovery
		// allocate before per-action reads fail.
		if len(acts) > 1<<22 {
			t.Fatalf("decoder accepted %d actions past its own cap", len(acts))
		}
	})
}
