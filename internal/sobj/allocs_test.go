package sobj

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: on a slicing space a header is validated in place, and an
// mFile handle the caller declares and opens with MFile.Open is not a heap
// object.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	e := newEnv(t, 8<<20)
	m, err := CreateMFile(e.mem, e.bd, 0644, DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	oid := m.OID()
	for _, row := range []struct {
		name string
		fn   func() error
	}{
		{"ReadHeader", func() error { _, err := ReadHeader(e.mem, oid); return err }},
		{"MFile.Open+Size+SetSize", func() error {
			var f MFile
			if err := f.Open(e.mem, oid); err != nil {
				return err
			}
			if _, err := f.Size(); err != nil {
				return err
			}
			return f.SetSize(4096)
		}},
		{"SetRefcnt", func() error { return SetRefcnt(e.mem, oid, 1) }},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := row.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", row.name, got)
		}
	}
}
