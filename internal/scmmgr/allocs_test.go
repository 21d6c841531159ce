package scmmgr

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
	"github.com/aerie-fs/aerie/internal/scm"
)

// TestAllocPins: a client's scalar stores through its protected mapping
// allocate nothing.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	r := newStoreRig(t)
	var sp scm.Space = r.mp
	for _, row := range []struct {
		name string
		fn   func() error
	}{
		{"Write16", func() error { return scm.Write16(sp, r.start+64, 0xbeef) }},
		{"Write32", func() error { return scm.Write32(sp, r.start+64, 0xdeadbeef) }},
		{"Write64", func() error { return scm.Write64(sp, r.start+64, 0x0123456789abcdef) }},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := row.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s on Mapping: %v allocs/op, want 0", row.name, got)
		}
	}
}
