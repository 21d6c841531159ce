package scm

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins pins the heap allocations of the scalar stores: zero on a
// space that stores by value. (`make allocs` runs every package's pins.)
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	var m Space = New(Config{Size: PageSize})
	for _, row := range []struct {
		name string
		fn   func() error
	}{
		{"Write16", func() error { return Write16(m, 64, 0xbeef) }},
		{"Write32", func() error { return Write32(m, 64, 0xdeadbeef) }},
		{"Write64", func() error { return Write64(m, 64, 0x0123456789abcdef) }},
		{"Zero", func() error { return Zero(m, 128, 128) }},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := row.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s on Memory: %v allocs/op, want 0", row.name, got)
		}
	}
}
