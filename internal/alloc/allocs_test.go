package alloc

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: an allocate-and-free of one block reads and updates the
// persistent bitmap without a heap allocation, and a reservation of a few
// blocks is the one object it returns.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	b, _ := newBuddy(t)
	demand := []uint64{4096, 4096, 8192}
	for _, row := range []struct {
		name string
		want float64
		fn   func() error
	}{
		{"Alloc+Free 4 KiB", 0, func() error {
			a, err := b.Alloc(4096)
			if err != nil {
				return err
			}
			return b.Free(a, 4096)
		}},
		{"Alloc+Free 256 KiB", 0, func() error {
			a, err := b.Alloc(256 << 10)
			if err != nil {
				return err
			}
			return b.Free(a, 256<<10)
		}},
		{"Reserve+Alloc+Release", 1, func() error {
			r, err := b.Reserve(demand)
			if err != nil {
				return err
			}
			a, err := r.Alloc(4096)
			if err != nil {
				return err
			}
			r.Release()
			return b.Free(a, 4096)
		}},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := row.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if got > row.want {
			t.Errorf("%s: %v allocs/op, want at most %v", row.name, got, row.want)
		}
	}
}
