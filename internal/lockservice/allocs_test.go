package lockservice

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: an acquire the clerk answers from its cached grant, and
// the matching release, touch no heap — the lock name the tracer keys on is
// only formatted when a tracer is attached.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	h := newHarness(t, Config{})
	c, _ := h.newClerk(t)
	for _, class := range []Class{S, X} {
		const id = 42
		if err := c.Acquire(id, class, false); err != nil { // global grant, cached
			t.Fatal(err)
		}
		c.Release(id, class)
		got := testing.AllocsPerRun(100, func() {
			if err := c.Acquire(id, class, false); err != nil {
				t.Fatal(err)
			}
			c.Release(id, class)
		})
		if got != 0 {
			t.Errorf("cached Acquire+Release %v: %v allocs/op, want 0", class, got)
		}
	}
}
