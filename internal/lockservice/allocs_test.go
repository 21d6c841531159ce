package lockservice

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: an acquire the clerk answers from its cached grant, and
// the matching release, touch no heap — the lock name the tracer keys on is
// only formatted when a tracer is attached. Neither does a contended
// hand-off: the acquire and release payloads are encoded into the clerk's
// entry, the service's queued request, lock state and holder slot are
// recycled, the revoke payload comes from a pool, and the in-process
// transport copies requests into recycled buffers.
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

	// Two clerks take X on one lock in turn: each acquire queues, revokes
	// the other clerk's cached grant, and is granted by that clerk's
	// release.
	a, _ := h.newClerk(t)
	b, _ := h.newClerk(t)
	const id = 43
	turn := func(c *Clerk) {
		if err := c.Acquire(id, X, false); err != nil {
			t.Fatal(err)
		}
		c.Release(id, X)
	}
	cycle := func() {
		turn(a)
		turn(b)
	}
	cycle()
	revoked := h.svc.revocations
	got := testing.AllocsPerRun(100, cycle)
	if h.svc.revocations-revoked < 200 {
		t.Fatalf("%d revocations in 101 cycles, want one per turn", h.svc.revocations-revoked)
	}
	if got != 0 {
		t.Errorf("contended hand-off (two revocations per cycle): %v allocs/cycle, want 0", got)
	}
}
