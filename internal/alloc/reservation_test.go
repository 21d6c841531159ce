package alloc

import (
	"errors"
	"testing"

	"github.com/aerie-fs/aerie/internal/scm"
)

// TestReserveAllOrNothing checks Reserve's transactional contract: a demand
// the heap cannot cover reserves nothing, and the accounting is untouched.
func TestReserveAllOrNothing(t *testing.T) {
	b, _ := newBuddy(t)
	free := b.FreeBytes()
	// 1 MiB heap: 300 extents of 64 minimum blocks (4 KiB) ≈ 1.2 MiB
	// cannot fit.
	demand := make([]uint64, 300)
	for i := range demand {
		demand[i] = 64 * MinBlock
	}
	if _, err := b.Reserve(demand); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized reserve: %v", err)
	}
	if b.FreeBytes() != free || b.ReservedBytes() != 0 {
		t.Fatalf("failed reserve leaked accounting: free %d->%d reserved %d",
			free, b.FreeBytes(), b.ReservedBytes())
	}
	// A demand with one impossible size fails the same way even when the
	// rest would fit.
	if _, err := b.Reserve([]uint64{MinBlock, 8 << 20}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too-large reserve: %v", err)
	}
	if b.FreeBytes() != free || b.ReservedBytes() != 0 {
		t.Fatal("failed mixed reserve leaked accounting")
	}
}

// TestReservationAllocAccounting walks one reservation through its life:
// reserve moves bytes free→reserved, Alloc consumes them (committing bitmap
// bits), Release returns the surplus.
func TestReservationAllocAccounting(t *testing.T) {
	b, _ := newBuddy(t)
	free := b.FreeBytes()
	res, err := b.Reserve([]uint64{MinBlock, 2 * MinBlock, MinBlock})
	if err != nil {
		t.Fatal(err)
	}
	held := res.HeldBytes()
	if held != 4*MinBlock { // 4K + 8K + 4K
		t.Fatalf("held = %d", held)
	}
	if b.ReservedBytes() != held || b.FreeBytes() != free-held {
		t.Fatalf("reserve accounting: free %d reserved %d", b.FreeBytes(), b.ReservedBytes())
	}

	addr, err := res.Alloc(MinBlock)
	if err != nil {
		t.Fatal(err)
	}
	if res.HeldBytes() != held-MinBlock || b.ReservedBytes() != held-MinBlock {
		t.Fatalf("alloc did not consume held bytes: held %d reserved %d",
			res.HeldBytes(), b.ReservedBytes())
	}
	if res.Fallbacks() != 0 {
		t.Fatalf("covered alloc fell back: %d", res.Fallbacks())
	}

	res.Release()
	res.Release() // idempotent
	if b.ReservedBytes() != 0 {
		t.Fatalf("release left %d reserved", b.ReservedBytes())
	}
	if b.FreeBytes() != free-MinBlock {
		t.Fatalf("free after release = %d, want %d", b.FreeBytes(), free-MinBlock)
	}
	// The consumed block is a real allocation now.
	if err := b.Free(addr, MinBlock); err != nil {
		t.Fatal(err)
	}
	if b.FreeBytes() != free {
		t.Fatalf("free after returning the alloc = %d", b.FreeBytes())
	}
}

// TestReservationSplitsHeldBlocks checks that an allocation smaller than any
// held block splits one buddy-style instead of falling through to the pool.
func TestReservationSplitsHeldBlocks(t *testing.T) {
	b, _ := newBuddy(t)
	res, err := b.Reserve([]uint64{4 * MinBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	for i := 0; i < 4; i++ {
		if _, err := res.Alloc(MinBlock); err != nil {
			t.Fatalf("alloc %d from split: %v", i, err)
		}
	}
	if res.Fallbacks() != 0 {
		t.Fatalf("splittable allocs fell back %d times", res.Fallbacks())
	}
	if res.HeldBytes() != 0 {
		t.Fatalf("held = %d after consuming the reservation", res.HeldBytes())
	}
}

// TestReservationFallback checks the safety valve: when the reservation
// cannot cover an allocation (the demand estimate was short), the alloc
// falls through to the shared pool and the counter records it.
func TestReservationFallback(t *testing.T) {
	b, _ := newBuddy(t)
	res, err := b.Reserve([]uint64{MinBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if _, err := res.Alloc(MinBlock); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Alloc(MinBlock); err != nil { // not covered
		t.Fatalf("fallback alloc failed: %v", err)
	}
	if res.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", res.Fallbacks())
	}
}

// TestReservationVolatileAcrossCrash pins the recovery contract: held blocks
// never touch the persistent bitmap, so re-attaching from the bitmap (what a
// crash does) returns every open reservation's bytes to the free lists.
func TestReservationVolatileAcrossCrash(t *testing.T) {
	mem := scm.New(scm.Config{Size: 2 << 20, TrackPersistence: true})
	t.Cleanup(func() { mem.Close() })
	b, err := Format(mem, scm.PageSize, 64*1024, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	free := b.FreeBytes()
	res, err := b.Reserve([]uint64{MinBlock, 2 * MinBlock})
	if err != nil {
		t.Fatal(err)
	}
	// Consume one block — its bits are now persistent — and leave the rest
	// held.
	if _, err := res.Alloc(MinBlock); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	b2, err := Attach(mem, scm.PageSize, 64*1024, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b2.ReservedBytes() != 0 {
		t.Fatalf("reservation survived the crash: %d bytes", b2.ReservedBytes())
	}
	if b2.FreeBytes() != free-MinBlock {
		t.Fatalf("free after crash = %d, want %d (only the consumed block gone)",
			b2.FreeBytes(), free-MinBlock)
	}
}
