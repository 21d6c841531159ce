package alloc

import (
	"testing"
)

// TestFragStats exercises the fragmentation snapshot: a fresh heap is one contiguous block (index 0); poking holes into
// it shatters the free space and raises the index; coalescing frees lowers
// it back to 0.
func TestFragStats(t *testing.T) {
	b, _ := newBuddy(t)

	st := b.FragStats()
	if st.FreeBytes != 1<<20 {
		t.Fatalf("fresh free = %d", st.FreeBytes)
	}
	if st.LargestFree != 1<<20 || st.Fragments != 1 || st.Index != 0 {
		t.Fatalf("fresh heap not contiguous: %+v", st)
	}

	// Allocate every minimum block, then free every other one: free space
	// becomes all-minimum-order fragments that cannot coalesce.
	n := int((uint64(1) << 20) / MinBlock)
	addrs := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		a, err := b.Alloc(MinBlock)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i := 0; i < n; i += 2 {
		if err := b.Free(addrs[i], MinBlock); err != nil {
			t.Fatal(err)
		}
	}
	st = b.FragStats()
	if st.LargestFree != MinBlock {
		t.Fatalf("checkerboarded heap has largest free %d, want %d", st.LargestFree, uint64(MinBlock))
	}
	if want := uint64(n / 2); st.Fragments != want {
		t.Fatalf("fragments = %d, want %d", st.Fragments, want)
	}
	if st.PerOrder[minOrder] != uint64(n/2) {
		t.Fatalf("per-order[%d] = %d, want %d", minOrder, st.PerOrder[minOrder], n/2)
	}
	wantIdx := 1 - float64(MinBlock)/float64(st.FreeBytes)
	if st.Index != wantIdx {
		t.Fatalf("index = %v, want %v", st.Index, wantIdx)
	}

	// Free the rest: coalescing must restore one contiguous block.
	for i := 1; i < n; i += 2 {
		if err := b.Free(addrs[i], MinBlock); err != nil {
			t.Fatal(err)
		}
	}
	st = b.FragStats()
	if st.LargestFree != 1<<20 || st.Fragments != 1 || st.Index != 0 {
		t.Fatalf("coalesced heap not contiguous: %+v", st)
	}
}

// TestReservationConsumedBytes pins the charge the TFS makes against a
// batch's tenant: bytes drawn through the reservation (held-serve and
// fallback alike) count; released surplus does not.
func TestReservationConsumedBytes(t *testing.T) {
	b, _ := newBuddy(t)

	r, err := b.Reserve([]uint64{MinBlock, MinBlock, 2 * MinBlock})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ConsumedBytes(); got != 0 {
		t.Fatalf("consumed before any alloc = %d", got)
	}

	// Draw one minimum block from the held set.
	if _, err := r.Alloc(MinBlock); err != nil {
		t.Fatal(err)
	}
	if got := r.ConsumedBytes(); got != MinBlock {
		t.Fatalf("consumed after held-serve = %d, want %d", got, uint64(MinBlock))
	}

	// Exhaust the held blocks, then force a fallback allocation: it must
	// count toward consumption too.
	if _, err := r.Alloc(MinBlock); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Alloc(2 * MinBlock); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Alloc(MinBlock); err != nil { // fallback
		t.Fatal(err)
	}
	if got, want := r.ConsumedBytes(), uint64(5*MinBlock); got != want {
		t.Fatalf("consumed after fallback = %d, want %d", got, want)
	}
	if r.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", r.Fallbacks())
	}

	// Release is charge-neutral: surplus goes back without touching the
	// consumed count.
	r.Release()
	if got, want := r.ConsumedBytes(), uint64(5*MinBlock); got != want {
		t.Fatalf("consumed after release = %d, want %d", got, want)
	}
}
