package alloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/aerie-fs/aerie/internal/scm"
)

// newBuddy creates a 1 MiB heap starting at 64 KiB with its bitmap at 4 KiB.
func newBuddy(t *testing.T) (*Buddy, *scm.Memory) {
	t.Helper()
	mem := scm.New(scm.Config{Size: 2 << 20, TrackPersistence: true})
	t.Cleanup(func() { mem.Close() })
	b, err := Format(mem, scm.PageSize, 64*1024, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return b, mem
}

func TestAllocBasics(t *testing.T) {
	b, _ := newBuddy(t)
	if b.FreeBytes() != 1<<20 {
		t.Fatalf("free = %d", b.FreeBytes())
	}
	a1, err := b.Alloc(100) // rounds to two minimum blocks
	if err != nil {
		t.Fatal(err)
	}
	if (a1-64*1024)%(2*MinBlock) != 0 {
		t.Fatalf("misaligned alloc %#x", a1)
	}
	if b.FreeBytes() != 1<<20-2*MinBlock {
		t.Fatalf("free after alloc = %d", b.FreeBytes())
	}
	a2, err := b.Alloc(5000) // rounds to 8 KiB
	if err != nil {
		t.Fatal(err)
	}
	if a2%(8*1024) != 0 && (a2-64*1024)%(8*1024) != 0 {
		t.Fatalf("order-13 block misaligned: %#x", a2)
	}
	if err := b.Free(a1, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(a2, 5000); err != nil {
		t.Fatal(err)
	}
	if b.FreeBytes() != 1<<20 {
		t.Fatalf("free after frees = %d", b.FreeBytes())
	}
}

func TestAllocFullHeapAndCoalesce(t *testing.T) {
	b, _ := newBuddy(t)
	// Allocate the entire heap as one block, free it, then allocate it
	// again: coalescing must restore the maximal block.
	a, err := b.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Free(a, 1<<20); err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	for i := 0; i < 256; i++ {
		x, err := b.Alloc(MinBlock)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		addrs = append(addrs, x)
	}
	for _, x := range addrs {
		if err := b.Free(x, MinBlock); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Alloc(1 << 20); err != nil {
		t.Fatalf("coalescing failed, cannot re-allocate whole heap: %v", err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	b, _ := newBuddy(t)
	for {
		if _, err := b.Alloc(MinBlock); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("wrong error: %v", err)
			}
			break
		}
	}
	if b.FreeBytes() != 0 {
		t.Fatalf("free at exhaustion = %d", b.FreeBytes())
	}
}

func TestAllocTooLarge(t *testing.T) {
	b, _ := newBuddy(t)
	if _, err := b.Alloc(2 << 20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestDoubleAndBadFree(t *testing.T) {
	b, _ := newBuddy(t)
	a, _ := b.Alloc(MinBlock)
	if err := b.Free(a, MinBlock); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(a, MinBlock); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v", err)
	}
	if err := b.Free(1, MinBlock); !errors.Is(err, ErrBadFree) {
		t.Fatalf("free outside heap: %v", err)
	}
	a2, _ := b.Alloc(8 * 1024)
	if err := b.Free(a2+MinBlock, 8*1024); !errors.Is(err, ErrBadFree) {
		t.Fatalf("misaligned free: %v", err)
	}
	if err := b.Free(a2, 8*1024); err != nil {
		t.Fatal(err)
	}
}

func TestAttachRebuildsFromBitmap(t *testing.T) {
	b, mem := newBuddy(t)
	var kept []uint64
	for i := 0; i < 10; i++ {
		a, err := b.Alloc(MinBlock * uint64(1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, a)
	}
	freeBefore := b.FreeBytes()
	mem.Crash()
	b2, err := Attach(mem, scm.PageSize, 64*1024, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if b2.FreeBytes() != freeBefore {
		t.Fatalf("free after recovery = %d, want %d", b2.FreeBytes(), freeBefore)
	}
	// Fresh allocations must not overlap surviving ones.
	seen := map[uint64]bool{}
	for _, a := range kept {
		seen[a] = true
	}
	for {
		a, err := b2.Alloc(MinBlock)
		if err != nil {
			break
		}
		if seen[a] {
			t.Fatalf("recovered allocator handed out live block %#x", a)
		}
	}
	// Frees of pre-crash allocations still work.
	if err := b2.Free(kept[0], MinBlock); err != nil {
		t.Fatalf("free pre-crash block: %v", err)
	}
}

func TestOrderFor(t *testing.T) {
	cases := []struct {
		size uint64
		want uint
	}{
		{1, minOrder}, {MinBlock, minOrder}, {MinBlock + 1, minOrder + 1},
		{4096, 12}, {4097, 13}, {8192, 13}, {1 << 20, 20},
	}
	for _, c := range cases {
		if got := OrderFor(c.size); got != c.want {
			t.Errorf("OrderFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

// Property: arbitrary alloc/free sequences never produce overlapping live
// extents, never misalign, and free bytes stay consistent.
func TestQuickNoOverlapNoLeak(t *testing.T) {
	type live struct{ addr, size uint64 }
	f := func(seed int64, steps []uint16) bool {
		mem := scm.New(scm.Config{Size: 2 << 20})
		defer mem.Close()
		b, err := Format(mem, scm.PageSize, 64*1024, 1<<20)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var lives []live
		for _, s := range steps {
			if s%2 == 0 || len(lives) == 0 {
				size := uint64(1+rng.Intn(4*MinBlock)) + uint64(s%7)*MinBlock
				a, err := b.Alloc(size)
				if errors.Is(err, ErrNoSpace) || errors.Is(err, ErrTooLarge) {
					continue
				}
				if err != nil {
					return false
				}
				actual := BlockSize(OrderFor(size))
				for _, l := range lives {
					la := BlockSize(OrderFor(l.size))
					if a < l.addr+la && l.addr < a+actual {
						return false // overlap
					}
				}
				lives = append(lives, live{a, size})
			} else {
				i := int(s) % len(lives)
				if err := b.Free(lives[i].addr, lives[i].size); err != nil {
					return false
				}
				lives[i] = lives[len(lives)-1]
				lives = lives[:len(lives)-1]
			}
		}
		// Free everything: heap must return to fully free.
		for _, l := range lives {
			if err := b.Free(l.addr, l.size); err != nil {
				return false
			}
		}
		return b.FreeBytes() == 1<<20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFree4K(b *testing.B) {
	mem := scm.New(scm.Config{Size: 8 << 20})
	b.Cleanup(func() { mem.Close() })
	bd, err := Format(mem, scm.PageSize, 64*1024, 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		a, err := bd.Alloc(MinBlock)
		if err != nil {
			b.Fatal(err)
		}
		if err := bd.Free(a, MinBlock); err != nil {
			b.Fatal(err)
		}
	}
}
