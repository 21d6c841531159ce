package alloc

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/aerie-fs/aerie/internal/scm"
)

// The property tests drive the buddy allocator with random alloc/free
// sequences punctuated by simulated power loss, checking it against a plain
// map model. The bitmap is the authoritative state (§5.3.7): after a crash,
// Attach must rebuild free lists that agree exactly with every extent the
// model says is live.

const (
	propHeapStart = 64 * 1024
	propHeapSize  = 1 << 20
)

// checkModel verifies the allocator agrees with the model: the exact set of
// allocated minimum blocks, the free-byte count, and that no two live
// extents overlap.
func checkModel(t *testing.T, b *Buddy, model map[uint64]uint64) {
	t.Helper()
	want := map[uint64]bool{}
	type ext struct{ addr, size uint64 }
	exts := make([]ext, 0, len(model))
	for addr, size := range model {
		exts = append(exts, ext{addr, size})
		for a := addr; a < addr+size; a += MinBlock {
			if want[a] {
				t.Fatalf("model overlap at %#x", a)
			}
			want[a] = true
		}
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].addr < exts[j].addr })
	for i := 1; i < len(exts); i++ {
		if exts[i-1].addr+exts[i-1].size > exts[i].addr {
			t.Fatalf("allocator handed out overlapping extents: [%#x,+%d) and [%#x,+%d)",
				exts[i-1].addr, exts[i-1].size, exts[i].addr, exts[i].size)
		}
	}
	got := map[uint64]bool{}
	if err := b.ForEachAllocated(func(addr uint64) error {
		got[addr] = true
		return nil
	}); err != nil {
		t.Fatalf("ForEachAllocated: %v", err)
	}
	for a := range want {
		if !got[a] {
			t.Fatalf("block %#x live in model but free in bitmap (leak-to-free)", a)
		}
	}
	for a := range got {
		if !want[a] {
			t.Fatalf("block %#x allocated in bitmap but unknown to model (leaked)", a)
		}
	}
	var used uint64
	for _, size := range model {
		used += size
	}
	if fb := b.FreeBytes(); fb != propHeapSize-used {
		t.Fatalf("FreeBytes = %d, want %d (heap %d - used %d)", fb, propHeapSize-used, uint64(propHeapSize), used)
	}
}

// TestPropertyAllocFreeCrashRecover is the model-based random walk: alloc,
// free, and crash-recover in random order, checking full agreement with the
// map model after every recovery and at the end of each seed.
func TestPropertyAllocFreeCrashRecover(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mem := scm.New(scm.Config{Size: 2 << 20, TrackPersistence: true})
			t.Cleanup(func() { mem.Close() })
			b, err := Format(mem, scm.PageSize, propHeapStart, propHeapSize)
			if err != nil {
				t.Fatal(err)
			}
			model := map[uint64]uint64{} // addr -> rounded extent size
			live := []uint64{}           // addrs, for random victim selection
			steps := 600
			if testing.Short() {
				steps = 150
			}
			for i := 0; i < steps; i++ {
				switch r := rng.Intn(100); {
				case r < 55: // alloc
					req := uint64(rng.Intn(64*1024) + 1)
					addr, err := b.Alloc(req)
					if err != nil {
						continue // exhaustion is legitimate
					}
					size := BlockSize(OrderFor(req))
					if _, dup := model[addr]; dup {
						t.Fatalf("step %d: Alloc returned live address %#x", i, addr)
					}
					model[addr] = size
					live = append(live, addr)
				case r < 85 && len(live) > 0: // free a random live extent
					vi := rng.Intn(len(live))
					addr := live[vi]
					if err := b.Free(addr, model[addr]); err != nil {
						t.Fatalf("step %d: Free(%#x, %d): %v", i, addr, model[addr], err)
					}
					delete(model, addr)
					live[vi] = live[len(live)-1]
					live = live[:len(live)-1]
				case r < 90 && len(live) > 0: // double free must be rejected
					addr := live[rng.Intn(len(live))]
					size := model[addr]
					if err := b.Free(addr, size); err != nil {
						t.Fatalf("step %d: Free(%#x): %v", i, addr, err)
					}
					if err := b.Free(addr, size); err == nil {
						t.Fatalf("step %d: double free of %#x accepted", i, addr)
					}
					delete(model, addr)
					for vi, a := range live {
						if a == addr {
							live[vi] = live[len(live)-1]
							live = live[:len(live)-1]
							break
						}
					}
				default: // crash and recover from the bitmap
					mem.Crash()
					b, err = Attach(mem, scm.PageSize, propHeapStart, propHeapSize)
					if err != nil {
						t.Fatalf("step %d: Attach after crash: %v", i, err)
					}
					checkModel(t, b, model)
				}
			}
			checkModel(t, b, model)
			// Drain: everything must free cleanly and the heap must come back whole.
			for addr, size := range model {
				if err := b.Free(addr, size); err != nil {
					t.Fatalf("drain Free(%#x, %d): %v", addr, size, err)
				}
			}
			if fb := b.FreeBytes(); fb != propHeapSize {
				t.Fatalf("after drain FreeBytes = %d, want %d", fb, uint64(propHeapSize))
			}
		})
	}
}

// TestPropertyConcurrentAllocFree hammers one allocator from several
// goroutines (meaningful under -race): every handed-out extent must be
// unique, and after joining, the survivors must match the bitmap exactly.
func TestPropertyConcurrentAllocFree(t *testing.T) {
	mem := scm.New(scm.Config{Size: 2 << 20, TrackPersistence: true})
	t.Cleanup(func() { mem.Close() })
	b, err := Format(mem, scm.PageSize, propHeapStart, propHeapSize)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	iters := 300
	if testing.Short() {
		iters = 60
	}
	var mu sync.Mutex
	survivors := map[uint64]uint64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			mine := map[uint64]uint64{}
			for i := 0; i < iters; i++ {
				if rng.Intn(2) == 0 || len(mine) == 0 {
					req := uint64(rng.Intn(16*1024) + 1)
					addr, err := b.Alloc(req)
					if err != nil {
						continue
					}
					mine[addr] = BlockSize(OrderFor(req))
				} else {
					for addr, size := range mine {
						if err := b.Free(addr, size); err != nil {
							t.Errorf("worker %d: Free(%#x): %v", w, addr, err)
						}
						delete(mine, addr)
						break
					}
				}
			}
			mu.Lock()
			for addr, size := range mine {
				if prev, dup := survivors[addr]; dup {
					t.Errorf("address %#x handed to two workers (sizes %d, %d)", addr, prev, size)
				}
				survivors[addr] = size
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkModel(t, b, survivors)
}
