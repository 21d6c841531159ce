package scm

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// sameState fails the test unless the two arenas are indistinguishable:
// volatile image, persistent image, dirty-line set, lines awaiting BFlush,
// pending msync window and access counters.
func sameState(t *testing.T, what string, a, b *Memory) {
	t.Helper()
	switch {
	case !bytes.Equal(a.data, b.data):
		t.Fatalf("%s: volatile images differ", what)
	case !bytes.Equal(a.shadow, b.shadow):
		t.Fatalf("%s: persistent images differ", what)
	case !slices.Equal(a.dirty, b.dirty):
		t.Fatalf("%s: dirty-line sets differ", what)
	case a.PendingLines() != b.PendingLines():
		t.Fatalf("%s: pending lines %d vs %d", what, a.PendingLines(), b.PendingLines())
	case a.syncLo != b.syncLo || a.syncHi != b.syncHi:
		t.Fatalf("%s: msync window [%d,%d) vs [%d,%d)", what, a.syncLo, a.syncHi, b.syncLo, b.syncHi)
	}
	sa, sb := a.Stats(), b.Stats()
	for _, c := range [][2]int64{
		{sa.Reads.Load(), sb.Reads.Load()}, {sa.Writes.Load(), sb.Writes.Load()},
		{sa.BytesRead.Load(), sb.BytesRead.Load()}, {sa.BytesWritten.Load(), sb.BytesWritten.Load()},
		{sa.LinesFlushed.Load(), sb.LinesFlushed.Load()}, {sa.Fences.Load(), sb.Fences.Load()},
	} {
		if c[0] != c[1] {
			t.Fatalf("%s: stats differ: %d vs %d", what, c[0], c[1])
		}
	}
}

func sameErr(t *testing.T, what string, a, b error) {
	t.Helper()
	if (a == nil) != (b == nil) || a != nil && a.Error() != b.Error() {
		t.Fatalf("%s: Store returned %v, Write returned %v", what, a, b)
	}
	for _, typed := range []error{ErrOutOfRange, ErrReadOnly} {
		if errors.Is(a, typed) != errors.Is(b, typed) {
			t.Fatalf("%s: %v vs %v differ on %v", what, a, b, typed)
		}
	}
}

// storeVsWrite applies one random scalar store to a through Store and to b
// through Write of the same bytes, sometimes past the end of the arena.
func storeVsWrite(t *testing.T, rng *rand.Rand, a, b *Memory) {
	t.Helper()
	width := 2 << rng.Intn(3)
	addr := uint64(rng.Intn(int(a.Size()) + 4 - width))
	if rng.Intn(16) == 0 {
		addr = a.Size() - uint64(rng.Intn(width))
	}
	v := rng.Uint64()
	var p [8]byte
	putU64(p[:], v)
	sameErr(t, "store", a.Store(addr, v, width), b.Write(addr, p[:width]))
}

// TestStoreWriteEquivalence is the write-side twin of
// TestSliceReadEquivalence: a Store and a Write of the same bytes are the
// same operation, whatever flushes, adversarial evictions and crashes
// surround them.
func TestStoreWriteEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		evictA, evictB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		a := New(Config{Size: 4 * PageSize, TrackPersistence: true})
		b := New(Config{Size: 4 * PageSize, TrackPersistence: true})
		for step := 0; step < 300; step++ {
			switch rng.Intn(8) {
			default:
				storeVsWrite(t, rng, a, b)
			case 0:
				addr, n := uint64(rng.Intn(3*PageSize)), 1+rng.Intn(300)
				sameErr(t, "flush", a.Flush(addr, n), b.Flush(addr, n))
			case 1:
				a.EvictRandom(evictA, 0.3)
				b.EvictRandom(evictB, 0.3)
			case 2:
				if rng.Intn(4) == 0 {
					a.Crash()
					b.Crash()
				}
			}
			sameState(t, "tracked arena", a, b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The typed helpers must leave the same bytes whether the space stores by
// value or falls back to Write (a wrapper without the capability, as the
// benchmark's timing space is), and reject a width no scalar has.
func TestTypedWritesWithAndWithoutStorer(t *testing.T) {
	a, b := New(Config{Size: PageSize}), New(Config{Size: PageSize})
	var plain Space = nonSlicer{b}
	if _, ok := plain.(Storer); ok {
		t.Fatal("wrapper should hide Store")
	}
	for i, sp := range []Space{a, plain} {
		if err := errors.Join(Write16(sp, 10, 0xbeef), Write32(sp, 20, 0xdeadbeef), Write64(sp, 32, 0x0123456789abcdef)); err != nil {
			t.Fatalf("space %d: %v", i, err)
		}
	}
	sameState(t, "typed writes", a, b)
	for _, width := range []int{0, -1, 9} {
		if err := a.Store(0, 1, width); err == nil {
			t.Fatalf("Store accepted width %d", width)
		}
	}
}

// On a volume Store extends the pending msync window exactly as Write does,
// and a read-only arena refuses both alike.
func TestStoreOnVolume(t *testing.T) {
	open := func() (*Volume, *Memory) {
		v, err := CreateVolume(tmpVolPath(t), VolumeOptions{ArenaSize: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = v.Close() })
		return v, v.Mem()
	}
	_, a := open()
	_, b := open()
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 500; step++ {
		if rng.Intn(20) == 0 {
			a.Fence()
			b.Fence()
		}
		storeVsWrite(t, rng, a, b)
		sameState(t, "volume", a, b)
	}

	path := tmpVolPath(t)
	createAndClose(t, path, 1<<20)
	ro, err := OpenVolume(path, VolumeOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	sameErr(t, "read-only", ro.Mem().Store(0, 1, 8), ro.Mem().Write(0, make([]byte, 8)))
	if err := Write32(ro.Mem(), 0, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write32 on a read-only arena: %v", err)
	}
}
