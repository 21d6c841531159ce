package scm

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// TestArenaOffHeap: an arena and its shadow are mappings, not heap objects,
// so a 256 MiB machine costs the collector nothing — the bitmap of dirty
// lines (512 KiB at this size) is all the heap sees — and Close returns
// every mapped byte.
func TestArenaOffHeap(t *testing.T) {
	if !mmapSupported {
		t.Skip("arenas are heap slices on this platform")
	}
	const size = 256 << 20
	for _, track := range []bool{false, true} {
		var before, after runtime.MemStats
		mapped0 := MappedBytes()
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := New(Config{Size: size, TrackPersistence: track})
		runtime.ReadMemStats(&after)
		want := int64(size)
		if track {
			want *= 2
		}
		if got := MappedBytes() - mapped0; got != want {
			t.Errorf("track=%v: MappedBytes grew by %d, want %d", track, got, want)
		}
		if grew := int64(after.HeapSys) - int64(before.HeapSys); grew >= 1<<20 {
			t.Errorf("track=%v: HeapSys grew by %d KiB for a %d MiB arena, want < 1 MiB", track, grew>>10, size>>20)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if got := MappedBytes(); got != mapped0 {
			t.Errorf("track=%v: %d bytes still mapped after Close", track, got-mapped0)
		}
	}
}

// TestClosedArenaFailsTyped: after Close — twice, it is idempotent — every
// access to a volatile, a tracked and a volume arena fails with
// ErrOutOfRange, and every barrier and crash hook is a no-op, instead of
// faulting on the unmapped pages.
func TestClosedArenaFailsTyped(t *testing.T) {
	for _, c := range []struct {
		name string
		open func(t *testing.T) *Memory
	}{
		{"volatile", func(*testing.T) *Memory { return New(Config{Size: 1 << 20}) }},
		{"tracked", func(*testing.T) *Memory { return New(Config{Size: 1 << 20, TrackPersistence: true}) }},
		{"volume", func(t *testing.T) *Memory {
			v, err := CreateVolume(tmpVolPath(t), VolumeOptions{ArenaSize: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			return v.Mem()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mapped0 := MappedBytes()
			m := c.open(t)
			// Leave work pending for the barriers to find: a dirty line and
			// a streamed one.
			if err := m.Write(0, []byte("dirty")); err != nil {
				t.Fatal(err)
			}
			if err := m.WriteStream(LineSize, []byte("streamed")); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := m.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			if got := MappedBytes(); got != mapped0 {
				t.Errorf("%d bytes still mapped after Close", got-mapped0)
			}
			buf := make([]byte, 8)
			for op, err := range map[string]error{
				"Read":        m.Read(0, buf),
				"Write":       m.Write(0, buf),
				"WriteStream": m.WriteStream(0, buf),
				"Flush":       m.Flush(0, 8),
				"Store":       m.Store(0, 1, 8),
				"Atomic64":    m.Atomic64(0, 1),
				"Write64":     Write64(m, 8, 1),
			} {
				if !errors.Is(err, ErrOutOfRange) {
					t.Errorf("%s after Close: err = %v, want ErrOutOfRange", op, err)
				}
			}
			if _, err := m.Slice(0, 8); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("Slice after Close: err = %v, want ErrOutOfRange", err)
			}
			if _, err := Read64(m, 0); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("Read64 after Close: err = %v, want ErrOutOfRange", err)
			}
			m.Fence()
			m.BFlush()
			if m.track {
				m.PersistAll()
				m.EvictRandom(rand.New(rand.NewSource(1)), 1)
				m.Crash()
			}
			if m.Size() != 0 || m.dirtyLines() != 0 || m.pendingLines() != 0 {
				t.Errorf("closed arena: size %d, %d dirty and %d pending lines; want all 0",
					m.Size(), m.dirtyLines(), m.pendingLines())
			}
		})
	}
}

// TestMapRefusalIsAnError: an arena the OS will not map is an error for
// Map's caller (core.New reports it), not a crash.
func TestMapRefusalIsAnError(t *testing.T) {
	if !mmapSupported {
		t.Skip("arenas are heap slices on this platform")
	}
	mapped0 := MappedBytes()
	if m, err := Map(Config{Size: 1 << 62}); err == nil {
		m.Close()
		t.Fatal("a 4 EiB arena mapped")
	}
	if got := MappedBytes(); got != mapped0 {
		t.Errorf("%d bytes left mapped by refused arenas", got-mapped0)
	}
}
