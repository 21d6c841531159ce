package scm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/aerie-fs/aerie/internal/costmodel"
)

func TestSliceAliasesVolatileImage(t *testing.T) {
	m := New(Config{Size: 2 * PageSize, TrackPersistence: true})
	if err := m.Write(100, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	b, err := m.Slice(100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello" {
		t.Fatalf("slice = %q", b)
	}
	// The window is a live view of the volatile image, like a load through
	// a real mapping: later stores show through it.
	if err := m.Write(100, []byte("HELLO")); err != nil {
		t.Fatal(err)
	}
	if string(b) != "HELLO" {
		t.Fatalf("slice after write = %q", b)
	}
	// Capacity is clipped so the window cannot be extended past n.
	if cap(b) != 5 {
		t.Fatalf("cap = %d, want 5", cap(b))
	}
	if _, err := m.Slice(m.Size()-2, 4); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range slice: %v", err)
	}
}

func TestSliceCountsReads(t *testing.T) {
	m := New(Config{Size: PageSize})
	before := m.Stats().Reads.Load()
	beforeBytes := m.Stats().BytesRead.Load()
	if _, err := m.Slice(0, 128); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Reads.Load() - before; got != 1 {
		t.Fatalf("Reads delta = %d, want 1", got)
	}
	if got := m.Stats().BytesRead.Load() - beforeBytes; got != 128 {
		t.Fatalf("BytesRead delta = %d, want 128", got)
	}
}

// TestSliceReadEquivalence drives a random mix of writes, flushes and
// adversarial evictions and checks that Slice and Read observe identical
// bytes at every step: slices come from the volatile image, exactly like
// copying reads, regardless of what the persistence machinery is doing.
func TestSliceReadEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{Size: 4 * PageSize, TrackPersistence: true})
		for step := 0; step < 200; step++ {
			addr := uint64(rng.Intn(3 * PageSize))
			n := 1 + rng.Intn(300)
			switch rng.Intn(5) {
			case 0:
				p := make([]byte, n)
				rng.Read(p)
				if err := m.Write(addr, p); err != nil {
					t.Fatal(err)
				}
			case 1:
				p := make([]byte, n)
				rng.Read(p)
				if err := m.WriteStream(addr, p); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := m.Flush(addr, n); err != nil {
					t.Fatal(err)
				}
			case 3:
				m.EvictRandom(rng, 0.3)
			case 4:
				m.BFlush()
			}
			got, err := m.Slice(addr, n)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, n)
			if err := m.Read(addr, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Logf("seed %d step %d: slice != read at %#x+%d", seed, step, addr, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteStreamPendingBookkeeping is the regression test for the pending
// slice growing without bound: with persistence tracking off, streaming
// writers keep only an O(1) count of pending lines (the slice stays empty no
// matter how many lines are streamed), while BFlush still credits every line
// to LinesFlushed — including lines streamed while the shared Costs had zero
// write latency, which a later sweep may make chargeable.
func TestWriteStreamPendingBookkeeping(t *testing.T) {
	buf := make([]byte, 256)
	lines := len(buf) / LineSize

	t.Run("untracked no costs", func(t *testing.T) {
		m := New(Config{Size: PageSize})
		for i := 0; i < 100; i++ {
			if err := m.WriteStream(0, buf); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.pendingLines(); got != 100*lines {
			t.Fatalf("pending = %d, want %d", got, 100*lines)
		}
		if len(m.pending) != 0 {
			t.Fatalf("pending slice holds %d entries untracked, want 0 (O(1) count only)", len(m.pending))
		}
		before := m.Stats().LinesFlushed.Load()
		m.BFlush()
		if got := m.Stats().LinesFlushed.Load() - before; got != int64(100*lines) {
			t.Fatalf("LinesFlushed delta = %d, want %d", got, 100*lines)
		}
		if got := m.pendingLines(); got != 0 {
			t.Fatalf("pending after BFlush = %d, want 0", got)
		}
	})

	t.Run("untracked zero write latency", func(t *testing.T) {
		m := New(Config{Size: PageSize, Costs: &costmodel.Costs{}})
		for i := 0; i < 100; i++ {
			if err := m.WriteStream(0, buf); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.pendingLines(); got != 100*lines {
			t.Fatalf("pending = %d, want %d", got, 100*lines)
		}
		if len(m.pending) != 0 {
			t.Fatalf("pending slice holds %d entries untracked, want 0 (O(1) count only)", len(m.pending))
		}
		before := m.Stats().LinesFlushed.Load()
		m.BFlush()
		if got := m.Stats().LinesFlushed.Load() - before; got != int64(100*lines) {
			t.Fatalf("LinesFlushed delta = %d, want %d", got, 100*lines)
		}
	})

	t.Run("untracked with write latency", func(t *testing.T) {
		m := New(Config{Size: PageSize, Costs: &costmodel.Costs{SCMWriteLine: time.Nanosecond}})
		if err := m.WriteStream(0, buf); err != nil {
			t.Fatal(err)
		}
		if got := m.pendingLines(); got != lines {
			t.Fatalf("pending = %d, want %d", got, lines)
		}
		if len(m.pending) != 0 {
			t.Fatalf("pending slice holds %d entries untracked, want 0 (O(1) count only)", len(m.pending))
		}
		m.BFlush()
		if got := m.pendingLines(); got != 0 {
			t.Fatalf("pending after BFlush = %d, want 0", got)
		}
	})

	t.Run("tracked", func(t *testing.T) {
		m := New(Config{Size: PageSize, TrackPersistence: true})
		if err := m.WriteStream(0, buf); err != nil {
			t.Fatal(err)
		}
		if got := m.pendingLines(); got != len(buf)/LineSize {
			t.Fatalf("pending = %d, want %d", got, len(buf)/LineSize)
		}
		m.BFlush()
		if got := m.pendingLines(); got != 0 {
			t.Fatalf("pending after BFlush = %d, want 0", got)
		}
	})
}

// Slice aliases the arena, on a volatile Memory and through a read-only
// volume's mapping alike: a later store shows through a view taken before it.
func TestAsSlicer(t *testing.T) {
	m := New(Config{Size: PageSize})
	if err := m.Write(64, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	b, err := m.Slice(64, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "abcdef" {
		t.Fatalf("Slice = %q", b)
	}
	if cap(b) != 6 {
		t.Fatalf("Slice capacity %d, want 6", cap(b))
	}
	if err := m.Write(64, []byte("ABCDEF")); err != nil {
		t.Fatal(err)
	}
	if string(b) != "ABCDEF" {
		t.Fatalf("slice should alias: %q", b)
	}

	path := tmpVolPath(t)
	createAndClose(t, path, 1<<20)
	ro, err := OpenVolume(path, VolumeOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	rb, err := ro.Mem().Slice(0, 12)
	if err != nil || string(rb) != "persist-head" {
		t.Fatalf("slice through RO mapping: %q, %v", rb, err)
	}
	full := ro.Mem().data[:12]
	if &rb[0] != &full[0] {
		t.Fatal("RO slice does not alias the mapped arena")
	}
}
