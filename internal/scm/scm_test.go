package scm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/obs"
)

func newTracked(t *testing.T, size uint64) *Memory {
	t.Helper()
	return New(Config{Size: size, TrackPersistence: true})
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(Config{Size: 2 * PageSize})
	want := []byte("hello, storage-class memory")
	if err := m.Write(100, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := m.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

// TestFlushChargedPerCallReturn pins the per-call charge accounting that
// client mappings use for attribution: the return value must equal this
// call's lines × SCMWriteLine, independent of the shared scm.charged_ns
// counter (a before/after diff of that counter folds in concurrent
// flushers' charges).
func TestFlushChargedPerCallReturn(t *testing.T) {
	sink := obs.New()
	m := New(Config{
		Size:  2 * PageSize,
		Costs: &costmodel.Costs{SCMWriteLine: time.Nanosecond},
		Obs:   sink,
	})
	global := sink.Counter("scm.charged_ns")

	charged, err := m.FlushCharged(0, 3*int(LineSize))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3); charged != want {
		t.Fatalf("FlushCharged = %dns, want %dns", charged, want)
	}
	if global.Load() != charged {
		t.Fatalf("global charged = %dns, want %dns", global.Load(), charged)
	}

	if err := m.WriteStream(0, make([]byte, 2*LineSize)); err != nil {
		t.Fatal(err)
	}
	if got := m.BFlushCharged(); got != 2 {
		t.Fatalf("BFlushCharged = %dns, want 2ns", got)
	}
	if m.BFlushCharged() != 0 {
		t.Fatal("second BFlush with nothing pending should charge 0")
	}
	// Flush with no configured latency charges nothing.
	m2 := New(Config{Size: PageSize, Obs: obs.New()})
	if c, err := m2.FlushCharged(0, int(LineSize)); err != nil || c != 0 {
		t.Fatalf("uncosted FlushCharged = %dns, %v; want 0", c, err)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	m := New(Config{Size: PageSize})
	buf := make([]byte, 16)
	cases := []struct {
		name string
		addr uint64
	}{
		{"past end", m.Size()},
		{"straddles end", m.Size() - 8},
		{"huge addr", 1 << 60},
	}
	for _, tc := range cases {
		if err := m.Read(tc.addr, buf); err == nil {
			t.Errorf("Read %s: want error", tc.name)
		}
		if err := m.Write(tc.addr, buf); err == nil {
			t.Errorf("Write %s: want error", tc.name)
		}
		if err := m.Flush(tc.addr, len(buf)); err == nil {
			t.Errorf("Flush %s: want error", tc.name)
		}
	}
}

func TestSizeRoundsUpToPage(t *testing.T) {
	m := New(Config{Size: 1})
	if m.Size() != PageSize {
		t.Fatalf("size = %d, want %d", m.Size(), PageSize)
	}
	if New(Config{}).Size() != PageSize {
		t.Fatal("zero size should round up to one page")
	}
}

func TestCrashLosesUnflushedWrites(t *testing.T) {
	m := newTracked(t, 2*PageSize)
	m.PersistAll()
	if err := m.Write(0, []byte("unflushed")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlush(m, 512, []byte("flushed")); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	buf := make([]byte, 9)
	if err := m.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 9)) {
		t.Errorf("unflushed write survived crash: %q", buf)
	}
	buf = buf[:7]
	if err := m.Read(512, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "flushed" {
		t.Errorf("flushed write lost: %q", buf)
	}
}

func TestCrashTearsPartiallyFlushedWrite(t *testing.T) {
	m := newTracked(t, 2*PageSize)
	m.PersistAll()
	// A write spanning two lines, only the first flushed: after a crash
	// the first line persists and the second reverts.
	data := bytes.Repeat([]byte{0xAB}, 2*LineSize)
	if err := m.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(0, LineSize); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	got := make([]byte, 2*LineSize)
	if err := m.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:LineSize], data[:LineSize]) {
		t.Error("flushed first line did not persist")
	}
	if !bytes.Equal(got[LineSize:], make([]byte, LineSize)) {
		t.Error("unflushed second line persisted — write not torn as modeled")
	}
}

func TestStreamWritesPersistOnlyAfterBFlush(t *testing.T) {
	m := newTracked(t, 2*PageSize)
	m.PersistAll()
	if err := m.WriteStream(0, []byte("streamed")); err != nil {
		t.Fatal(err)
	}
	snapshot := New(Config{Size: 2 * PageSize, TrackPersistence: true})
	_ = snapshot // separate arena not needed; crash the same one
	m.Crash()
	buf := make([]byte, 8)
	if err := m.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Fatalf("streaming write persisted without BFlush: %q", buf)
	}
	if err := m.WriteStream(0, []byte("streamed")); err != nil {
		t.Fatal(err)
	}
	m.BFlush()
	m.Crash()
	if err := m.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "streamed" {
		t.Fatalf("streaming write lost after BFlush: %q", buf)
	}
}

func TestAtomic64NeverTorn(t *testing.T) {
	m := newTracked(t, PageSize)
	if err := Write64Flush(m, 64, 0x1111111111111111); err != nil {
		t.Fatal(err)
	}
	if err := m.Atomic64(64, 0x2222222222222222); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	v, err := Read64(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1111111111111111 && v != 0x2222222222222222 {
		t.Fatalf("torn atomic write: %#x", v)
	}
	if v != 0x1111111111111111 {
		t.Fatalf("unflushed atomic persisted: %#x", v)
	}
}

func TestAtomic64RejectsUnaligned(t *testing.T) {
	m := New(Config{Size: PageSize})
	if err := m.Atomic64(3, 1); err == nil {
		t.Fatal("want alignment error")
	}
}

func TestEvictRandomPersistsOnlyDirtyLines(t *testing.T) {
	m := newTracked(t, PageSize)
	m.PersistAll()
	if err := m.Write(0, bytes.Repeat([]byte{1}, LineSize)); err != nil {
		t.Fatal(err)
	}
	m.EvictRandom(rand.New(rand.NewSource(1)), 1.0)
	if m.dirtyLines() != 0 {
		t.Fatalf("dirty lines after full eviction: %d", m.dirtyLines())
	}
	m.Crash()
	buf := make([]byte, LineSize)
	if err := m.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatal("evicted line did not persist")
	}
}

func TestDirtyLineAccounting(t *testing.T) {
	m := newTracked(t, 4*PageSize)
	m.PersistAll()
	if n := m.dirtyLines(); n != 0 {
		t.Fatalf("clean arena has %d dirty lines", n)
	}
	if err := m.Write(0, make([]byte, 3*LineSize)); err != nil {
		t.Fatal(err)
	}
	if n := m.dirtyLines(); n != 3 {
		t.Fatalf("dirty = %d, want 3", n)
	}
	if err := m.Flush(0, LineSize); err != nil {
		t.Fatal(err)
	}
	if n := m.dirtyLines(); n != 2 {
		t.Fatalf("dirty after partial flush = %d, want 2", n)
	}
}

func TestScalarHelpersRoundTrip(t *testing.T) {
	m := New(Config{Size: PageSize})
	if err := Write64(m, 8, 0xdeadbeefcafebabe); err != nil {
		t.Fatal(err)
	}
	if v, _ := Read64(m, 8); v != 0xdeadbeefcafebabe {
		t.Fatalf("u64 = %#x", v)
	}
	if err := Write32(m, 16, 0x12345678); err != nil {
		t.Fatal(err)
	}
	if v, _ := Read32(m, 16); v != 0x12345678 {
		t.Fatalf("u32 = %#x", v)
	}
	if err := Write16(m, 20, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if v, _ := Read16(m, 20); v != 0xbeef {
		t.Fatalf("u16 = %#x", v)
	}
}

func TestZero(t *testing.T) {
	m := New(Config{Size: 4 * PageSize})
	if err := m.Write(0, bytes.Repeat([]byte{0xff}, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := Zero(m, 100, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*PageSize)
	if err := m.Read(100, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
	}
	one := make([]byte, 1)
	if err := m.Read(99, one); err != nil {
		t.Fatal(err)
	}
	if one[0] != 0xff {
		t.Fatal("Zero touched byte before range")
	}
}

// Property: scalar round-trips hold for arbitrary values and aligned
// addresses.
func TestQuickScalarRoundTrip(t *testing.T) {
	m := New(Config{Size: 16 * PageSize})
	f := func(v uint64, slot uint16) bool {
		addr := uint64(slot) * 8 % (m.Size() - 8)
		addr -= addr % 8
		if err := Write64(m, addr, v); err != nil {
			return false
		}
		got, err := Read64(m, addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after arbitrary interleavings of writes, flushes, and random
// evictions followed by a crash, every line is bytewise either its
// pre-crash-flushed content or its previous persistent content — never a
// blend within one line.
func TestQuickCrashLineAtomicity(t *testing.T) {
	const lines = 16
	m := newTracked(t, PageSize)
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		m.PersistAll()
		// Each line is filled with a single repeated byte per write, so
		// post-crash content is valid iff every byte in the line matches
		// (no tearing) and the value is one that was actually written
		// (eviction may persist any intermediate write).
		everWritten := make([]map[byte]bool, lines)
		for i := range everWritten {
			everWritten[i] = map[byte]bool{0: true}
		}
		if err := Zero(m, 0, lines*LineSize); err != nil {
			return false
		}
		m.PersistAll()
		for i, op := range ops {
			line := uint64(op) % lines
			switch op % 3 {
			case 0:
				tag := byte(i%254 + 1)
				if err := m.Write(line*LineSize, bytes.Repeat([]byte{tag}, LineSize)); err != nil {
					return false
				}
				everWritten[line][tag] = true
			case 1:
				if err := m.Flush(line*LineSize, LineSize); err != nil {
					return false
				}
			case 2:
				m.EvictRandom(rng, 0.3)
			}
		}
		m.Crash()
		buf := make([]byte, LineSize)
		for l := uint64(0); l < lines; l++ {
			if err := m.Read(l*LineSize, buf); err != nil {
				return false
			}
			first := buf[0]
			for _, b := range buf {
				if b != first {
					return false // torn line
				}
			}
			if !everWritten[l][first] {
				return false // value never written to this line
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteFlush4K(b *testing.B) {
	m := New(Config{Size: 16 * PageSize})
	buf := make([]byte, PageSize)
	b.SetBytes(PageSize)
	for i := 0; i < b.N; i++ {
		_ = WriteFlush(m, 0, buf)
	}
}

func BenchmarkRead4K(b *testing.B) {
	m := New(Config{Size: 16 * PageSize})
	buf := make([]byte, PageSize)
	b.SetBytes(PageSize)
	for i := 0; i < b.N; i++ {
		_ = m.Read(0, buf)
	}
}
