package sobj

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/scm"
)

// attachRange attaches fresh extents covering [off, off+n) the way the TFS
// does for a client append.
func attachRange(t *testing.T, e *env, m *MFile, off, n uint64) {
	t.Helper()
	bs, err := m.BlockSize()
	if err != nil {
		t.Fatal(err)
	}
	for blk := off / bs; blk <= (off+n-1)/bs; blk++ {
		if ext, _ := m.lookupBlock(blk); ext != 0 {
			continue
		}
		ext, err := e.bd.Alloc(bs)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh extents carry stale bytes; zero before exposing, as the
		// FS layers do for partially covered blocks.
		if err := scm.Zero(e.mem, ext, int(bs)); err != nil {
			t.Fatal(err)
		}
		if err := e.mem.Flush(ext, int(bs)); err != nil {
			t.Fatal(err)
		}
		if err := m.AttachExtent(e.bd, blk, ext); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMFileWriteReadRoundTrip(t *testing.T) {
	e := newEnv(t, 16<<20)
	m, err := CreateMFile(e.mem, e.bd, 0644, DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB
	attachRange(t, e, m, 0, uint64(len(data)))
	if _, err := m.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSize(uint64(len(data))); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := m.ReadAt(got, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, mismatch=%v", n, !bytes.Equal(got, data))
	}
}

func TestMFileUnalignedWritesAcrossBlocks(t *testing.T) {
	e := newEnv(t, 16<<20)
	m, _ := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
	attachRange(t, e, m, 0, 3*4096)
	_ = m.SetSize(3 * 4096)
	payload := []byte("spans-a-block-boundary")
	off := uint64(4096 - 10)
	if _, err := m.WriteAt(payload, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := m.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestMFileHolesReadZero(t *testing.T) {
	e := newEnv(t, 16<<20)
	m, _ := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
	// Attach only block 2; size covers blocks 0..2.
	ext, _ := e.bd.Alloc(4096)
	if err := m.AttachExtent(e.bd, 2, ext); err != nil {
		t.Fatal(err)
	}
	_ = m.SetSize(3 * 4096)
	if _, err := m.WriteAt([]byte("tail"), 2*4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := m.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %d", i, b)
		}
	}
}

func TestMFileWriteToHoleFails(t *testing.T) {
	e := newEnv(t, 16<<20)
	m, _ := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
	_ = m.SetSize(4096)
	if _, err := m.WriteAt([]byte("x"), 0); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("write to hole: %v", err)
	}
}

func TestMFileReadPastEOF(t *testing.T) {
	e := newEnv(t, 16<<20)
	m, _ := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
	attachRange(t, e, m, 0, 100)
	_ = m.SetSize(100)
	buf := make([]byte, 200)
	n, err := m.ReadAt(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("read %d, want 100 (clamped at size)", n)
	}
	if n, _ := m.ReadAt(buf, 100); n != 0 {
		t.Fatalf("read at EOF = %d", n)
	}
}

func TestMFileTreeGrowsDeep(t *testing.T) {
	e := newEnv(t, 64<<20)
	m, _ := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
	// Block 600 forces depth 2 (one level covers 512 blocks).
	ext, _ := e.bd.Alloc(4096)
	if err := m.AttachExtent(e.bd, 600, ext); err != nil {
		t.Fatal(err)
	}
	_ = m.SetSize(601 * 4096)
	if _, err := m.WriteAt([]byte("deep"), 600*4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := m.ReadAt(got, 600*4096); err != nil {
		t.Fatal(err)
	}
	if string(got) != "deep" {
		t.Fatalf("got %q", got)
	}
	// Block 0 still reachable after growth.
	ext0, _ := e.bd.Alloc(4096)
	if err := m.AttachExtent(e.bd, 0, ext0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt([]byte("head"), 0); err != nil {
		t.Fatal(err)
	}
}

// truncateZeroTail truncates the way a client and the TFS do together:
// zero the tail of the partial kept block (the client's staging step), then
// prune (the trusted apply).
func truncateZeroTail(t *testing.T, e *env, m *MFile, n uint64) {
	t.Helper()
	bs, err := m.BlockSize()
	if err != nil {
		t.Fatal(err)
	}
	if tail := n % bs; tail != 0 {
		ext, err := m.lookupBlock(n / bs)
		if err != nil {
			t.Fatal(err)
		}
		if ext != 0 {
			if err := scm.Zero(e.mem, ext+tail, int(bs-tail)); err != nil {
				t.Fatal(err)
			}
			if err := e.mem.Flush(ext+tail, int(bs-tail)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.TruncatePruneOnly(e.bd, n); err != nil {
		t.Fatal(err)
	}
}

func TestMFileAttachExistingFails(t *testing.T) {
	e := newEnv(t, 16<<20)
	m, _ := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
	ext, _ := e.bd.Alloc(4096)
	if err := m.AttachExtent(e.bd, 0, ext); err != nil {
		t.Fatal(err)
	}
	ext2, _ := e.bd.Alloc(4096)
	if err := m.AttachExtent(e.bd, 0, ext2); !errors.Is(err, ErrExists) {
		t.Fatalf("double attach: %v", err)
	}
}

func TestMFileTruncateFreesExtents(t *testing.T) {
	e := newEnv(t, 32<<20)
	m, _ := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
	attachRange(t, e, m, 0, 100*4096)
	_ = m.SetSize(100 * 4096)
	freeBefore := e.bd.FreeBytes()
	if err := m.TruncatePruneOnly(e.bd, 10*4096); err != nil {
		t.Fatal(err)
	}
	if size, _ := m.Size(); size != 10*4096 {
		t.Fatalf("size = %d", size)
	}
	if e.bd.FreeBytes() <= freeBefore {
		t.Fatal("truncate freed nothing")
	}
	// The first 10 blocks still readable and writable.
	if _, err := m.WriteAt([]byte("ok"), 5*4096); err != nil {
		t.Fatal(err)
	}
	// Beyond the cut: hole again.
	if _, err := m.WriteAt([]byte("x"), 50*4096); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("write past truncate: %v", err)
	}
}

func TestMFileDestroyReturnsAllStorage(t *testing.T) {
	e := newEnv(t, 32<<20)
	before := e.bd.FreeBytes()
	m, _ := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
	attachRange(t, e, m, 0, 700*4096) // forces depth 2
	_ = m.SetSize(700 * 4096)
	if err := m.Destroy(e.bd); err != nil {
		t.Fatal(err)
	}
	if e.bd.FreeBytes() != before {
		t.Fatalf("leak: %d != %d", e.bd.FreeBytes(), before)
	}
}

func TestMFileSingleExtentMode(t *testing.T) {
	e := newEnv(t, 16<<20)
	m, err := CreateMFileSingle(e.mem, e.bd, 0600, 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	if single, _ := m.IsSingle(); !single {
		t.Fatal("not single mode")
	}
	data := bytes.Repeat([]byte{0xCD}, 10000)
	if _, err := m.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	_ = m.SetSize(uint64(len(data)))
	got := make([]byte, len(data))
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("single-extent round trip failed")
	}
	// Writes beyond capacity refused.
	if _, err := m.WriteAt([]byte("x"), 16*1024); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("write past cap: %v", err)
	}
	// Replace with a bigger extent, preserving data.
	newExt, _ := e.bd.Alloc(64 * 1024)
	old := make([]byte, len(data))
	_, _ = m.ReadAt(old, 0)
	if err := e.mem.Write(newExt, old); err != nil {
		t.Fatal(err)
	}
	if err := m.ReplaceSingleExtent(e.bd, newExt, 64*1024); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt([]byte("grown"), 32*1024); err != nil {
		t.Fatalf("write into grown extent: %v", err)
	}
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across extent replacement")
	}
}

func TestMFileSingleDestroy(t *testing.T) {
	e := newEnv(t, 16<<20)
	before := e.bd.FreeBytes()
	m, _ := CreateMFileSingle(e.mem, e.bd, 0, 8*1024)
	if err := m.Destroy(e.bd); err != nil {
		t.Fatal(err)
	}
	if e.bd.FreeBytes() != before {
		t.Fatal("single-mode destroy leaked")
	}
}

// Property: an mFile behaves like a sparse []byte under random writes,
// reads, and truncates, and the content survives crash+reopen.
func TestQuickMFileMatchesByteModel(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := newEnv(t, 64<<20)
			m, err := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			const maxLen = 256 * 1024
			model := make([]byte, 0, maxLen)
			for step := 0; step < 150; step++ {
				switch rng.Intn(4) {
				case 0, 1: // write (append or overwrite)
					off := uint64(rng.Intn(maxLen / 2))
					n := rng.Intn(20000) + 1
					if int(off)+n > maxLen {
						n = maxLen - int(off)
					}
					data := make([]byte, n)
					rng.Read(data)
					attachRange(t, e, m, off, uint64(n))
					if _, err := m.WriteAt(data, off); err != nil {
						t.Fatalf("step %d write: %v", step, err)
					}
					end := int(off) + n
					for len(model) < end {
						model = append(model, 0)
					}
					copy(model[off:end], data)
					if size, _ := m.Size(); uint64(len(model)) > size {
						_ = m.SetSize(uint64(len(model)))
					}
				case 2: // read & compare
					if len(model) == 0 {
						continue
					}
					off := rng.Intn(len(model))
					n := rng.Intn(len(model)-off) + 1
					got := make([]byte, n)
					rn, err := m.ReadAt(got, uint64(off))
					if err != nil {
						t.Fatalf("step %d read: %v", step, err)
					}
					if !bytes.Equal(got[:rn], model[off:off+rn]) {
						t.Fatalf("step %d: content mismatch at %d+%d", step, off, n)
					}
				case 3: // truncate shorter
					if len(model) == 0 {
						continue
					}
					n := rng.Intn(len(model))
					truncateZeroTail(t, e, m, uint64(n))
					model = model[:n]
				}
			}
			// Crash and verify contents.
			e.mem.Crash()
			m2, err := OpenMFile(e.mem, m.OID())
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(model))
			n, err := m2.ReadAt(got, 0)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(model) || !bytes.Equal(got, model) {
				t.Fatalf("after crash: read %d/%d, equal=%v", n, len(model), bytes.Equal(got[:n], model[:n]))
			}
		})
	}
}

func BenchmarkMFileWrite4K(b *testing.B) {
	e := benchEnv(b)
	m, _ := CreateMFile(e.mem, e.bd, 0, DefaultExtentLog)
	for blk := uint64(0); blk < 16; blk++ {
		ext, _ := e.bd.Alloc(4096)
		_ = m.AttachExtent(e.bd, blk, ext)
	}
	_ = m.SetSize(16 * 4096)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.WriteAt(buf, uint64(i%16)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectionLookup(b *testing.B) {
	e := benchEnv(b)
	c, _ := CreateCollection(e.mem, e.bd, 0)
	for i := 0; i < 1000; i++ {
		_ = c.Insert(e.bd, []byte(fmt.Sprintf("key-%04d", i)), 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Lookup([]byte("key-0500")); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEnv(b *testing.B) *env {
	b.Helper()
	mem := scm.New(scm.Config{Size: 65 << 20})
	b.Cleanup(func() { mem.Close() })
	bd, err := allocFormat(mem)
	if err != nil {
		b.Fatal(err)
	}
	return &env{mem: mem, bd: bd}
}

func allocFormat(mem *scm.Memory) (*alloc.Buddy, error) {
	return alloc.Format(mem, scm.PageSize, 1<<20, mem.Size()-(1<<20))
}
