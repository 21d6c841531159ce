package tfs

import (
	"errors"
	"testing"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// resizedPool stages like preallocPool but pre-allocates resize(size) bytes
// for each request: a client that under-reserves, then writes as if it had
// not.
type resizedPool struct {
	preallocPool
	resize func(size uint64) uint64
}

func (p resizedPool) Alloc(size uint64) (uint64, error) {
	return p.preallocPool.Alloc(p.resize(size))
}

// TestStagedExtentsHeldToPrealloc: every size a staged object declares —
// its head, a table's bucket count, a single extent's capacity, a radix
// file's extent log — is what Destroy later frees and fsck marks, so plan
// must hold each to the block that was pre-allocated: a larger size would
// free or overrun a neighbour, a smaller one leak the rest. A lie is
// refused with ErrNotPrealloc before anything is journaled: nothing
// applies and fsck finds the volume clean. The same holds for a single
// extent below a page, which would share its page with other objects.
func TestStagedExtentsHeldToPrealloc(t *testing.T) {
	const client = 1
	// Client-written fields of sobj's head layouts the cases forge.
	const (
		offColTable    = 0x20 // collection: table word
		offMFExtentLog = 0x30 // mFile: log2 of the data-extent size
		offMFSingleCap = 0x40 // mFile: single extent's capacity
	)
	key := []byte("staged")
	// created ships a staged object's creation and link into the root.
	created := func(oid sobj.OID, root sobj.OID) []fsproto.Op {
		return []fsproto.Op{{Code: fsproto.OpCreateObject, Target: oid},
			{Code: fsproto.OpInsert, Target: root, Key: key, Child: oid, CoverLock: root.Lock()}}
	}
	for _, tc := range []struct {
		name  string
		stage func(t *testing.T, m *orderMachine) sobj.OID
		ops   func(t *testing.T, m *orderMachine) []fsproto.Op // default: created(stage)
		want  error
	}{
		{"honest file", func(t *testing.T, m *orderMachine) sobj.OID {
			return m.stagedFile(t, client)
		}, nil, nil},
		{"head in a too-small pre-allocation", func(t *testing.T, m *orderMachine) sobj.OID {
			half := resizedPool{preallocPool{m.s, client}, func(n uint64) uint64 { return n / 2 }}
			f, err := sobj.CreateMFile(m.mem, half, 0o644, sobj.DefaultExtentLog)
			if err != nil {
				t.Fatal(err)
			}
			return f.OID()
		}, nil, ErrNotPrealloc},
		{"head in a too-large pre-allocation", func(t *testing.T, m *orderMachine) sobj.OID {
			double := resizedPool{preallocPool{m.s, client}, func(n uint64) uint64 { return n * 2 }}
			f, err := sobj.CreateMFile(m.mem, double, 0o644, sobj.DefaultExtentLog)
			if err != nil {
				t.Fatal(err)
			}
			return f.OID()
		}, nil, ErrNotPrealloc},
		{"table larger than its extent", func(t *testing.T, m *orderMachine) sobj.OID {
			c, err := sobj.CreateCollection(m.mem, preallocPool{m.s, client}, 0o755)
			if err != nil {
				t.Fatal(err)
			}
			exts, err := c.Extents(nil)
			if err != nil {
				t.Fatal(err)
			}
			// Claim 16 buckets (8 KiB) in the 8-bucket (4 KiB) extent.
			if err := scm.Write64Flush(m.mem, c.OID().Addr()+offColTable, exts[1].Addr|4); err != nil {
				t.Fatal(err)
			}
			return c.OID()
		}, nil, ErrNotPrealloc},
		{"single extent larger than its extent", func(t *testing.T, m *orderMachine) sobj.OID {
			f, err := sobj.CreateMFileSingle(m.mem, preallocPool{m.s, client}, 0o644, scm.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := scm.Write64Flush(m.mem, f.OID().Addr()+offMFSingleCap, 1<<20); err != nil {
				t.Fatal(err)
			}
			return f.OID()
		}, nil, ErrNotPrealloc},
		{"single extent below a page", func(t *testing.T, m *orderMachine) sobj.OID {
			// Pre-allocated and declared alike, but sharing its page.
			line := resizedPool{preallocPool{m.s, client}, func(n uint64) uint64 {
				if n == scm.PageSize {
					return 64
				}
				return n
			}}
			f, err := sobj.CreateMFileSingle(m.mem, line, 0o644, scm.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := scm.Write64Flush(m.mem, f.OID().Addr()+offMFSingleCap, 64); err != nil {
				t.Fatal(err)
			}
			return f.OID()
		}, nil, sobj.ErrCorrupt},
		{"replacement single extent below a page", nil, func(t *testing.T, m *orderMachine) []fsproto.Op {
			pool := preallocPool{m.s, client}
			f, err := sobj.CreateMFileSingle(m.mem, pool, 0o644, scm.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			gb := batch(client, created(f.OID(), m.s.Root())...)
			if m.s.runGroup([]*groupBatch{gb}); gb.err != nil {
				t.Fatal(gb.err)
			}
			m.acquire(t, client, f.OID().Lock(), lockX)
			ext, err := pool.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			return []fsproto.Op{{Code: fsproto.OpReplaceExt, Target: f.OID(), Val: ext, Val2: 64, CoverLock: f.OID().Lock()}}
		}, ErrValidation},
		{"extent log beyond its data extents", func(t *testing.T, m *orderMachine) sobj.OID {
			pool := preallocPool{m.s, client}
			f, err := sobj.CreateMFile(m.mem, pool, 0o644, sobj.DefaultExtentLog)
			if err != nil {
				t.Fatal(err)
			}
			data, err := pool.Alloc(scm.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.AttachExtent(pool, 0, data); err != nil {
				t.Fatal(err)
			}
			// 64 KiB data extents over the 4 KiB one attached.
			if err := scm.Write32(m.mem, f.OID().Addr()+offMFExtentLog, 16); err != nil {
				t.Fatal(err)
			}
			if err := m.mem.Flush(f.OID().Addr()+offMFExtentLog, 4); err != nil {
				t.Fatal(err)
			}
			return f.OID()
		}, nil, ErrNotPrealloc},
		{"radix data extents below a page", func(t *testing.T, m *orderMachine) sobj.OID {
			pool := preallocPool{m.s, client}
			f, err := sobj.CreateMFile(m.mem, pool, 0o644, sobj.DefaultExtentLog)
			if err != nil {
				t.Fatal(err)
			}
			data, err := pool.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.AttachExtent(pool, 0, data); err != nil {
				t.Fatal(err)
			}
			// 64-byte data extents, each pre-allocated as declared.
			if err := scm.Write32(m.mem, f.OID().Addr()+offMFExtentLog, 6); err != nil {
				t.Fatal(err)
			}
			if err := m.mem.Flush(f.OID().Addr()+offMFExtentLog, 4); err != nil {
				t.Fatal(err)
			}
			return f.OID()
		}, nil, sobj.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newOrderMachine(t, nil)
			root := m.s.Root()
			m.acquire(t, client, root.Lock(), lockX)
			var ops []fsproto.Op
			if tc.ops != nil {
				ops = tc.ops(t, m)
			} else {
				ops = created(tc.stage(t, m), root)
			}
			free := m.s.FreeBytes()
			gb := batch(client, ops...)
			m.s.runGroup([]*groupBatch{gb})
			if tc.want == nil {
				if gb.err != nil {
					t.Fatalf("honest batch refused: %v", gb.err)
				}
				return
			}
			if !errors.Is(gb.err, tc.want) {
				t.Fatalf("batch error %v, want %v", gb.err, tc.want)
			}
			if tc.ops == nil {
				var col sobj.Collection
				if err := col.Open(m.mem, root); err != nil {
					t.Fatal(err)
				}
				if _, err := col.Lookup(key); !errors.Is(err, sobj.ErrNotFound) {
					t.Fatalf("refused batch linked its object: %v", err)
				}
			}
			if got := m.s.FreeBytes(); got != free {
				t.Fatalf("refused batch moved free space %d -> %d", free, got)
			}
			rep, err := m.set.Fsck(false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.LeakedBlocks != 0 || rep.LostBlocks != 0 {
				t.Fatalf("volume not clean after refusal: %v", rep)
			}
		})
	}
}
