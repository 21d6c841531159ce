package sobj

import (
	"errors"
	"testing"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/scm"
)

// FuzzCollectionHead: a staged collection's head page is bytes a client
// wrote and the TFS parses (planCreate lists its extents, batchDemand reads
// its geometry, apply looks keys up in it). Whatever table word, counts and
// bucket-0 used counter the page holds, Open, Extents, Geometry, Lookup and
// Iterate either succeed or fail with ErrCorrupt — no panic, no wild read,
// no endless walk — and Extents never passes a head-page table of other
// than 8 buckets.
func FuzzCollectionHead(f *testing.F) {
	mem := scm.New(scm.Config{Size: 2 << 20})
	f.Cleanup(func() { mem.Close() })
	bd, err := alloc.Format(mem, scm.PageSize, 1<<20, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	c, err := CreateCollection(mem, bd, 0o755)
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range []string{"a", "bb", "ccc"} {
		if err := c.Insert(bd, []byte(k), c.OID()); err != nil {
			f.Fatal(err)
		}
	}
	other, err := CreateCollection(mem, bd, 0o755)
	if err != nil {
		f.Fatal(err)
	}
	head := c.OID().Addr()
	honest := make([]byte, colHeadAlloc)
	if err := mem.Read(head, honest); err != nil {
		f.Fatal(err)
	}
	used, err := scm.Read16(mem, head+colHeadSize)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tableWord(head, 8), uint32(3), uint32(0), used)
	f.Add(tableWord(head, 16), uint32(3), uint32(0), used)
	f.Add(tableWord(other.OID().Addr(), 8), uint32(0), uint32(0), uint16(0))
	f.Add(tableWord(1<<20, 1<<maxTableLog), uint32(1), uint32(1), uint16(0))
	f.Add(head|2, ^uint32(0), ^uint32(0), ^uint16(0))
	f.Add(uint64(0), uint32(0), uint32(0), uint16(438))
	f.Fuzz(func(t *testing.T, word uint64, count, tombs uint32, used uint16) {
		if err := mem.Write(head, honest); err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{
			scm.Write64(mem, head+offColTable, word),
			scm.Write32(mem, head+offColCount, count),
			scm.Write32(mem, head+offColTombstones, tombs),
			scm.Write16(mem, head+colHeadSize, used),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		ok := func(op string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s with table word %#x: %v, want nil or ErrCorrupt", op, word, err)
			}
		}
		var col Collection
		if err := col.Open(mem, c.OID()); err != nil {
			t.Fatal(err)
		}
		exts, err := col.Extents(nil)
		ok("Extents", err)
		if err == nil {
			table, nb, _ := col.table()
			if table == head && nb != initialBuckets {
				t.Fatalf("Extents accepted a %d-bucket table in the head page", nb)
			}
			for i, e := range exts {
				if (i == 0) != (e.Addr == head) {
					t.Fatalf("extent %d of %+v at the head", i, exts)
				}
			}
		}
		_, err = col.Geometry()
		ok("Geometry", err)
		for _, k := range []string{"a", "bb", "absent"} {
			if _, err := col.Lookup([]byte(k)); !errors.Is(err, ErrNotFound) {
				ok("Lookup", err)
			}
		}
		ok("Iterate", col.Iterate(func([]byte, OID) error { return nil }))
	})
}
