package tfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// spaceMachine is a fresh two-shard machine with one PXFS and one FlatFS
// client session.
func spaceMachine(t *testing.T) (*core.System, *pxfs.FS, *flatfs.FS) {
	t.Helper()
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, Shards: 2, AcquireTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	sess, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sys, pxfs.New(sess, pxfs.Options{NameCache: true}), flatfs.New(sess, flatfs.Options{})
}

// spaceMix runs creates (empty and with data), mkdirs, renames within and
// across directories, unlinks, an rmdir and FlatFS puts, some outgrowing
// their extent, then ships everything. One directory grows past 8 buckets,
// so its table moves out of its head page.
func spaceMix(t *testing.T, px *pxfs.FS, kv *flatfs.FS) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	data := bytes.Repeat([]byte("aerie"), 2000) // 10 000 bytes: three data pages
	for d := 0; d < 4; d++ {
		must(px.Mkdir(fmt.Sprintf("/d%d", d), 0o755))
		for i := 0; i < 12; i++ {
			f, err := px.Create(fmt.Sprintf("/d%d/f%d", d, i), 0o644)
			must(err)
			if i%3 == 0 {
				_, err = f.Write(data[:1+i*500])
				must(err)
			}
			must(f.Close())
		}
	}
	for i := 0; i < 12; i += 2 {
		must(px.Rename(fmt.Sprintf("/d0/f%d", i), fmt.Sprintf("/d1/g%d", i)))
		must(px.Rename(fmt.Sprintf("/d2/f%d", i), fmt.Sprintf("/d2/h%d", i)))
	}
	for i := 0; i < 12; i++ {
		must(px.Unlink(fmt.Sprintf("/d3/f%d", i)))
	}
	must(px.Rmdir("/d3"))
	must(px.Mkdir("/wide", 0o755))
	for i := 0; i <= 64; i++ {
		f, err := px.Create(fmt.Sprintf("/wide/f%d", i), 0o644)
		must(err)
		must(f.Close())
	}
	for i := 0; i < 40; i++ {
		must(kv.Put(fmt.Sprintf("k%d", i), data[:10+i*200]))
	}
	for i := 0; i < 40; i += 4 {
		must(kv.Put(fmt.Sprintf("k%d", i), data))
		must(kv.Erase(fmt.Sprintf("k%d", i+1)))
	}
	// Values the size of an mFile head: were a single extent not a page,
	// these would share the heads' pages.
	for i := 0; i < 8; i++ {
		must(kv.Put(fmt.Sprintf("small%d", i), data[:100]))
	}
	must(px.Sync())
}

func ownersSum(o fsproto.SpaceOwners) uint64 {
	return o.Heads + o.Tables + o.FileData + o.Tracking + o.Prealloc + o.Unlinked
}

// TestStatfsOwnersSumToUsed: Statfs's per-owner rows account for every
// allocated byte — they sum to TotalBytes − FreeBytes exactly — on a fresh
// two-shard volume and after a create/rename/unlink/mkdir/rmdir mix that
// leaves a file open but unlinked. A fresh volume's collections keep their
// tables in their head pages, so its Tables row is empty until the mix grows
// a directory.
func TestStatfsOwnersSumToUsed(t *testing.T) {
	sys, px, kv := spaceMachine(t)
	check := func(when string) fsproto.StatfsReply {
		t.Helper()
		st, err := sys.Set.Statfs()
		if err != nil {
			t.Fatal(err)
		}
		if st.ReservedBytes != 0 {
			t.Fatalf("%s: %d bytes reserved on a quiescent volume", when, st.ReservedBytes)
		}
		if used, sum := st.TotalBytes-st.FreeBytes, ownersSum(st.Owners); sum != used {
			t.Fatalf("%s: owner rows sum to %d, used %d: %+v", when, sum, used, st.Owners)
		}
		return st
	}
	fresh := check("fresh")
	if fresh.Owners.Heads == 0 || fresh.Owners.Tracking == 0 {
		t.Fatalf("fresh volume: roots and tracking collections unaccounted: %+v", fresh.Owners)
	}
	if fresh.Owners.Tables != 0 {
		t.Fatalf("fresh volume: %d bytes of tables outside their head pages: %+v", fresh.Owners.Tables, fresh.Owners)
	}

	open, err := px.Create("/open", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	if _, err := open.Write(make([]byte, 3*scm.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := px.Sync(); err != nil {
		t.Fatal(err)
	}
	spaceMix(t, px, kv)
	if err := px.Unlink("/open"); err != nil {
		t.Fatal(err)
	}
	if err := px.Sync(); err != nil {
		t.Fatal(err)
	}
	st := check("after the mix")
	o := st.Owners
	for _, row := range []struct {
		name string
		v    uint64
	}{{"heads", o.Heads}, {"tables", o.Tables}, {"file data", o.FileData},
		{"tracking", o.Tracking}, {"prealloc", o.Prealloc}, {"unlinked", o.Unlinked}} {
		if row.v == 0 {
			t.Errorf("after the mix the %s row is empty: %+v", row.name, o)
		}
	}
}

// TestPageRule pins the protection invariant of 64-byte allocation: a page
// shared by several objects holds nothing but mFile heads, so narrowing one
// object's pages (chmod with hardware protection) can never narrow another
// object's bytes. Narrowing a directory whose table is in its head page
// takes every entry with it: a probe client can read none of them.
func TestPageRule(t *testing.T) {
	sys, px, kv := spaceMachine(t)
	spaceMix(t, px, kv)

	// Every object reachable from a shard root, with its extents.
	type piece struct {
		oid  sobj.OID
		head bool // the extent is an mFile head
	}
	pages := map[uint64][]piece{}
	exts := map[sobj.OID][]sobj.Extent{}
	var walk func(oid sobj.OID)
	walk = func(oid sobj.OID) {
		var es []sobj.Extent
		var children []sobj.OID
		if oid.Type() == sobj.TypeCollection {
			c, err := sobj.OpenCollection(sys.Mem, oid)
			if err != nil {
				t.Fatal(err)
			}
			if es, err = c.Extents(nil); err != nil {
				t.Fatal(err)
			}
			if err := c.Iterate(func(_ []byte, v sobj.OID) error {
				children = append(children, v)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		} else {
			m, err := sobj.OpenMFile(sys.Mem, oid)
			if err != nil {
				t.Fatal(err)
			}
			if es, err = m.Extents(nil); err != nil {
				t.Fatal(err)
			}
		}
		exts[oid] = es
		for i, e := range es {
			for p := e.Addr / scm.PageSize; p <= (e.Addr+e.Size-1)/scm.PageSize; p++ {
				pages[p] = append(pages[p], piece{oid, i == 0 && oid.Type() == sobj.TypeMFile})
			}
		}
		for _, c := range children {
			walk(c)
		}
	}
	for i := 0; i < sys.Set.Shards(); i++ {
		walk(sys.Set.Shard(i).Root())
	}
	shared := 0
	for p, ps := range pages {
		if len(ps) < 2 {
			continue
		}
		shared++
		for _, pc := range ps {
			if !pc.head {
				t.Fatalf("page %#x holds %d objects, among them %v, which is not an mFile head", p*scm.PageSize, len(ps), pc.oid)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no page holds two mFile heads: the mix exercised nothing")
	}

	// Narrow one directory to no rights, then read every page of every other
	// object through a fresh client mapping (no stale soft-TLB entries).
	fi, err := px.Stat("/d1")
	if err != nil {
		t.Fatal(err)
	}
	dir := fi.OID
	if err := px.Chmod("/d1", 0, true); err != nil {
		t.Fatal(err)
	}
	probe, err := sys.NewSession(libfs.Config{UID: 1001})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	var b [1]byte
	if err := probe.Mem.Read(dir.Addr(), b[:]); !errors.Is(err, scmmgr.ErrProtection) {
		t.Fatalf("chmod narrowed nothing: reading the directory's head gave %v", err)
	}
	// The directory's table is home, so its entries went with the head.
	if len(exts[dir]) != 1 {
		t.Fatalf("/d1's table is not in its head page: extents %+v", exts[dir])
	}
	col, err := sobj.OpenCollection(sys.Mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	if err := col.Iterate(func(key []byte, _ sobj.OID) error {
		lock, err := col.BucketLock(key)
		if err != nil {
			return err
		}
		entries++
		if err := probe.Mem.Read(sobj.OID(lock).Addr(), b[:]); !errors.Is(err, scmmgr.ErrProtection) {
			return fmt.Errorf("entry %q readable after chmod: %v", key, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if entries == 0 {
		t.Fatal("/d1 has no entries: the probe read nothing")
	}
	for oid, es := range exts {
		if oid == dir {
			continue
		}
		for _, e := range es {
			for a := e.Addr &^ (scm.PageSize - 1); a < e.Addr+e.Size; a += scm.PageSize {
				if err := probe.Mem.Read(a, b[:]); err != nil {
					t.Fatalf("chmod of %v narrowed page %#x of %v: %v", dir, a, oid, err)
				}
			}
		}
	}
}

// TestDirectoryTableLifecycle drives a directory's table through every
// move — home at mkdir, out at the 65th entry, home again through a
// tombstone GC, home to home through a GC while home — and destroys it
// with an rmdir shipped in the same batch as its last unlinks. Two more
// directories, one out of home and one chaining overflow pages, are
// emptied and removed in a single batch each. After each step fsck finds
// the volume clean and Statfs's owner rows sum exactly to the used bytes.
func TestDirectoryTableLifecycle(t *testing.T) {
	sys, px, _ := spaceMachine(t)
	var dir sobj.OID
	check := func(step string, home bool) {
		t.Helper()
		if err := px.Sync(); err != nil {
			t.Fatal(err)
		}
		if dir != 0 {
			c, err := sobj.OpenCollection(sys.Mem, dir)
			if err != nil {
				t.Fatal(err)
			}
			exts, err := c.Extents(nil)
			if err != nil {
				t.Fatal(err)
			}
			if (len(exts) == 1) != home {
				t.Fatalf("%s: extents %+v, want home=%v", step, exts, home)
			}
		}
		rep, err := sys.Set.Fsck(false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LeakedBlocks != 0 || rep.LostBlocks != 0 {
			t.Fatalf("%s: volume not clean: %+v", step, rep)
		}
		st, err := sys.Set.Statfs()
		if err != nil {
			t.Fatal(err)
		}
		if used, sum := st.TotalBytes-st.FreeBytes, ownersSum(st.Owners); sum != used || st.ReservedBytes != 0 {
			t.Fatalf("%s: owner rows sum to %d, used %d, reserved %d: %+v", step, sum, used, st.ReservedBytes, st.Owners)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	name := func(i int) string { return fmt.Sprintf("/life/f%02d", i) }
	create := func(from, to int) {
		for i := from; i < to; i++ {
			f, err := px.Create(name(i), 0o644)
			must(err)
			must(f.Close())
		}
	}
	unlink := func(from, to int) {
		for i := from; i < to; i++ {
			must(px.Unlink(name(i)))
		}
	}
	must(px.Mkdir("/life", 0o755))
	fi, err := px.Stat("/life")
	must(err)
	dir = fi.OID
	check("mkdir", true)
	create(0, 64)
	check("64 entries", true)
	create(64, 65)
	check("65th entry", false)
	unlink(0, 22) // a GC at 43 live keeps 16 buckets
	check("GC out to out", false)
	unlink(22, 39) // a GC at 26 live shrinks to 8: home
	check("GC out to home", true)
	unlink(39, 56) // a GC at 9 live, while home
	check("GC home to home", true)
	// The last unlinks and the rmdir ship in one batch.
	unlink(56, 65)
	must(px.Rmdir("/life"))
	dir = 0
	check("rmdir", true)
	// Out of home again, then emptied and removed in one batch: the
	// unlinks' tombstone GCs move the table while that batch applies.
	must(px.Mkdir("/life", 0o755))
	fi, err = px.Stat("/life")
	must(err)
	dir = fi.OID
	create(0, 65)
	check("refilled", false)
	unlink(0, 65)
	must(px.Rmdir("/life"))
	dir = 0
	check("emptied and removed in one batch", true)
	// Names too long for two to share a bucket: the home table chains
	// overflow pages, and the unlinks' GCs rebuild those chains while the
	// batch applies. The rmdir must free the chains the batch built, not
	// the ones it planned against.
	must(px.Mkdir("/long", 0o755))
	fi, err = px.Stat("/long")
	must(err)
	dir = fi.OID
	long := func(i int) string { return fmt.Sprintf("/long/%0300d", i) }
	for i := 0; i < 43; i++ {
		f, err := px.Create(long(i), 0o644)
		must(err)
		must(f.Close())
	}
	check("overflowing names", false)
	for i := 0; i < 43; i++ {
		must(px.Unlink(long(i)))
	}
	must(px.Rmdir("/long"))
	dir = 0
	check("overflowing directory removed in one batch", true)
}
