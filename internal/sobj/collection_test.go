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

// env bundles a tracked arena with a buddy allocator, as the TFS would see
// them.
type env struct {
	mem *scm.Memory
	bd  *alloc.Buddy
}

func newEnv(t *testing.T, heap uint64) *env {
	t.Helper()
	mem := scm.New(scm.Config{Size: heap + 1<<20, TrackPersistence: true})
	t.Cleanup(func() { mem.Close() })
	bd, err := alloc.Format(mem, scm.PageSize, 1<<20, heap)
	if err != nil {
		t.Fatal(err)
	}
	return &env{mem: mem, bd: bd}
}

func mkOID(t *testing.T, i int) OID {
	t.Helper()
	oid, err := MakeOID(uint64(i)*64+1<<30, TypeMFile)
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestCollectionInsertLookupRemove(t *testing.T) {
	e := newEnv(t, 8<<20)
	c, err := CreateCollection(e.mem, e.bd, 0644)
	if err != nil {
		t.Fatal(err)
	}
	val := mkOID(t, 1)
	if err := c.Insert(e.bd, []byte("alpha"), val); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if got != val {
		t.Fatalf("lookup = %v, want %v", got, val)
	}
	if _, err := c.Lookup([]byte("beta")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := c.Insert(e.bd, []byte("alpha"), val); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := c.Remove(e.bd, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup([]byte("alpha")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after remove: %v", err)
	}
	if err := c.Remove(e.bd, []byte("alpha")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
	// Re-insert after tombstone.
	if err := c.Insert(e.bd, []byte("alpha"), mkOID(t, 2)); err != nil {
		t.Fatalf("re-insert after tombstone: %v", err)
	}
}

func TestCollectionGrowsThroughRehash(t *testing.T) {
	e := newEnv(t, 32<<20)
	c, err := CreateCollection(e.mem, e.bd, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := c.Insert(e.bd, []byte(fmt.Sprintf("key-%04d", i)), mkOID(t, i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	count, _ := c.Count()
	if count != n {
		t.Fatalf("count = %d", count)
	}
	for i := 0; i < n; i++ {
		got, err := c.Lookup([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil {
			t.Fatalf("lookup %d after rehash: %v", i, err)
		}
		if got != mkOID(t, i) {
			t.Fatalf("lookup %d = %v", i, got)
		}
	}
}

// TestTombstoneGCShrinks: a tombstone GC rebuilds the table for the live
// count rather than keeping its bucket count, leaves the survivors at no
// more than half the grow threshold's load (so the shrunk table is not
// about to grow again), and gives the old table's space back.
func TestTombstoneGCShrinks(t *testing.T) {
	e := newEnv(t, 32<<20)
	c, err := CreateCollection(e.mem, e.bd, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n, keep = 2000, 100
	for i := 0; i < n; i++ {
		if err := c.Insert(e.bd, []byte(fmt.Sprintf("key-%04d", i)), mkOID(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := c.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	freeFull := e.bd.FreeBytes()
	for i := keep; i < n; i++ {
		if err := c.Remove(e.bd, []byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	g, err := c.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.Buckets >= full.Buckets/4 {
		t.Fatalf("%d live entries kept %d of %d buckets", g.Count, g.Buckets, full.Buckets)
	}
	if g.Buckets > initialBuckets && g.Count*2 > g.Buckets*entriesPerBucketTarget {
		t.Fatalf("shrunk too far: %d live in %d buckets", g.Count, g.Buckets)
	}
	if got, want := e.bd.FreeBytes(), freeFull+TableSizeFor(full.Buckets)-TableSizeFor(g.Buckets); got < want {
		t.Fatalf("free after shrink %d, want at least %d", got, want)
	}
	for i := 0; i < keep; i++ {
		if got, err := c.Lookup([]byte(fmt.Sprintf("key-%04d", i))); err != nil || got != mkOID(t, i) {
			t.Fatalf("lookup %d after shrink: %v %v", i, got, err)
		}
	}
}

func TestCollectionIterateSeesAllLive(t *testing.T) {
	e := newEnv(t, 8<<20)
	c, _ := CreateCollection(e.mem, e.bd, 0)
	want := map[string]OID{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		v := mkOID(t, i)
		_ = c.Insert(e.bd, []byte(k), v)
		want[k] = v
	}
	for i := 0; i < 100; i += 2 {
		_ = c.Remove(e.bd, []byte(fmt.Sprintf("k%d", i)))
		delete(want, fmt.Sprintf("k%d", i))
	}
	got := map[string]OID{}
	if err := c.Iterate(func(key []byte, val OID) error {
		got[string(key)] = val
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterate saw %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestCollectionTombstoneGC(t *testing.T) {
	e := newEnv(t, 8<<20)
	c, _ := CreateCollection(e.mem, e.bd, 0)
	for i := 0; i < 60; i++ {
		_ = c.Insert(e.bd, []byte(fmt.Sprintf("k%d", i)), mkOID(t, i))
	}
	for i := 0; i < 50; i++ {
		_ = c.Remove(e.bd, []byte(fmt.Sprintf("k%d", i)))
	}
	// GC triggers whenever tombstones exceed max(16, count/2), so the
	// steady-state tombstone count stays at or below the threshold.
	tombs, _ := c.tombstones()
	if tombs > 16 {
		t.Fatalf("tombstones = %d, GC never triggered", tombs)
	}
	for i := 50; i < 60; i++ {
		if _, err := c.Lookup([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("live key lost in GC: %v", err)
		}
	}
}

func TestCollectionKeyTooLarge(t *testing.T) {
	e := newEnv(t, 8<<20)
	c, _ := CreateCollection(e.mem, e.bd, 0)
	if err := c.Insert(e.bd, make([]byte, MaxKeyLen+1), 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized key: %v", err)
	}
}

func TestCollectionDestroyReturnsStorage(t *testing.T) {
	e := newEnv(t, 8<<20)
	before := e.bd.FreeBytes()
	c, _ := CreateCollection(e.mem, e.bd, 0)
	for i := 0; i < 500; i++ {
		_ = c.Insert(e.bd, []byte(fmt.Sprintf("key-%d", i)), mkOID(t, i))
	}
	if err := c.Destroy(e.bd); err != nil {
		t.Fatal(err)
	}
	if e.bd.FreeBytes() != before {
		t.Fatalf("leak: free %d != %d", e.bd.FreeBytes(), before)
	}
}

func TestOpenCollectionValidates(t *testing.T) {
	e := newEnv(t, 8<<20)
	c, _ := CreateCollection(e.mem, e.bd, 0)
	if _, err := OpenCollection(e.mem, c.OID()); err != nil {
		t.Fatal(err)
	}
	// Wrong type bits.
	bad, _ := MakeOID(c.OID().Addr(), TypeMFile)
	if _, err := OpenCollection(e.mem, bad); !errors.Is(err, ErrBadObject) {
		t.Fatalf("want ErrBadObject, got %v", err)
	}
	// Garbage address.
	garbage, _ := MakeOID(1<<20+4096, TypeCollection)
	if _, err := OpenCollection(e.mem, garbage); err == nil {
		t.Fatal("open of garbage should fail")
	}
}

func TestCollectionHeaderFields(t *testing.T) {
	e := newEnv(t, 8<<20)
	c, _ := CreateCollection(e.mem, e.bd, 0755)
	h, err := ReadHeader(e.mem, c.OID())
	if err != nil {
		t.Fatal(err)
	}
	if h.Perm != 0755 || h.Type != TypeCollection || h.Refcnt != 0 {
		t.Fatalf("header = %+v", h)
	}
	if err := SetRefcnt(e.mem, c.OID(), 2); err != nil {
		t.Fatal(err)
	}
	if err := SetParent(e.mem, c.OID(), mkOID(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := SetPerm(e.mem, c.OID(), 0600); err != nil {
		t.Fatal(err)
	}
	h, _ = ReadHeader(e.mem, c.OID())
	if h.Refcnt != 2 || h.Parent != mkOID(t, 9) || h.Perm != 0600 {
		t.Fatalf("updated header = %+v", h)
	}
}

func TestBucketLockStableUnderSameTable(t *testing.T) {
	e := newEnv(t, 8<<20)
	c, _ := CreateCollection(e.mem, e.bd, 0)
	l1, err := c.BucketLock([]byte("some-key"))
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := c.BucketLock([]byte("some-key"))
	if l1 != l2 {
		t.Fatal("bucket lock not deterministic")
	}
	if OID(l1).Type() != TypeBucket {
		t.Fatalf("bucket lock type = %v", OID(l1).Type())
	}
}

// Property: a collection behaves exactly like map[string]uint64 under random
// insert/remove/lookup sequences (crossing rehashes and tombstone GC), and
// survives a crash+reopen at the end with all completed operations intact.
func TestQuickCollectionMatchesMapModel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := newEnv(t, 32<<20)
			c, err := CreateCollection(e.mem, e.bd, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			model := map[string]OID{}
			keys := make([]string, 0, 256)
			for i := 0; i < 230; i++ {
				keys = append(keys, fmt.Sprintf("key-%d-%d", seed, i))
			}
			for step := 0; step < 3000; step++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(3) {
				case 0: // insert
					v := mkOID(t, rng.Intn(1<<20))
					err := c.Insert(e.bd, []byte(k), v)
					if _, exists := model[k]; exists {
						if !errors.Is(err, ErrExists) {
							t.Fatalf("step %d: duplicate insert err = %v", step, err)
						}
					} else {
						if err != nil {
							t.Fatalf("step %d: insert: %v", step, err)
						}
						model[k] = v
					}
				case 1: // remove
					err := c.Remove(e.bd, []byte(k))
					if _, exists := model[k]; exists {
						if err != nil {
							t.Fatalf("step %d: remove: %v", step, err)
						}
						delete(model, k)
					} else if !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: remove missing err = %v", step, err)
					}
				case 2: // lookup
					v, err := c.Lookup([]byte(k))
					if want, exists := model[k]; exists {
						if err != nil || v != want {
							t.Fatalf("step %d: lookup = %v,%v want %v", step, v, err, want)
						}
					} else if !errors.Is(err, ErrNotFound) {
						t.Fatalf("step %d: lookup missing err = %v", step, err)
					}
				}
			}
			// Crash and reopen: all completed operations must persist.
			e.mem.Crash()
			c2, err := OpenCollection(e.mem, c.OID())
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			got := map[string]OID{}
			if err := c2.Iterate(func(key []byte, val OID) error {
				got[string(key)] = val
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(model) {
				t.Fatalf("after crash: %d entries, want %d", len(got), len(model))
			}
			for k, v := range model {
				if got[k] != v {
					t.Fatalf("after crash: %s = %v, want %v", k, got[k], v)
				}
			}
		})
	}
}

// pageTally counts the page-sized allocations a collection makes: with
// short keys no bucket overflows, so each is a table page.
type pageTally struct {
	*alloc.Buddy
	pages int
}

func (p *pageTally) Alloc(size uint64) (uint64, error) {
	if size == scm.PageSize {
		p.pages++
	}
	return p.Buddy.Alloc(size)
}

// TestCollectionTableLifecycle walks a collection's table through every
// move: home at creation, out at the 65th entry, home again through a
// tombstone GC (one rehash, built straight into the head page), home to
// home through a GC that fires while home (two rehashes: a shadow in a
// fresh page, then the move home), and Destroy from either state. After
// each step the allocator's free bytes are exactly the space before
// creation less the collection's extents, and every live entry is found.
func TestCollectionTableLifecycle(t *testing.T) {
	e := newEnv(t, 8<<20)
	base := e.bd.FreeBytes()
	a := &pageTally{Buddy: e.bd}
	key := func(i int) []byte { return []byte(fmt.Sprintf("entry-%03d", i)) }
	live := map[int]bool{}
	check := func(c *Collection, step string, home bool, nb uint32, pages int) {
		t.Helper()
		table, gotNB, err := c.table()
		if err != nil {
			t.Fatal(err)
		}
		if c.isHome(table) != home || gotNB != nb {
			t.Fatalf("%s: table %#x (head %#x) of %d buckets, want home=%v at %d", step, table, c.oid.Addr(), gotNB, home, nb)
		}
		if a.pages != pages {
			t.Fatalf("%s: %d page allocations, want %d", step, a.pages, pages)
		}
		exts, err := c.Extents(nil)
		if err != nil {
			t.Fatal(err)
		}
		held := uint64(0)
		for _, x := range exts {
			held += x.Size
		}
		if want := base - held; e.bd.FreeBytes() != want {
			t.Fatalf("%s: free %d, want %d (extents %+v)", step, e.bd.FreeBytes(), want, exts)
		}
		if home && len(exts) != 1 {
			t.Fatalf("%s: a home table listed extents %+v", step, exts)
		}
		if count, err := c.Count(); err != nil || count != uint32(len(live)) {
			t.Fatalf("%s: count %d (%v), want %d", step, count, err, len(live))
		}
		for i := range live {
			if _, err := c.Lookup(key(i)); err != nil {
				t.Fatalf("%s: entry %d: %v", step, i, err)
			}
		}
	}
	insert := func(c *Collection, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := c.Insert(a, key(i), mkOID(t, i)); err != nil {
				t.Fatal(err)
			}
			live[i] = true
		}
	}
	remove := func(c *Collection, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := c.Remove(a, key(i)); err != nil {
				t.Fatal(err)
			}
			delete(live, i)
		}
	}

	c, err := CreateCollection(e.mem, a, 0o755)
	if err != nil {
		t.Fatal(err)
	}
	check(c, "created", true, 8, 1)
	insert(c, 0, 64)
	check(c, "64 entries", true, 8, 1)
	insert(c, 64, 65)
	check(c, "65th entry", false, 16, 1)
	remove(c, 0, 22) // a GC at 43 live keeps 16 buckets
	check(c, "GC out to out", false, 16, 1)
	remove(c, 22, 39) // a GC at 26 live shrinks to 8: straight home
	check(c, "GC out to home", true, 8, 1)
	remove(c, 39, 56) // a GC at 9 live, while home: a shadow page, then home
	check(c, "GC home to home", true, 8, 2)
	if err := c.Destroy(a); err != nil {
		t.Fatal(err)
	}
	if e.bd.FreeBytes() != base {
		t.Fatalf("Destroy from home: free %d, want %d", e.bd.FreeBytes(), base)
	}

	clear(live)
	a.pages = 0
	c, err = CreateCollection(e.mem, a, 0o755)
	if err != nil {
		t.Fatal(err)
	}
	insert(c, 0, 65)
	check(c, "grown again", false, 16, 1)
	if err := c.Destroy(a); err != nil {
		t.Fatal(err)
	}
	if e.bd.FreeBytes() != base {
		t.Fatalf("Destroy from out: free %d, want %d", e.bd.FreeBytes(), base)
	}
}

// TestHomeGCKeepsOverflowChains: a tombstone GC while home moves a table
// whose buckets chain overflow extents; the chains go home with the
// buckets, and no extent is leaked or freed twice.
func TestHomeGCKeepsOverflowChains(t *testing.T) {
	e := newEnv(t, 8<<20)
	base := e.bd.FreeBytes()
	c, err := CreateCollection(e.mem, e.bd, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return append(bytes.Repeat([]byte{'k'}, 300), fmt.Sprint(i)...) }
	for i := 0; i < 40; i++ {
		if err := c.Insert(e.bd, key(i), mkOID(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 17; i++ {
		if err := c.Remove(e.bd, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := c.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := c.table()
	if err != nil {
		t.Fatal(err)
	}
	if g.Tombs != 0 || !c.isHome(table) || g.Overflow == 0 {
		t.Fatalf("want a GC'd home table with overflow chains, got %+v (table %#x, head %#x)", g, table, c.oid.Addr())
	}
	if got, want := e.bd.FreeBytes(), base-scm.PageSize-uint64(g.Overflow)*ovfSize; got != want {
		t.Fatalf("free %d, want %d", got, want)
	}
	for i := 17; i < 40; i++ {
		if _, err := c.Lookup(key(i)); err != nil {
			t.Fatalf("entry %d after the move home: %v", i, err)
		}
	}
	if err := c.Destroy(e.bd); err != nil {
		t.Fatal(err)
	}
	if e.bd.FreeBytes() != base {
		t.Fatalf("Destroy: free %d, want %d", e.bd.FreeBytes(), base)
	}
}

// TestBucketZeroHoldsAMaxKey: bucket 0 starts colHeadSize into its table
// and keeps 438 bytes of record area, room for a MaxKeyLen record.
func TestBucketZeroHoldsAMaxKey(t *testing.T) {
	if n := bucketNode(0, 0); n.areaLen != 438 || n.areaLen < recHeaderLen+MaxKeyLen+recValueLen {
		t.Fatalf("bucket 0 has %d bytes of record area", n.areaLen)
	}
	e := newEnv(t, 8<<20)
	c, err := CreateCollection(e.mem, e.bd, 0)
	if err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte{'x'}, MaxKeyLen)
	for i := 0; hashKey(long)%initialBuckets != 0; i++ {
		copy(long, fmt.Sprint(i))
	}
	if err := c.Insert(e.bd, long, mkOID(t, 1)); err != nil {
		t.Fatal(err)
	}
	if g, err := c.Geometry(); err != nil || g.Overflow != 0 {
		t.Fatalf("a MaxKeyLen key overflowed bucket 0: %+v, %v", g, err)
	}
	if got, err := c.Lookup(long); err != nil || got != mkOID(t, 1) {
		t.Fatalf("lookup: %v, %v", got, err)
	}
}
