package sobj

import (
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
	tombs, _ := c.Tombstones()
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
