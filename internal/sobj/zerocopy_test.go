package sobj

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/aerie-fs/aerie/internal/scm"
)

// TestQuickCollectionSliceReadEquivalence drives random insert/remove
// sequences with adversarial cache eviction on a persistence-tracked arena
// and checks that the mutating handle and a fresh handle opened per check
// always agree with the model on Lookup and Iterate.
func TestQuickCollectionSliceReadEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, 8<<20)
		c, err := CreateCollection(e.mem, e.bd, 0644)
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[string]OID)
		keys := make([]string, 80)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d-%d", seed&0xff, i)
		}
		for step := 0; step < 150; step++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(4) {
			case 0, 1: // insert skews the table toward growth/rehash
				val := mkOID(t, 1+rng.Intn(1<<20))
				err := c.Insert(e.bd, []byte(k), val)
				if _, dup := model[k]; dup {
					if !errors.Is(err, ErrExists) {
						t.Fatalf("seed %d: duplicate insert of %q: %v", seed, k, err)
					}
				} else if err != nil {
					t.Fatalf("seed %d: insert %q: %v", seed, k, err)
				} else {
					model[k] = val
				}
			case 2:
				err := c.Remove(e.bd, []byte(k))
				if _, ok := model[k]; ok {
					if err != nil {
						t.Fatalf("seed %d: remove %q: %v", seed, k, err)
					}
					delete(model, k)
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("seed %d: remove missing %q: %v", seed, k, err)
				}
			case 3:
				e.mem.EvictRandom(rng, 0.3)
			}
			if step%25 != 0 && step != 149 {
				continue
			}
			// Fresh handle per check, as a per-operation open would be
			// (the cached table header does not span instances).
			cc, err := OpenCollection(e.mem, c.OID())
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				a, errA := c.Lookup([]byte(k))
				b, errB := cc.Lookup([]byte(k))
				if a != b || (errA == nil) != (errB == nil) {
					t.Logf("seed %d step %d: Lookup(%q) handle=(%v,%v) fresh=(%v,%v)",
						seed, step, k, a, errA, b, errB)
					return false
				}
				if errA != nil && !errors.Is(errA, ErrNotFound) {
					t.Fatalf("seed %d: Lookup(%q): %v", seed, k, errA)
				}
				want, ok := model[k]
				if ok != (errA == nil) || ok && a != want {
					t.Logf("seed %d step %d: Lookup(%q)=(%v,%v), model %v %v",
						seed, step, k, a, errA, want, ok)
					return false
				}
			}
			got := make(map[string]OID)
			if err := c.Iterate(func(key []byte, val OID) error {
				got[string(key)] = val
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			gotFresh := make(map[string]OID)
			if err := cc.Iterate(func(key []byte, val OID) error {
				gotFresh[string(key)] = val
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(model) || len(gotFresh) != len(model) {
				t.Logf("seed %d step %d: iterate sizes handle=%d fresh=%d model=%d",
					seed, step, len(got), len(gotFresh), len(model))
				return false
			}
			for k, v := range model {
				if got[k] != v || gotFresh[k] != v {
					t.Logf("seed %d step %d: iterate %q handle=%v fresh=%v want %v",
						seed, step, k, got[k], gotFresh[k], v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMFileSliceReadEquivalence drives random writes and adversarial
// evictions over a radix mFile with holes and checks that ReadAt through the
// writing handle and through a fresh handle per check both match an
// in-memory model, including zero-fill of unallocated blocks.
func TestQuickMFileSliceReadEquivalence(t *testing.T) {
	const (
		blockSize = 4096
		nblocks   = 16
		size      = nblocks * blockSize
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, 16<<20)
		m, err := CreateMFile(e.mem, e.bd, 0644, DefaultExtentLog)
		if err != nil {
			t.Fatal(err)
		}
		// Leave two holes so reads exercise zero-fill.
		holes := map[uint64]bool{5: true, 11: true}
		for blk := uint64(0); blk < nblocks; blk++ {
			if holes[blk] {
				continue
			}
			attachRange(t, e, m, blk*blockSize, blockSize)
		}
		if err := m.SetSize(size); err != nil {
			t.Fatal(err)
		}
		model := make([]byte, size)
		for step := 0; step < 80; step++ {
			switch rng.Intn(3) {
			case 0, 1: // write within one allocated block
				blk := uint64(rng.Intn(nblocks))
				if holes[blk] {
					continue
				}
				off := blk*blockSize + uint64(rng.Intn(blockSize))
				n := 1 + rng.Intn(int((blk+1)*blockSize-off))
				p := make([]byte, n)
				rng.Read(p)
				if _, err := m.WriteAt(p, off); err != nil {
					t.Fatalf("seed %d: WriteAt: %v", seed, err)
				}
				copy(model[off:], p)
			case 2:
				e.mem.EvictRandom(rng, 0.3)
			}
			off := uint64(rng.Intn(size))
			n := 1 + rng.Intn(size-int(off))
			mc, err := OpenMFile(e.mem, m.OID())
			if err != nil {
				t.Fatal(err)
			}
			for name, h := range map[string]*MFile{"handle": m, "fresh": mc} {
				got := make([]byte, n)
				if _, err := h.ReadAt(got, off); err != nil {
					t.Fatalf("seed %d: %s ReadAt: %v", seed, name, err)
				}
				if !bytes.Equal(got, model[off:off+uint64(n)]) {
					t.Logf("seed %d step %d: %s read != model at %#x+%d", seed, step, name, off, n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestMFileSingleSliceReadEquivalence covers the single-extent fast path,
// through the writing handle and a fresh one.
func TestMFileSingleSliceReadEquivalence(t *testing.T) {
	e := newEnv(t, 8<<20)
	m, err := CreateMFileSingle(e.mem, e.bd, 0644, 8192)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("abcdefgh"), 512)
	if _, err := m.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSize(uint64(len(data))); err != nil {
		t.Fatal(err)
	}
	mc, err := OpenMFile(e.mem, m.OID())
	if err != nil {
		t.Fatal(err)
	}
	a := make([]byte, len(data))
	b := make([]byte, len(data))
	if _, err := m.ReadAt(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, data) || !bytes.Equal(b, data) {
		t.Fatal("single-extent read mismatch")
	}
}

// TestCollectionTableCacheInvalidation checks that the cached table header
// is refreshed after a rehash (same instance) and via invalidateTable
// (cross-instance mutation), and that whatever is cached is the published
// table.
func TestCollectionTableCacheInvalidation(t *testing.T) {
	e := newEnv(t, 8<<20)
	c, err := CreateCollection(e.mem, e.bd, 0644)
	if err != nil {
		t.Fatal(err)
	}
	// cachedIsCurrent: a lookup leaves a table word cached, and it is the
	// word the head extent publishes.
	cachedIsCurrent := func(c *Collection) {
		t.Helper()
		w := c.tbl.Load()
		if w == 0 {
			t.Fatal("no table word cached after a lookup")
		}
		pub, err := scm.Read64(e.mem, c.oid.Addr()+offColTable)
		if err != nil {
			t.Fatal(err)
		}
		if w != pub {
			t.Fatalf("cached table word %#x, published %#x", w, pub)
		}
	}
	// Enough inserts to force at least one rehash through this instance.
	for i := 0; i < 500; i++ {
		if err := c.Insert(e.bd, []byte(fmt.Sprintf("k%04d", i)), mkOID(t, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if _, err := c.Lookup([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatalf("lookup after rehash: %v", err)
		}
	}
	cachedIsCurrent(c)
	// A second instance mutates (and may rehash); the first instance sees
	// the new table after invalidateTable.
	c2, err := OpenCollection(e.mem, c.OID())
	if err != nil {
		t.Fatal(err)
	}
	for i := 500; i < 2000; i++ {
		if err := c2.Insert(e.bd, []byte(fmt.Sprintf("k%04d", i)), mkOID(t, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	c.invalidateTable()
	for i := 0; i < 2000; i++ {
		if _, err := c.Lookup([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatalf("lookup after cross-instance rehash: %v", err)
		}
	}
	cachedIsCurrent(c)
}
