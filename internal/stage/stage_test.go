package stage

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/race"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// colAt is the collection whose head is page n.
func colAt(n uint64) sobj.OID { return sobj.OID(n<<12 | uint64(sobj.TypeCollection)) }

// model is the namespace the view describes: stored is what SCM holds, cur
// is stored with every staged op applied, and cover names the lock of the
// last op staged for each key still staged.
type model struct {
	stored, cur map[name]sobj.OID
	cover       map[name]uint64
}

func (m *model) count(ns map[name]sobj.OID, col sobj.OID) int {
	n := 0
	for k := range ns {
		if k.col == col {
			n++
		}
	}
	return n
}

// check holds every answer of v against m.
func (m *model) check(t *testing.T, v *View, cols []sobj.OID, keys []string) {
	t.Helper()
	for _, col := range cols {
		bound, staged := 0, map[string]Entry{}
		for _, key := range keys {
			k := name{col, key}
			e, ok := v.Lookup(col, []byte(key))
			child, present := m.cur[k]
			cover, isStaged := m.cover[k]
			switch {
			case ok != isStaged:
				t.Fatalf("%v/%s: staged %v, model %v", col, key, ok, isStaged)
			case !ok && child != m.stored[k]:
				t.Fatalf("%v/%s: not staged, but the model changed it", col, key)
			case ok && (e.Removed == present || e.Child != child && present || e.cover != cover):
				t.Fatalf("%v/%s: staged %+v, model child %v present %v cover %d", col, key, e, child, present, cover)
			}
			if ok {
				staged[key] = e
				if !e.Removed {
					bound++
				}
			}
		}
		change, b, n := v.Counts(col)
		if want := m.count(m.cur, col) - m.count(m.stored, col); change != want {
			t.Fatalf("%v: change %d, model %d", col, change, want)
		}
		if b != bound || n != len(staged) {
			t.Fatalf("%v: bound %d staged %d, model %d %d", col, b, n, bound, len(staged))
		}
		seen := 0
		v.Dir(col, func(key string, e Entry) {
			if staged[key] != e {
				t.Fatalf("%v: Dir gave %s=%+v, Lookup %+v", col, key, e, staged[key])
			}
			seen++
		})
		if seen != n {
			t.Fatalf("%v: Dir gave %d entries, want %d", col, seen, n)
		}
	}
}

// TestViewMatchesModel stages random honest sequences of inserts, removes
// and renames (onto existing names too, which the service stages as a
// remove of the old entry first), drops covers and resets, and after each
// step holds every lookup, count and listing of the view against a map
// model of the namespace.
func TestViewMatchesModel(t *testing.T) {
	cols := []sobj.OID{colAt(1), colAt(2), colAt(3)}
	keys := []string{"a", "b", "c", "d", "e"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &model{stored: map[name]sobj.OID{}, cover: map[name]uint64{}}
		for _, col := range cols {
			for _, key := range keys {
				if rng.Intn(2) == 0 {
					m.stored[name{col, key}] = sobj.OID(rng.Intn(1000)+1) << 12
				}
			}
		}
		m.cur = map[name]sobj.OID{}
		for k, c := range m.stored {
			m.cur[k] = c
		}
		var v View
		pick := func() name { return name{cols[rng.Intn(len(cols))], keys[rng.Intn(len(keys))]} }
		apply := func(op fsproto.Op, child sobj.OID) {
			// Fresh key bytes per op: the view keeps them.
			op.Key = []byte(string(op.Key))
			op.Key2 = []byte(string(op.Key2))
			v.Apply(&op, child)
		}
		for step := 0; step < 400; step++ {
			k, cover := pick(), uint64(rng.Intn(3)+1)
			child, present := m.cur[k]
			switch r := rng.Intn(10); {
			case r < 3 && !present:
				child = sobj.OID(rng.Intn(1000)+1) << 12
				apply(fsproto.Op{Code: fsproto.OpInsert, Target: k.col, Key: []byte(k.key), CoverLock: cover}, child)
				m.cur[k], m.cover[k] = child, cover
			case r < 5 && present:
				apply(fsproto.Op{Code: fsproto.OpRemove, Target: k.col, Key: []byte(k.key), CoverLock: cover}, 0)
				delete(m.cur, k)
				m.cover[k] = cover
			case r < 8 && present:
				dst, cover2 := pick(), uint64(rng.Intn(3)+1)
				if dst == k {
					continue
				}
				if _, taken := m.cur[dst]; taken {
					apply(fsproto.Op{Code: fsproto.OpRemove, Target: dst.col, Key: []byte(dst.key), CoverLock: cover2}, 0)
				}
				apply(fsproto.Op{Code: fsproto.OpRename, Target: k.col, Key: []byte(k.key), Dir2: dst.col,
					Key2: []byte(dst.key), CoverLock: cover, Cover2: cover2}, child)
				delete(m.cur, k)
				m.cur[dst] = child
				m.cover[k], m.cover[dst] = cover, cover2
			case r == 8:
				// The cover's entries reached SCM.
				v.Drop(cover)
				for k, c := range m.cover {
					if c != cover {
						continue
					}
					delete(m.cover, k)
					if child, ok := m.cur[k]; ok {
						m.stored[k] = child
					} else {
						delete(m.stored, k)
					}
				}
			case r == 9 && rng.Intn(8) == 0:
				v.Reset()
				m.cover = map[name]uint64{}
				m.stored = map[name]sobj.OID{}
				for k, c := range m.cur {
					m.stored[k] = c
				}
			}
			m.check(t, &v, cols, keys)
		}
	}
}

// TestViewResetRoom: a view that held more than the room Reset keeps is
// made afresh, and the next Reset keeps the new maps.
func TestViewResetRoom(t *testing.T) {
	var v View
	if !v.Reset() {
		t.Fatal("the first Reset made no maps")
	}
	col := colAt(1)
	for i := 0; i <= retain; i++ {
		v.Apply(&fsproto.Op{Code: fsproto.OpInsert, Target: col, Key: []byte(fmt.Sprint(i))}, 1<<12)
	}
	if !v.Reset() {
		t.Fatal("a view past its room kept its maps")
	}
	v.Apply(&fsproto.Op{Code: fsproto.OpInsert, Target: col, Key: []byte("k")}, 1<<12)
	if v.Reset() {
		t.Fatal("a small view lost its maps")
	}
	if _, _, n := v.Counts(col); n != 0 {
		t.Fatalf("%d entries after Reset", n)
	}
}

// TestAllocPins: a warm view stages and answers without the heap — the
// per-batch cost the service's plan and a session's staging both pay.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	dir, dst := colAt(1), colAt(2)
	ins := fsproto.Op{Code: fsproto.OpInsert, Target: dir, Key: []byte("a"), CoverLock: dir.Lock()}
	ren := fsproto.Op{Code: fsproto.OpRename, Target: dir, Key: []byte("a"), Dir2: dst, Key2: []byte("b"),
		CoverLock: dir.Lock(), Cover2: dst.Lock()}
	var v View
	round := func() {
		v.Reset()
		v.Apply(&ins, 3<<12)
		v.Apply(&ren, 3<<12)
		if e, ok := v.Lookup(dst, ren.Key2); !ok || e.Child != 3<<12 {
			t.Fatalf("lookup: %+v %v", e, ok)
		}
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("Reset + Apply + Lookup: %v allocs/op, want 0", got)
	}
}
