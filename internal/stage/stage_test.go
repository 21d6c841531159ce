package stage

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/race"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// colAt is the collection whose head is page n.
func colAt(n uint64) sobj.OID { return sobj.OID(n<<12 | uint64(sobj.TypeCollection)) }

// fileAt is the mFile whose head is page n.
func fileAt(n uint64) sobj.OID { return sobj.OID(n<<12 | uint64(sobj.TypeMFile)) }

// model is what the view describes. On the namespace, stored is what SCM
// holds, cur is stored with every staged op applied, and cover names the
// lock of the last op staged for each key still staged. files holds the
// same for each mFile, and objs what staged creates and set-attrs did to
// each header; an object's link change is how many more names bind it in
// cur than in stored.
type model struct {
	stored, cur map[name]sobj.OID
	cover       map[name]uint64
	files       map[sobj.OID]*fileModel
	objs        map[sobj.OID]*objModel
}

// objModel is one header's staged creation and attrs word, and the lock
// that covered its last staged create or set-attr.
type objModel struct {
	created, attred bool
	attrs, cover    uint64
}

// modelObjects bounds the OIDs the model run names: pages 1 to modelObjects.
const modelObjects = 200

// fileModel is one mFile: stored is what SCM holds and cur what the staged
// ops leave; staged, cover and reshaped describe the ops staged since the
// file last reached SCM.
type fileModel struct {
	stored, cur fileState
	cover       uint64
	staged      bool
	reshaped    bool
}

type fileState struct {
	blocks            map[uint64]uint64 // block → extent
	size              uint64
	single, singleCap uint64
}

func (f fileState) clone() fileState {
	f.blocks = maps.Clone(f.blocks)
	return f
}

// reach makes fm's staged state what SCM holds.
func (fm *fileModel) reach() {
	fm.stored, fm.staged, fm.reshaped = fm.cur.clone(), false, false
}

// The model's files: radix files with modelBS-byte blocks, numbered below
// modelBlocks, and single-extent files.
const (
	modelBS     = 4
	modelBlocks = 8
)

var radixFiles, singleFiles = []sobj.OID{fileAt(11), fileAt(12)}, []sobj.OID{fileAt(21)}

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
func (m *model) check(t testing.TB, v *View, cols []sobj.OID, keys []string) {
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
	links := map[sobj.OID]int{}
	for _, child := range m.cur {
		links[child]++
	}
	for _, child := range m.stored {
		links[child]--
	}
	for n := uint64(1); n <= modelObjects; n++ {
		oid, om := sobj.OID(n<<12), m.objs[sobj.OID(n<<12)]
		if om == nil {
			om = &objModel{}
		}
		o := v.Object(oid)
		if o.Links != links[oid] || o.Created != om.created || o.Attred != om.attred || o.Attrs != om.attrs {
			t.Fatalf("%v: header %+v, model links %d %+v", oid, o, links[oid], *om)
		}
	}
	for oid, fm := range m.files {
		// What a reader sees: the view's answer, else SCM's.
		f := v.File(oid)
		size := f.Size
		if !f.Sized {
			size = fm.stored.size
		}
		if size != fm.cur.size || f.Sized && !fm.staged {
			t.Fatalf("%v: size %d (staged %v), model %d (staged %v)", oid, size, f.Sized, fm.cur.size, fm.staged)
		}
		if f.Reshaped != fm.reshaped {
			t.Fatalf("%v: reshaped %v, model %v", oid, f.Reshaped, fm.reshaped)
		}
		ext, capacity := f.Single, f.SingleCap
		if ext == 0 {
			ext, capacity = fm.stored.single, fm.stored.singleCap
		}
		if ext != fm.cur.single || capacity != fm.cur.singleCap {
			t.Fatalf("%v: single %#x+%d, model %#x+%d", oid, ext, capacity, fm.cur.single, fm.cur.singleCap)
		}
		if fm.cur.single != 0 {
			continue
		}
		for blk := uint64(0); blk < modelBlocks; blk++ {
			ext, staged := v.Block(oid, blk)
			if !staged {
				ext = fm.stored.blocks[blk]
			}
			if ext != fm.cur.blocks[blk] || staged && !fm.staged {
				t.Fatalf("%v block %d: %#x (staged %v), model %#x (staged %v)", oid, blk, ext, staged, fm.cur.blocks[blk], fm.staged)
			}
		}
	}
}

// choices feeds the model run: from a seeded rng, recording every choice as
// a byte so a run becomes a fuzz seed, or from fuzz bytes. Every choice is
// below 256, so a recorded run replays as itself.
type choices struct {
	rng  *rand.Rand
	data []byte
	rec  []byte
}

func (c *choices) intn(n int) int {
	if c.rng != nil {
		v := c.rng.Intn(n)
		c.rec = append(c.rec, byte(v))
		return v
	}
	if len(c.data) == 0 {
		return 0
	}
	v := int(c.data[0]) % n
	c.data = c.data[1:]
	return v
}

func (c *choices) more() bool { return c.rng != nil || len(c.data) > 0 }

// runModel stages up to steps honest ops drawn from c — inserts, removes
// naming their victims, renames (onto existing names too, after a remove of
// the old entry, as a client ships them), creates, set-attrs of the attrs
// word and of the permission bits, attaches into holes (a block a truncate
// cut too), replaces, set-sizes and truncates — with drops of covers and
// resets between them, and after each step holds every answer of the view
// against the model.
func runModel(t testing.TB, c *choices, steps int) {
	cols := []sobj.OID{colAt(1), colAt(2), colAt(3)}
	keys := []string{"a", "b", "c", "d", "e"}
	m := &model{stored: map[name]sobj.OID{}, cover: map[name]uint64{}, files: map[sobj.OID]*fileModel{},
		objs: map[sobj.OID]*objModel{}}
	oid := func() sobj.OID { return sobj.OID(c.intn(modelObjects)+1) << 12 }
	obj := func(oid sobj.OID) *objModel {
		if m.objs[oid] == nil {
			m.objs[oid] = &objModel{}
		}
		return m.objs[oid]
	}
	next := uint64(0)
	fresh := func() uint64 { next++; return (1000 + next) << 12 }
	for _, col := range cols {
		for _, key := range keys {
			if c.intn(2) == 0 {
				m.stored[name{col, key}] = oid()
			}
		}
	}
	m.cur = maps.Clone(m.stored)
	for _, f := range radixFiles {
		st := fileState{blocks: map[uint64]uint64{}}
		for blk := uint64(0); blk < modelBlocks; blk++ {
			if c.intn(2) == 0 {
				st.blocks[blk] = fresh()
				st.size = (blk + 1) * modelBS
			}
		}
		m.files[f] = &fileModel{stored: st, cur: st.clone()}
	}
	for _, f := range singleFiles {
		st := fileState{single: fresh(), singleCap: 64, size: uint64(c.intn(64))}
		m.files[f] = &fileModel{stored: st, cur: st}
	}
	var v View
	pick := func() name { return name{cols[c.intn(len(cols))], keys[c.intn(len(keys))]} }
	apply := func(op fsproto.Op, child sobj.OID, bs uint64) {
		// Fresh key bytes per op: the view keeps them.
		op.Key = []byte(string(op.Key))
		op.Key2 = []byte(string(op.Key2))
		v.Apply(&op, child, bs)
	}
	// fileOp stages op on its file's model too.
	fileOp := func(op fsproto.Op, bs uint64) *fileModel {
		fm := m.files[op.Target]
		fm.staged, fm.cover = true, op.CoverLock
		apply(op, 0, bs)
		return fm
	}
	for step := 0; step < steps && c.more(); step++ {
		k, cover := pick(), uint64(c.intn(3)+1)
		child, present := m.cur[k]
		radix, single := radixFiles[c.intn(len(radixFiles))], singleFiles[c.intn(len(singleFiles))]
		switch r := c.intn(17); {
		case r < 2 && !present:
			child = oid()
			apply(fsproto.Op{Code: fsproto.OpInsert, Target: k.col, Key: []byte(k.key), CoverLock: cover}, child, 0)
			m.cur[k], m.cover[k] = child, cover
		case r < 3 && present:
			apply(fsproto.Op{Code: fsproto.OpRemove, Target: k.col, Key: []byte(k.key), Child: child, CoverLock: cover}, child, 0)
			delete(m.cur, k)
			m.cover[k] = cover
		case r < 5 && present:
			dst, cover2 := pick(), uint64(c.intn(3)+1)
			if dst == k {
				continue
			}
			if victim, taken := m.cur[dst]; taken {
				apply(fsproto.Op{Code: fsproto.OpRemove, Target: dst.col, Key: []byte(dst.key), Child: victim, CoverLock: cover2}, victim, 0)
			}
			apply(fsproto.Op{Code: fsproto.OpRename, Target: k.col, Key: []byte(k.key), Dir2: dst.col,
				Key2: []byte(dst.key), CoverLock: cover, Cover2: cover2}, child, 0)
			delete(m.cur, k)
			m.cur[dst] = child
			m.cover[k], m.cover[dst] = cover, cover2
		case r < 8:
			// An honest attach fills a hole: never mapped, or cut by a
			// staged truncate.
			blk := uint64(c.intn(modelBlocks))
			if m.files[radix].cur.blocks[blk] != 0 {
				continue
			}
			ext := fresh()
			fm := fileOp(fsproto.Op{Code: fsproto.OpAttachExtent, Target: radix, Val: blk, Val2: ext, CoverLock: cover}, 0)
			fm.cur.blocks[blk], fm.reshaped = ext, true
		case r < 9:
			ext, capacity := fresh(), uint64(64<<c.intn(3))
			fm := fileOp(fsproto.Op{Code: fsproto.OpReplaceExt, Target: single, Val: ext, Val2: capacity, CoverLock: cover}, 0)
			fm.cur.single, fm.cur.singleCap, fm.reshaped = ext, capacity, true
		case r < 10:
			f := radix
			if c.intn(2) == 0 {
				f = single
			}
			size := uint64(c.intn(modelBlocks*modelBS + 1))
			fileOp(fsproto.Op{Code: fsproto.OpSetSize, Target: f, Val: size, CoverLock: cover}, 0).cur.size = size
		case r < 12:
			size := uint64(c.intn(modelBlocks*modelBS + 1))
			fm := fileOp(fsproto.Op{Code: fsproto.OpTruncate, Target: radix, Val: size, CoverLock: cover}, modelBS)
			fm.cur.size = size
			for blk := range fm.cur.blocks {
				if blk*modelBS >= size {
					delete(fm.cur.blocks, blk)
				}
			}
		case r < 13:
			size := uint64(c.intn(64))
			fileOp(fsproto.Op{Code: fsproto.OpTruncate, Target: single, Val: size, CoverLock: cover}, 0).cur.size = size
		case r < 14:
			o := oid()
			apply(fsproto.Op{Code: fsproto.OpCreateObject, Target: o, CoverLock: cover}, 0, 0)
			om := obj(o)
			om.created, om.cover = true, cover
		case r < 15:
			// The attrs word (Val2 1) is staged; the permission bits are not.
			o, attrs, word := oid(), uint64(c.intn(256)+1), uint64(c.intn(2))
			apply(fsproto.Op{Code: fsproto.OpSetAttr, Target: o, Val: attrs, Val2: word, CoverLock: cover}, 0, 0)
			om := obj(o)
			om.cover = cover
			if word == 1 {
				om.attrs, om.attred = attrs, true
			}
		case r < 16:
			// The cover's entries, files and headers reached SCM.
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
			for _, fm := range m.files {
				if fm.staged && fm.cover == cover {
					fm.reach()
				}
			}
			for _, om := range m.objs {
				if om.cover == cover {
					*om = objModel{}
				}
			}
		case c.intn(8) == 0:
			v.Reset()
			m.cover = map[name]uint64{}
			m.stored = maps.Clone(m.cur)
			m.objs = map[sobj.OID]*objModel{}
			for _, fm := range m.files {
				fm.reach()
			}
		}
		m.check(t, &v, cols, keys)
	}
}

// TestViewMatchesModel runs 20 seeded random honest sequences of 400 ops
// against the map model.
func TestViewMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runModel(t, &choices{rng: rand.New(rand.NewSource(seed))}, 400)
	}
}

// FuzzViewMatchesModel reads its op sequence from the fuzz bytes, each
// byte one choice of the model run; the seeds are recorded seeded runs.
func FuzzViewMatchesModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		c := &choices{rng: rand.New(rand.NewSource(seed))}
		runModel(f, c, 60)
		f.Add(c.rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runModel(t, &choices{data: data}, len(data))
	})
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
		v.Apply(&fsproto.Op{Code: fsproto.OpInsert, Target: col, Key: []byte(fmt.Sprint(i))}, 1<<12, 0)
	}
	if !v.Reset() {
		t.Fatal("a view past its room kept its maps")
	}
	v.Apply(&fsproto.Op{Code: fsproto.OpInsert, Target: col, Key: []byte("k")}, 1<<12, 0)
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
		v.Apply(&ins, 3<<12, 0)
		v.Apply(&ren, 3<<12, 0)
		if e, ok := v.Lookup(dst, ren.Key2); !ok || e.Child != 3<<12 {
			t.Fatalf("lookup: %+v %v", e, ok)
		}
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("Reset + Apply + Lookup: %v allocs/op, want 0", got)
	}
}
