// Package stage is the staged namespace: what a sequence of directory ops
// does to the collections it names before SCM shows it. The client library
// keeps one per session, so a client sees its own unshipped inserts,
// removes and renames (§6.1's shadow objects); the trusted service keeps
// one per plan, so op n of a batch validates against ops 1…n−1 (§5.3.5).
// Both sides feed it the same fsproto ops through Apply, so what an op does
// to a directory is defined once.
package stage

import (
	"unsafe"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// Entry is one staged key: the child it names, or Removed.
type Entry struct {
	Child   sobj.OID
	Removed bool
	cover   uint64 // the lock that covered the op that staged the entry
	// delta is the entry's share of its collection's count change: the
	// entries the key holds now minus those it held before it was staged.
	delta int
}

type name struct {
	col sobj.OID
	key string
}

// colStat sums a collection's staged entries: the count change, how many
// entries bind a child, and how many are staged at all.
type colStat struct{ change, bound, n int }

// View is a staged namespace. The zero View is empty. A View is not safe
// for concurrent use.
type View struct {
	ents map[name]Entry
	cols map[sobj.OID]colStat
}

// retain bounds the room Reset keeps: after a View held more entries than
// this its maps are made afresh, since clearing a map costs its capacity.
const retain = 1 << 10

// Reset empties the view, keeping its maps' room. It reports whether it
// made the maps afresh (the first Reset, or after an unusually large
// batch), so a caller keeping maps beside the view can do the same.
func (v *View) Reset() (fresh bool) {
	if v.ents != nil && len(v.ents) <= retain {
		clear(v.ents)
		clear(v.cols)
		return false
	}
	v.ents = make(map[name]Entry)
	v.cols = make(map[sobj.OID]colStat)
	return true
}

// Apply stages op's effect on the namespace: an insert binds op.Key in
// op.Target to child, a remove unbinds it, and a rename unbinds op.Key in
// op.Target and binds op.Key2 in op.Dir2 to child. child is the object the
// op binds: the client passes op.Child, the service the child it checked.
// Other ops stage nothing. The view keeps op's key bytes, so they must not
// change until Reset or Drop lets the entry go.
func (v *View) Apply(op *fsproto.Op, child sobj.OID) {
	switch op.Code {
	case fsproto.OpInsert:
		v.set(op.Target, op.Key, Entry{Child: child, cover: op.CoverLock})
	case fsproto.OpRemove:
		v.set(op.Target, op.Key, Entry{Removed: true, cover: op.CoverLock})
	case fsproto.OpRename:
		v.set(op.Target, op.Key, Entry{Removed: true, cover: op.CoverLock})
		v.set(op.Dir2, op.Key2, Entry{Child: child, cover: op.Cover2})
	}
}

// set stages e for key in col. A key staged for the first time held what
// the op requires of it: nothing for a binding, an entry for a removal. The
// service checks that before it stages; a client's counts trust it.
func (v *View) set(col sobj.OID, key []byte, e Entry) {
	if v.ents == nil {
		v.Reset()
	}
	k := name{col, unsafe.String(unsafe.SliceData(key), len(key))}
	st := v.cols[col]
	if old, had := v.ents[k]; had {
		st.change -= old.delta
		st.bound -= binds(old)
		e.delta = binds(e) - (binds(old) - old.delta)
	} else {
		st.n++
		e.delta = 2*binds(e) - 1
	}
	st.change += e.delta
	st.bound += binds(e)
	v.cols[col] = st
	v.ents[k] = e
}

// binds is 1 for an entry that binds a child, 0 for a removal.
func binds(e Entry) int {
	if e.Removed {
		return 0
	}
	return 1
}

// Lookup returns the entry staged for key in col, if any.
func (v *View) Lookup(col sobj.OID, key []byte) (Entry, bool) {
	e, ok := v.ents[name{col, unsafe.String(unsafe.SliceData(key), len(key))}]
	return e, ok
}

// Counts returns col's staged entry-count change, how many of its staged
// entries bind a child, and how many entries it has staged at all.
func (v *View) Counts(col sobj.OID) (change, bound, staged int) {
	st := v.cols[col]
	return st.change, st.bound, st.n
}

// Dir calls fn for every entry staged in col, in no set order; it scans
// every staged entry. fn must not change the view.
func (v *View) Dir(col sobj.OID, fn func(key string, e Entry)) {
	for k, e := range v.ents {
		if k.col == col {
			fn(k.key, e)
		}
	}
}

// Drop forgets every entry staged under cover, as SCM now shows them.
func (v *View) Drop(cover uint64) {
	for k, e := range v.ents {
		if e.cover != cover {
			continue
		}
		delete(v.ents, k)
		st := v.cols[k.col]
		st.n--
		st.change -= e.delta
		st.bound -= binds(e)
		if st.n == 0 {
			delete(v.cols, k.col)
		} else {
			v.cols[k.col] = st
		}
	}
}
