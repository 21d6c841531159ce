// Package stage is the staged state of a sequence of metadata ops: what
// they do to the collections, mFiles and object headers they name before
// SCM shows it. The client library keeps one per session, so a client sees
// its own unshipped inserts, removes, renames, attaches, sizes, truncates,
// link counts and times (§6.1's shadow objects); the trusted service keeps
// one per plan, so op n of a batch validates against ops 1…n−1 (§5.3.5).
// Both sides feed it the same fsproto ops through Apply, so what an op does
// to a directory, a file or a header is defined once.
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
	// was is the child the key bound before it was staged, 0 for none.
	was sobj.OID
}

type name struct {
	col sobj.OID
	key string
}

// colStat sums a collection's staged entries: the count change, how many
// entries bind a child, and how many are staged at all.
type colStat struct{ change, bound, n int }

// file is what the staged ops did to one mFile: its size when Sized, a
// single-extent replacement when Single is not 0, and whether an attach or
// replace Reshaped its extents, so SCM no longer lists them all.
type file struct {
	Size, Single, SingleCap uint64
	Sized, Reshaped         bool
	// cut is the first block a staged truncate cut away: blocks at or past
	// it are holes unless an extent is staged there after the cut.
	cut    uint64
	blocks int    // block extents staged
	cover  uint64 // the lock that covered the file's last staged op
}

// object is what the staged ops did to one object's header: the change to
// its link count, whether they created it, and its attrs word when Attred.
type object struct {
	Links           int
	Attrs           uint64
	Created, Attred bool
	cover           uint64 // the lock that covered its last staged create or set-attr
}

type block struct {
	oid sobj.OID
	blk uint64
}

// View is a staged namespace and the staged state of the files and headers
// it touches. The zero View is empty. A View is not safe for concurrent use.
type View struct {
	ents  map[name]Entry
	cols  map[sobj.OID]colStat
	files map[sobj.OID]file
	objs  map[sobj.OID]object
	// blocks holds every file's staged block extents in one map, so Reset
	// keeps its room whichever files the next batch writes.
	blocks map[block]uint64
}

// retain bounds the room Reset keeps: after a View held more entries, files,
// objects or blocks than this its maps are made afresh, since clearing a
// map costs its capacity.
const retain = 1 << 10

// Reset empties the view, keeping its maps' room. It reports whether it
// made the maps afresh (the first Reset, or after an unusually large
// batch), so a caller keeping maps beside the view can do the same.
func (v *View) Reset() (fresh bool) {
	if v.ents != nil && max(len(v.ents), len(v.files), len(v.objs), len(v.blocks)) <= retain {
		clear(v.ents)
		clear(v.cols)
		clear(v.files)
		clear(v.objs)
		clear(v.blocks)
		return false
	}
	v.ents = make(map[name]Entry)
	v.cols = make(map[sobj.OID]colStat)
	v.files = make(map[sobj.OID]file)
	v.objs = make(map[sobj.OID]object)
	v.blocks = make(map[block]uint64)
	return true
}

// Apply stages op's effect. On the namespace, an insert binds op.Key in
// op.Target to child, a remove unbinds child from it, and a rename moves
// child from op.Key in op.Target to op.Key2 in op.Dir2; child is what the op
// binds or unbinds: the client passes op.Child, the service the child it
// checked. Each binding adds a link to its child's header and each unbinding
// takes one; a create marks its object created, and a set-attr stages the
// attrs word. On an mFile, an attach stages block op.Val's extent, a replace
// the single extent and its capacity, a set-size the size, and a truncate
// the size and the cut: blocks at or past ⌈op.Val/bs⌉ become holes. bs is
// the file's block size, 0 for a single-extent file, whose truncate only
// sets the size. Other ops stage nothing. The view keeps op's key bytes, so
// they must not change until Reset or Drop lets the entry go: the client
// stages the copy its key arena holds, which it reuses only once the view
// resets, and the service the batch's decoded keys.
func (v *View) Apply(op *fsproto.Op, child sobj.OID, bs uint64) {
	if v.ents == nil {
		v.Reset()
	}
	switch op.Code {
	case fsproto.OpInsert:
		v.set(op.Target, op.Key, Entry{Child: child, cover: op.CoverLock})
	case fsproto.OpRemove:
		v.set(op.Target, op.Key, Entry{Removed: true, cover: op.CoverLock, was: child})
	case fsproto.OpRename:
		v.set(op.Target, op.Key, Entry{Removed: true, cover: op.CoverLock, was: child})
		v.set(op.Dir2, op.Key2, Entry{Child: child, cover: op.Cover2})
	case fsproto.OpCreateObject, fsproto.OpSetAttr:
		o := v.objs[op.Target]
		o.cover, o.Created = op.CoverLock, o.Created || op.Code == fsproto.OpCreateObject
		if op.Code == fsproto.OpSetAttr && op.Val2&1 != 0 { // the attrs word, not the permission bits
			o.Attrs, o.Attred = op.Val, true
		}
		v.objs[op.Target] = o
	case fsproto.OpAttachExtent, fsproto.OpReplaceExt, fsproto.OpSetSize, fsproto.OpTruncate:
		v.applyFile(op, bs)
	}
}

// set stages e for key in col. A key staged for the first time held what
// the op requires of it: nothing for a binding, e.was for a removal. The
// service checks that before it stages; a client's counts trust it.
func (v *View) set(col sobj.OID, key []byte, e Entry) {
	k := name{col, unsafe.String(unsafe.SliceData(key), len(key))}
	if old, had := v.ents[k]; had {
		v.count(col, old, -1)
		e.was = old.was
	}
	v.count(col, e, 1)
	v.ents[k] = e
}

// count adds sign times e's share to its collection's counts and to the
// link counts of the child it binds and the one it unbound.
func (v *View) count(col sobj.OID, e Entry, sign int) {
	st := v.cols[col]
	st.n += sign
	if !e.Removed {
		st.bound += sign
		st.change += sign
		v.link(e.Child, sign)
	}
	if e.was != 0 {
		st.change -= sign
		v.link(e.was, -sign)
	}
	v.cols[col] = st
}

func (v *View) link(oid sobj.OID, n int) {
	o := v.objs[oid]
	o.Links += n
	v.objs[oid] = o
}

// applyFile stages a file op on op.Target (see Apply).
func (v *View) applyFile(op *fsproto.Op, bs uint64) {
	f, ok := v.files[op.Target]
	if !ok {
		f.cut = ^uint64(0)
	}
	f.cover = op.CoverLock
	switch op.Code {
	case fsproto.OpAttachExtent:
		k := block{op.Target, op.Val}
		if _, had := v.blocks[k]; !had {
			f.blocks++
		}
		v.blocks[k] = op.Val2
		f.Reshaped = true
	case fsproto.OpReplaceExt:
		f.Single, f.SingleCap, f.Reshaped = op.Val, op.Val2, true
	case fsproto.OpSetSize:
		f.Size, f.Sized = op.Val, true
	case fsproto.OpTruncate:
		f.Size, f.Sized = op.Val, true
		if bs == 0 {
			break
		}
		keep := op.Val / bs
		if op.Val%bs != 0 {
			keep++
		}
		f.cut = min(f.cut, keep)
		if f.blocks == 0 {
			break
		}
		for k := range v.blocks {
			if k.oid == op.Target && k.blk >= keep {
				delete(v.blocks, k)
				f.blocks--
			}
		}
	}
	v.files[op.Target] = f
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

// File returns what the staged ops did to mFile oid; nothing, if none.
func (v *View) File(oid sobj.OID) file { return v.files[oid] }

// Object returns what the staged ops did to oid's header; nothing, if none.
func (v *View) Object(oid sobj.OID) object { return v.objs[oid] }

// Block returns what the staged ops left at block blk of mFile oid: the
// extent staged there (a staged single-extent replacement answers for
// every block), or 0 for a hole a staged truncate cut, with staged true.
// staged false leaves the answer to SCM.
func (v *View) Block(oid sobj.OID, blk uint64) (ext uint64, staged bool) {
	f, ok := v.files[oid]
	switch {
	case !ok:
		return 0, false
	case f.Single != 0:
		return f.Single, true
	}
	if ext, ok := v.blocks[block{oid, blk}]; ok {
		return ext, true
	}
	return 0, blk >= f.cut
}

// Drop forgets every entry staged under cover with its link changes, and
// every file and header whose last staged op it covered: SCM shows them.
func (v *View) Drop(cover uint64) {
	for k, e := range v.ents {
		if e.cover != cover {
			continue
		}
		delete(v.ents, k)
		if v.count(k.col, e, -1); v.cols[k.col].n == 0 {
			delete(v.cols, k.col)
		}
	}
	for oid, o := range v.objs {
		if o.cover == cover {
			v.objs[oid] = object{Links: o.Links}
		}
	}
	blocks := false
	for oid, f := range v.files {
		if f.cover == cover {
			delete(v.files, oid)
			blocks = blocks || f.blocks > 0
		}
	}
	if !blocks {
		return
	}
	for k := range v.blocks {
		if _, ok := v.files[k.oid]; !ok {
			delete(v.blocks, k)
		}
	}
}
