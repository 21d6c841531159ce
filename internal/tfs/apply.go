package tfs

import (
	"bytes"
	"errors"
	"fmt"
	"unsafe"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/wire"
)

// Journal actions: the low-level, idempotently re-appliable form that
// validated client operations are compiled into before being journaled
// (§5.3.6). Validation computes absolute values (reference counts, free
// lists) so replay after a crash is deterministic: re-applying any prefix
// or the whole batch yields the same state.
//
// The recovery invariant that makes replay safe: the journal is
// checkpointed after every applied commit GROUP (one record per batch,
// published together by a single fenced commit), so at most one group is
// ever replayed, and replay happens before any new allocation — a
// re-applied write can therefore never land in storage that was
// reallocated later. Replay is per record with the same idempotent-redo
// guards, so replaying several records of one group is no different from
// replaying one.
const (
	jInsert          uint8 = 1  // a collection insert: oid=col, key, child
	jRemove          uint8 = 2  // oid=col, key
	jSetRefcnt       uint8 = 3  // oid, a=count
	jSetParent       uint8 = 4  // oid, child=parent collection
	jAttach          uint8 = 5  // oid=mfile, a=blockIdx, b=extAddr
	jSetSize         uint8 = 6  // oid=mfile, a=size
	jTruncate        uint8 = 7  // oid=mfile, a=size
	jSetPerm         uint8 = 8  // oid, a=perm
	jSetAttrs        uint8 = 9  // oid, a=attrs
	jReplaceExt      uint8 = 10 // oid=mfile, a=newAddr, b=newCap
	jFree            uint8 = 11 // a=addr, b=size
	jPreallocAdd     uint8 = 12 // a=addr, b=size
	jPreallocConsume uint8 = 13 // a=addr, b&1 = no tombstone GC
	// Cross-shard transaction markers (shardset.go). jTxCommit rides the
	// coordinator's batch: applying it records the transaction outcome in
	// the coordinator's side-log. jTxResolve rides each participant's
	// resolve batch: applying it tombstones the shard's prepare record.
	// Both are idempotent against the side-log state, so redo replay of the
	// batches they ride re-reaches the same decision.
	jTxCommit  uint8 = 14 // a=txid
	jTxResolve uint8 = 15 // a=txid, b=coordinator shard
	// jFreeObj frees every extent of an unlinked object by walking it at
	// APPLY time, after earlier actions in the batch have run. The planner
	// emits it instead of a plan-time jFree list when the same batch also
	// attached or replaced extents on the object: the plan-time walk reads
	// SCM state that does not show those yet, so it would both miss the new
	// extents (leak) and free a replaced extent twice. Redo replay re-walks
	// the object — safe because frees are quarantined until the checkpoint
	// erases the batch, so the header stays intact for the walk.
	jFreeObj uint8 = 16 // oid=unlinked object
)

type action struct {
	code  uint8
	oid   sobj.OID
	child sobj.OID
	key   []byte
	a, b  uint64
}

// appendActions appends the journal record for acts to dst.
func appendActions(dst []byte, acts []action) []byte {
	w := wire.WriterOn(dst)
	w.U32(uint32(len(acts)))
	for i := range acts {
		ac := &acts[i]
		w.U8(ac.code)
		w.U64(uint64(ac.oid))
		w.U64(uint64(ac.child))
		w.Bytes32(ac.key)
		w.U64(ac.a)
		w.U64(ac.b)
	}
	return w.Bytes()
}

// recordFor encodes acts into the service's record buffer; the journal
// copies the record into the ring, so the buffer is free again once Append
// returns. Callers hold s.mu.
func (s *Service) recordFor(acts []action) []byte {
	s.recordBuf = appendActions(s.recordBuf[:0], acts)
	return s.recordBuf
}

func decodeActions(p []byte) ([]action, error) {
	r := wire.NewReader(p)
	n := r.U32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1<<22 {
		return nil, fmt.Errorf("tfs: implausible action count %d", n)
	}
	// Bound the preallocation by what the payload could possibly hold (an
	// encoded action is at least 37 bytes), so a corrupted count can't make
	// recovery allocate hundreds of megabytes before the first field read
	// fails.
	capHint := n
	if most := uint32(len(p)/37) + 1; most < capHint {
		capHint = most
	}
	acts := make([]action, 0, capHint)
	for i := uint32(0); i < n; i++ {
		var ac action
		ac.code = r.U8()
		ac.oid = sobj.OID(r.U64())
		ac.child = sobj.OID(r.U64())
		ac.key = append([]byte(nil), r.Bytes32()...)
		ac.a = r.U64()
		ac.b = r.U64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		acts = append(acts, ac)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return acts, nil
}

// tolerantAlloc skips double-free errors during journal replay.
type tolerantAlloc struct{ inner sobj.Allocator }

func (t tolerantAlloc) Alloc(size uint64) (uint64, error) { return t.inner.Alloc(size) }
func (t tolerantAlloc) Free(addr, size uint64) error {
	err := t.inner.Free(addr, size)
	if errors.Is(err, alloc.ErrBadFree) {
		return nil
	}
	return err
}

// deferFrees quarantines Free calls until after the journal checkpoint.
// Without it a batch that frees extent X while a later action in the same
// batch re-allocates X (a rehash table, an attached extent) makes the
// batch's jFree non-idempotent: a redo replay would see X's bitmap bit set
// and free a block that now holds live data. Deferral keeps freed blocks'
// bits set and off the volatile free lists until the checkpoint erases the
// batch, so a redo can only re-quarantine them. A crash between checkpoint
// and release leaks the quarantined blocks — the safe direction, which
// Fsck detects and repairs.
type deferFrees struct {
	inner sobj.Allocator
	ents  []struct{ addr, size uint64 }
}

func (d *deferFrees) Alloc(size uint64) (uint64, error) { return d.inner.Alloc(size) }

func (d *deferFrees) Free(addr, size uint64) error {
	d.ents = append(d.ents, struct{ addr, size uint64 }{addr, size})
	return nil
}

// freedBytes sums the quarantined frees' sizes — the space the batch gives
// back, credited to the batch's tenant once release performs the frees.
func (d *deferFrees) freedBytes() uint64 {
	var n uint64
	for _, e := range d.ents {
		n += e.size
	}
	return n
}

// release performs the quarantined frees. Double-frees are tolerated the
// same way replay tolerates them: the checkpointed batch is already
// durable, so a stale free must not fail the apply after the fact.
func (d *deferFrees) release() error {
	for _, e := range d.ents {
		if err := d.inner.Free(e.addr, e.size); err != nil && !errors.Is(err, alloc.ErrBadFree) {
			return err
		}
	}
	d.ents = d.ents[:0]
	return nil
}

// commitActions journals the batch and commits it. Callers hold s.mu.
// Payloads that could never fit — even into a freshly checkpointed journal —
// are rejected up front with typed fsproto.ErrBatchTooLarge, before any
// journal write or wasted checkpoint; the client must split the batch.
func (s *Service) commitActions(acts []action) error {
	if len(acts) == 0 {
		return nil
	}
	payload := s.recordFor(acts)
	if max := s.jl.MaxPayload(); uint64(len(payload)) > max {
		return fmt.Errorf("%w: %d-byte batch, journal fits %d",
			fsproto.ErrBatchTooLarge, len(payload), max)
	}
	if err := s.jl.Append(payload); err != nil {
		if errors.Is(err, journalFull) {
			if cerr := s.jl.Checkpoint(); cerr != nil {
				return cerr
			}
			err = s.jl.Append(payload)
		}
		if err != nil {
			return err
		}
	}
	if err := s.jl.Commit(); err != nil {
		// Nothing published: drop the staged record so the journal does
		// not accumulate dead bytes across rejected batches.
		s.jl.Abort()
		return err
	}
	return nil
}

// journalFull aliases the journal's full error for the retry path.
var journalFull = journalErrFull()

// applyAll applies a committed batch to its home locations and checkpoints
// the journal (upholding the one-batch recovery invariant). Apply-time
// allocations are served from the batch's admission reservation, so they
// cannot fail on space. The batch's performed frees are credited to tenant
// (recovery paths pass 0 — boot-time accounting starts empty anyway).
// Callers hold s.mu.
func (s *Service) applyAll(acts []action, allocator sobj.Allocator, tenant uint32) error {
	// The batch is committed; a crash anywhere between here and the
	// checkpoint replays it from the journal.
	if err := s.faults.Hit("tfs.apply.postcommit"); err != nil {
		return err
	}
	df := &s.df
	df.inner, df.ents = allocator, df.ents[:0]
	for i := range acts {
		if err := s.faults.Hit("tfs.apply.action"); err != nil {
			return err
		}
		if err := s.applyAction(acts, i, df, false); err != nil {
			return err
		}
	}
	if err := s.faults.Hit("tfs.apply.checkpoint"); err != nil {
		return err
	}
	if err := s.jl.Checkpoint(); err != nil {
		return err
	}
	freed := df.freedBytes()
	if err := df.release(); err != nil {
		return err
	}
	s.tenantCredit(tenant, freed)
	return nil
}

// applyAction applies acts[i] with the given allocator. With replay set,
// already-applied effects are skipped rather than failed (redo semantics).
//
// Redo of a logical action is only safe when its effect is testable: apply
// is strictly sequential, so the applied actions always form a prefix of
// the batch. The replay guards exploit that — if any LATER action in the
// batch for the same object has verifiably taken effect, this earlier one
// must already have run and is skipped. Without the guards a replayed
// jTruncate would re-prune (and free) an extent that a later jAttach in
// the same batch had attached, leaving a reachable-but-free block, and a
// replayed jRemove would delete a later re-insert under the same key.
func (s *Service) applyAction(acts []action, i int, allocator sobj.Allocator, replay bool) error {
	ac := &acts[i]
	switch ac.code {
	case jInsert:
		var col sobj.Collection
		if err := col.Open(s.mem, ac.oid); err != nil {
			return err
		}
		if replay {
			// Redo-replay must be allocation-idempotent. Insert grows
			// the table before it discovers a duplicate, so replaying
			// an already-applied insert could trigger a rehash the
			// original apply never performed; probe first and skip.
			switch val, lerr := col.Lookup(ac.key); {
			case lerr == nil && val == ac.child:
				return nil
			case lerr != nil && !errors.Is(lerr, sobj.ErrNotFound):
				return lerr
			}
		}
		var err error
		if ac.a&1 != 0 {
			err = col.InsertNoGrow(allocator, ac.key, ac.child)
		} else {
			err = col.Insert(allocator, ac.key, ac.child)
		}
		if errors.Is(err, sobj.ErrExists) {
			return nil // idempotent redo
		}
		return err
	case jRemove:
		var col sobj.Collection
		if err := col.Open(s.mem, ac.oid); err != nil {
			return err
		}
		if replay {
			skip, perr := laterInsertApplied(&col, acts, i)
			if perr != nil {
				return perr
			}
			if skip {
				return nil
			}
		}
		var err error
		if ac.a&1 != 0 {
			err = col.RemoveNoGC(allocator, ac.key)
		} else {
			err = col.Remove(allocator, ac.key)
		}
		if errors.Is(err, sobj.ErrNotFound) {
			return nil
		}
		return err
	case jSetRefcnt:
		l := s.set.hdr.of(ac.oid)
		l.Lock()
		defer l.Unlock()
		return sobj.SetRefcnt(s.mem, ac.oid, uint32(ac.a))
	case jSetParent:
		l := s.set.hdr.of(ac.oid)
		l.Lock()
		defer l.Unlock()
		return sobj.SetParent(s.mem, ac.oid, ac.child)
	case jAttach:
		var m sobj.MFile
		if err := m.Open(s.mem, ac.oid); err != nil {
			return err
		}
		err := m.AttachExtent(allocator, ac.a, ac.b)
		if errors.Is(err, sobj.ErrExists) {
			return nil
		}
		return err
	case jSetSize:
		var m sobj.MFile
		if err := m.Open(s.mem, ac.oid); err != nil {
			return err
		}
		return m.SetSize(ac.a)
	case jTruncate:
		var m sobj.MFile
		if err := m.Open(s.mem, ac.oid); err != nil {
			return err
		}
		if replay {
			skip, perr := laterFileOpApplied(&m, acts, i)
			if perr != nil {
				return perr
			}
			if skip {
				return nil
			}
		}
		return m.TruncatePruneOnly(allocator, ac.a)
	case jSetPerm:
		l := s.set.hdr.of(ac.oid)
		l.Lock()
		defer l.Unlock()
		return sobj.SetPerm(s.mem, ac.oid, uint32(ac.a))
	case jSetAttrs:
		l := s.set.hdr.of(ac.oid)
		l.Lock()
		defer l.Unlock()
		return sobj.SetAttrs(s.mem, ac.oid, ac.a)
	case jReplaceExt:
		var m sobj.MFile
		if err := m.Open(s.mem, ac.oid); err != nil {
			return err
		}
		cur, err := m.ExtentFor(0)
		if err != nil {
			return err
		}
		if cur == ac.a {
			return nil // already swapped (redo)
		}
		return m.ReplaceSingleExtent(allocator, ac.a, ac.b)
	case jFree:
		err := allocator.Free(ac.a, ac.b)
		if errors.Is(err, alloc.ErrBadFree) {
			return nil
		}
		return err
	case jFreeObj:
		// Walk the unlinked object NOW — earlier actions in this batch
		// (attaches, extent replacements) have applied, so the walk sees
		// the final extent set the plan-time view could not.
		exts, err := s.objectExtents(ac.oid)
		if err != nil {
			return err
		}
		for _, e := range exts {
			if err := allocator.Free(e.Addr, e.Size); err != nil && !errors.Is(err, alloc.ErrBadFree) {
				return err
			}
		}
		return nil
	case jPreallocAdd:
		if replay {
			// Same allocation-idempotence probe as jInsert.
			switch val, lerr := s.preCol.Lookup(s.addrKey(ac.a)); {
			case lerr == nil && uint64(val) == ac.b:
				return nil
			case lerr != nil && !errors.Is(lerr, sobj.ErrNotFound):
				return lerr
			}
		}
		err := s.preCol.Insert(allocator, s.addrKey(ac.a), sobj.OID(ac.b))
		if errors.Is(err, sobj.ErrExists) {
			return nil
		}
		return err
	case jPreallocConsume:
		if replay {
			// Same later-action evidence as jRemove, against the
			// pre-allocation tracking collection.
			for j := i + 1; j < len(acts); j++ {
				if acts[j].code != jPreallocAdd || acts[j].a != ac.a {
					continue
				}
				switch val, lerr := s.preCol.Lookup(s.addrKey(ac.a)); {
				case lerr == nil && uint64(val) == acts[j].b:
					return nil
				case lerr != nil && !errors.Is(lerr, sobj.ErrNotFound):
					return lerr
				}
			}
		}
		var err error
		if ac.b&1 != 0 {
			err = s.preCol.RemoveNoGC(allocator, s.addrKey(ac.a))
		} else {
			err = s.preCol.Remove(allocator, s.addrKey(ac.a))
		}
		if errors.Is(err, sobj.ErrNotFound) {
			return nil
		}
		return err
	case jTxCommit:
		return s.txOutcome(ac.a)
	case jTxResolve:
		return s.txTombstone(ac.a, uint32(ac.b))
	}
	return fmt.Errorf("tfs: unknown journal action %d", ac.code)
}

// laterInsertApplied reports whether a jInsert later in the batch with the
// same collection and key as acts[i] has already taken effect. Apply is
// strictly sequential, so a later applied action proves acts[i] ran too.
func laterInsertApplied(col *sobj.Collection, acts []action, i int) (bool, error) {
	for j := i + 1; j < len(acts); j++ {
		if acts[j].code != jInsert || acts[j].oid != acts[i].oid || !bytes.Equal(acts[j].key, acts[i].key) {
			continue
		}
		val, err := col.Lookup(acts[i].key)
		if err == nil && val == acts[j].child {
			return true, nil
		}
		if err != nil && !errors.Is(err, sobj.ErrNotFound) {
			return false, err
		}
	}
	return false, nil
}

// laterFileOpApplied reports whether a later extent-shaping action in the
// batch on the same file as acts[i] has already taken effect (see
// laterInsertApplied for why that proves acts[i] ran).
func laterFileOpApplied(m *sobj.MFile, acts []action, i int) (bool, error) {
	for j := i + 1; j < len(acts); j++ {
		if acts[j].oid != acts[i].oid {
			continue
		}
		switch acts[j].code {
		case jAttach:
			cur, err := m.ExtentAtBlock(acts[j].a)
			if err != nil {
				return false, err
			}
			if cur != 0 && cur == acts[j].b {
				return true, nil
			}
		case jReplaceExt:
			cur, err := m.ExtentFor(0)
			if err != nil {
				return false, err
			}
			if cur != 0 && cur == acts[j].a {
				return true, nil
			}
		}
	}
	return false, nil
}

// overlay tracks the state the batch will have produced so far, so later
// ops in the same batch validate against the effects of earlier ones. One
// overlay per service is reset for every plan (callers hold s.mu); its
// maps keep their room from batch to batch.
type overlay struct {
	parents  map[sobj.OID]sobj.OID
	refcnts  map[sobj.OID]uint32
	created  map[sobj.OID]bool
	consumed map[uint64]bool
	// attached marks objects whose extent set this batch changes (attach
	// or replace). An unlink later in the same batch cannot plan its frees
	// from SCM state — it does not show those changes yet — so it must
	// defer the walk to apply time (jFreeObj). Without the marker the
	// append-then-rotate pattern (grow a log, delete it, all one batch)
	// leaks every appended extent.
	attached map[sobj.OID]bool
	// names holds the directory entries the batch inserted or removed so
	// far. A key's string is the batch's own decoded key bytes, which are
	// not written again before the next reset clears the map, so nothing
	// is copied.
	names map[ovNameKey]ovName
}

type ovNameKey struct {
	dir sobj.OID
	key string
}

type ovName struct {
	child   sobj.OID
	removed bool
}

// retainOps bounds the overlay's maps kept from batch to batch: after a
// batch that touched more directory entries they are made afresh.
const retainOps = 1 << 10

// reset empties the overlay for the next batch. Clearing a map costs its
// capacity, so after an unusually large batch the maps are made afresh.
func (ov *overlay) reset() {
	if ov.parents == nil || len(ov.names) > retainOps {
		ov.parents = make(map[sobj.OID]sobj.OID)
		ov.refcnts = make(map[sobj.OID]uint32)
		ov.created = make(map[sobj.OID]bool)
		ov.consumed = make(map[uint64]bool)
		ov.attached = make(map[sobj.OID]bool)
		ov.names = make(map[ovNameKey]ovName)
	}
	clear(ov.parents)
	clear(ov.refcnts)
	clear(ov.created)
	clear(ov.consumed)
	clear(ov.attached)
	clear(ov.names)
}

// nameKey views key as the map key for (dir, key) without copying it.
func nameKey(dir sobj.OID, key []byte) ovNameKey {
	return ovNameKey{dir, unsafe.String(unsafe.SliceData(key), len(key))}
}

// note records that the batch binds (removed false) or unbinds (removed
// true) key in dir.
func (ov *overlay) note(dir sobj.OID, key []byte, child sobj.OID, removed bool) {
	ov.names[nameKey(dir, key)] = ovName{child, removed}
}

func (ov *overlay) refcnt(s *Service, oid sobj.OID) (uint32, error) {
	if n, ok := ov.refcnts[oid]; ok {
		return n, nil
	}
	if ov.created[oid] {
		return 0, nil
	}
	l := s.set.hdr.of(oid)
	l.RLock()
	h, err := sobj.ReadHeader(s.mem, oid)
	l.RUnlock()
	if err != nil {
		return 0, err
	}
	return h.Refcnt, nil
}

func (ov *overlay) parent(s *Service, oid sobj.OID) (sobj.OID, error) {
	if p, ok := ov.parents[oid]; ok {
		return p, nil
	}
	if ov.created[oid] {
		return 0, nil
	}
	l := s.set.hdr.of(oid)
	l.RLock()
	h, err := sobj.ReadHeader(s.mem, oid)
	l.RUnlock()
	if err != nil {
		return 0, err
	}
	return h.Parent, nil
}

// lookup resolves key in a collection through the overlay.
func (ov *overlay) lookup(s *Service, dir sobj.OID, key []byte) (sobj.OID, bool, error) {
	if n, ok := ov.names[nameKey(dir, key)]; ok {
		return n.child, !n.removed, nil
	}
	var col sobj.Collection
	if err := col.Open(s.mem, dir); err != nil {
		return 0, false, err
	}
	v, err := col.Lookup(key)
	if errors.Is(err, sobj.ErrNotFound) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return v, true, nil
}

func (ov *overlay) noteInsert(dir sobj.OID, key []byte, val sobj.OID) { ov.note(dir, key, val, false) }

func (ov *overlay) noteRemove(dir sobj.OID, key []byte) { ov.note(dir, key, 0, true) }

// holdsCover validates the paper's lock rule (§5.3.5): the client must hold
// a write lock covering the modified object — the object's own lock, or a
// hierarchical write lock on an ancestor. Objects linked into more than one
// collection (refcnt > 1) must be locked explicitly (§5.3.4's membership
// protocol). Objects created in this batch are covered implicitly: nothing
// else can reach them.
func (s *Service) holdsCover(client uint64, target sobj.OID, coverLock uint64, ov *overlay) error {
	return s.holdsCoverKeyed(client, target, nil, coverLock, ov)
}

// holdsCoverKeyed additionally accepts FlatFS's fine-grained bucket locks
// (§6.2): a TypeBucket cover is valid when the client holds it exclusively,
// holds the collection's intent-write lock, and the cover is exactly the
// bucket lock for key in that collection. For file objects, key must bind
// the target into the collection.
func (s *Service) holdsCoverKeyed(client uint64, target sobj.OID, key []byte, coverLock uint64, ov *overlay) error {
	if ov.created[target] {
		return nil
	}
	if sobj.OID(coverLock).Type() == sobj.TypeBucket {
		return s.holdsBucketCover(client, target, key, coverLock, ov)
	}
	if coverLock == target.Lock() {
		if held, _ := s.set.Locks.Holds(client, coverLock, lockX); held {
			return nil
		}
		return fmt.Errorf("%w: %v", ErrLockCover, target)
	}
	held, hier := s.set.Locks.Holds(client, coverLock, lockX)
	if !held || !hier {
		return fmt.Errorf("%w: cover %#x not held hierarchically", ErrLockCover, coverLock)
	}
	refcnt, err := ov.refcnt(s, target)
	if err != nil {
		return err
	}
	if refcnt > 1 {
		return fmt.Errorf("%w: %v has %d links, explicit lock required", ErrLockCover, target, refcnt)
	}
	// Walk ancestors looking for the cover.
	cur := target
	for depth := 0; depth < 64; depth++ {
		p, err := ov.parent(s, cur)
		if err != nil {
			return err
		}
		if p == 0 {
			break
		}
		if p.Lock() == coverLock {
			return nil
		}
		cur = p
	}
	return fmt.Errorf("%w: cover %#x is not an ancestor of %v", ErrLockCover, coverLock, target)
}

func (s *Service) holdsBucketCover(client uint64, target sobj.OID, key []byte, coverLock uint64, ov *overlay) error {
	var col sobj.OID
	if target.Type() == sobj.TypeCollection {
		col = target
	} else {
		p, err := ov.parent(s, target)
		if err != nil {
			return err
		}
		if p.Type() != sobj.TypeCollection {
			return fmt.Errorf("%w: %v has no collection parent", ErrLockCover, target)
		}
		col = p
		// key must bind the target into the collection.
		v, ok, err := ov.lookup(s, col, key)
		if err != nil {
			return err
		}
		if !ok || v != target {
			return fmt.Errorf("%w: key %q does not name %v", ErrLockCover, key, target)
		}
	}
	if held, _ := s.set.Locks.Holds(client, coverLock, lockX); !held {
		return fmt.Errorf("%w: bucket lock %#x not held", ErrLockCover, coverLock)
	}
	if held, _ := s.set.Locks.Holds(client, col.Lock(), lockIX); !held {
		return fmt.Errorf("%w: intent lock on %v not held", ErrLockCover, col)
	}
	var c sobj.Collection
	if err := c.Open(s.mem, col); err != nil {
		return err
	}
	bl, err := c.BucketLock(key)
	if err != nil {
		return err
	}
	if bl != coverLock {
		return fmt.Errorf("%w: %#x is not the bucket lock for %q", ErrLockCover, coverLock, key)
	}
	return nil
}

// plan validates ops sequentially and compiles them into journal actions
// plus volatile side effects (open-file bookkeeping; the other volatile
// effect, prealloc consumption, is read off the actions by runEffects),
// appended to acts[:0] and effects[:0] — the batch's own buffers. Callers
// hold s.mu.
func (s *Service) plan(client uint64, ops []fsproto.Op, acts []action, effects []func()) ([]action, []func(), error) {
	ov := &s.ov
	ov.reset()
	// Most ops compile to two or three actions; sized once, the list does
	// not regrow op by op.
	acts, effects = acts[:0], effects[:0]
	if cap(acts) < 3*len(ops) {
		acts = make([]action, 0, 3*len(ops))
	}

	// consume takes one pre-allocated extent for a staged structure that
	// declares size bytes. The declared size is what Destroy and fsck later
	// free and mark, so it must name exactly the block that was
	// pre-allocated: a larger one would free or overrun neighbours, a
	// smaller one would leak the rest.
	consume := func(addr uint64, size uint64) error {
		got, ok := s.preallocSize(client, addr)
		if !ok || ov.consumed[addr] {
			return fmt.Errorf("%w: %#x", ErrNotPrealloc, addr)
		}
		if want := alloc.BlockSize(alloc.OrderFor(size)); got != want {
			return fmt.Errorf("%w: %#x is %d bytes, declared %d", ErrNotPrealloc, addr, got, want)
		}
		ov.consumed[addr] = true
		acts = append(acts, action{code: jPreallocConsume, a: addr})
		return nil
	}

	// unlink handles the refcnt decrement of a removed/overwritten child.
	unlink := func(child sobj.OID) error {
		refcnt, err := ov.refcnt(s, child)
		if err != nil {
			return err
		}
		if refcnt > 0 {
			refcnt--
		}
		ov.refcnts[child] = refcnt
		if refcnt > 0 {
			acts = append(acts, action{code: jSetRefcnt, oid: child, a: uint64(refcnt)})
			return nil
		}
		// Last link gone. Open files survive until closed (§6.1). The
		// registration lives on the child's owning shard, which may not be
		// the planning shard inside a cross-shard transaction.
		osf, err := s.openStateFor(child)
		if err != nil {
			return err
		}
		if os := osf; os != nil && os.opens > 0 {
			effects = append(effects, func() { os.unlinked = true })
			acts = append(acts, action{code: jSetRefcnt, oid: child, a: 0})
			return nil
		}
		// Empty-directory invariant.
		if child.Type() == sobj.TypeCollection {
			var col sobj.Collection
			if err := col.Open(s.mem, child); err != nil {
				return err
			}
			n, err := col.Count()
			if err != nil {
				return err
			}
			if n > 0 {
				return fmt.Errorf("%w: removing non-empty collection %v", ErrValidation, child)
			}
		}
		if ov.attached[child] {
			// This batch already changed the object's extent set; the
			// SCM walk below would miss (or double-free) those extents.
			acts = append(acts, action{code: jFreeObj, oid: child})
			return nil
		}
		exts, err := s.objectExtents(child)
		if err != nil {
			return err
		}
		for _, e := range exts {
			acts = append(acts, action{code: jFree, a: e.Addr, b: e.Size})
		}
		return nil
	}

	for i := range ops {
		op := &ops[i]
		switch op.Code {
		case fsproto.OpCreateObject:
			if err := s.planCreate(op, ov, consume); err != nil {
				return nil, nil, err
			}
		case fsproto.OpInsert:
			if err := s.requireCollection(op.Target, ov); err != nil {
				return nil, nil, err
			}
			if err := s.holdsCoverKeyed(client, op.Target, op.Key, op.CoverLock, ov); err != nil {
				return nil, nil, err
			}
			if len(op.Key) == 0 || len(op.Key) > sobj.MaxKeyLen {
				return nil, nil, fmt.Errorf("%w: bad key length %d", ErrValidation, len(op.Key))
			}
			if _, err := s.validObject(op.Child, ov); err != nil {
				return nil, nil, err
			}
			if _, exists, err := ov.lookup(s, op.Target, op.Key); err != nil {
				return nil, nil, err
			} else if exists {
				return nil, nil, fmt.Errorf("%w: key %q exists", ErrValidation, op.Key)
			}
			refcnt, err := ov.refcnt(s, op.Child)
			if err != nil {
				return nil, nil, err
			}
			refcnt++
			ov.refcnts[op.Child] = refcnt
			acts = append(acts, action{code: jInsert, oid: op.Target, key: op.Key, child: op.Child, a: op.Val & 1})
			acts = append(acts, action{code: jSetRefcnt, oid: op.Child, a: uint64(refcnt)})
			if refcnt == 1 {
				acts = append(acts, action{code: jSetParent, oid: op.Child, child: op.Target})
				ov.parents[op.Child] = op.Target
			}
			ov.noteInsert(op.Target, op.Key, op.Child)
		case fsproto.OpRemove:
			if err := s.requireCollection(op.Target, ov); err != nil {
				return nil, nil, err
			}
			if err := s.holdsCoverKeyed(client, op.Target, op.Key, op.CoverLock, ov); err != nil {
				return nil, nil, err
			}
			child, exists, err := ov.lookup(s, op.Target, op.Key)
			if err != nil {
				return nil, nil, err
			}
			if !exists {
				return nil, nil, fmt.Errorf("%w: key %q not found", ErrValidation, op.Key)
			}
			acts = append(acts, action{code: jRemove, oid: op.Target, key: op.Key, a: op.Val & 1})
			ov.noteRemove(op.Target, op.Key)
			if err := unlink(child); err != nil {
				return nil, nil, err
			}
		case fsproto.OpRename:
			if err := s.planRename(client, op, ov, &acts, unlink); err != nil {
				return nil, nil, err
			}
		case fsproto.OpAttachExtent:
			m, err := s.requireMFile(op.Target, ov)
			if err != nil {
				return nil, nil, err
			}
			if err := s.holdsCoverKeyed(client, op.Target, op.Key, op.CoverLock, ov); err != nil {
				return nil, nil, err
			}
			bs, err := m.BlockSize()
			if err != nil {
				return nil, nil, err
			}
			if err := consume(op.Val2, bs); err != nil {
				return nil, nil, err
			}
			acts = append(acts, action{code: jAttach, oid: op.Target, a: op.Val, b: op.Val2})
			ov.attached[op.Target] = true
		case fsproto.OpSetSize:
			if _, err := s.requireMFile(op.Target, ov); err != nil {
				return nil, nil, err
			}
			if err := s.holdsCoverKeyed(client, op.Target, op.Key, op.CoverLock, ov); err != nil {
				return nil, nil, err
			}
			acts = append(acts, action{code: jSetSize, oid: op.Target, a: op.Val})
		case fsproto.OpTruncate:
			if _, err := s.requireMFile(op.Target, ov); err != nil {
				return nil, nil, err
			}
			if err := s.holdsCover(client, op.Target, op.CoverLock, ov); err != nil {
				return nil, nil, err
			}
			acts = append(acts, action{code: jTruncate, oid: op.Target, a: op.Val})
		case fsproto.OpSetAttr:
			if _, err := s.validObject(op.Target, ov); err != nil {
				return nil, nil, err
			}
			if err := s.holdsCoverKeyed(client, op.Target, op.Key, op.CoverLock, ov); err != nil {
				return nil, nil, err
			}
			code := jSetPerm
			if op.Val2&1 != 0 {
				code = jSetAttrs
			}
			acts = append(acts, action{code: code, oid: op.Target, a: op.Val})
		case fsproto.OpReplaceExt:
			m, err := s.requireMFile(op.Target, ov)
			if err != nil {
				return nil, nil, err
			}
			if single, _ := m.IsSingle(); !single {
				return nil, nil, fmt.Errorf("%w: replace-extent on radix mFile", ErrValidation)
			}
			if err := s.holdsCoverKeyed(client, op.Target, op.Key, op.CoverLock, ov); err != nil {
				return nil, nil, err
			}
			if op.Val2 < scm.PageSize {
				return nil, nil, fmt.Errorf("%w: single extent of %d bytes, below a page", ErrValidation, op.Val2)
			}
			if err := consume(op.Val, op.Val2); err != nil {
				return nil, nil, err
			}
			acts = append(acts, action{code: jReplaceExt, oid: op.Target, a: op.Val, b: op.Val2})
			ov.attached[op.Target] = true
		default:
			return nil, nil, fmt.Errorf("%w: op %d", ErrValidation, op.Code)
		}
	}
	return acts, effects, nil
}

// runEffects performs an applied batch's volatile side effects: every
// extent a jPreallocConsume consumed leaves the client's pool, then the
// planner's closures run. The tracking entry lives on the shard that
// allocated the extent — under a cross-shard transaction that may not be
// the planning shard, so the deletion routes to the owner (dropPrealloc).
func (s *Service) runEffects(client uint64, acts []action, effects []func()) {
	for i := range acts {
		if acts[i].code == jPreallocConsume {
			s.dropPrealloc(client, acts[i].a)
		}
	}
	for _, fn := range effects {
		fn()
	}
}

// planCreate validates a client-staged object: its header must already be
// a valid flushed object of the claimed type, and every extent it declares
// — head, table, overflow, radix nodes, data — must be exactly one of the
// client's pre-allocated extents. The sizes are client-written; sobj's
// walk bounds them (a table's bucket count, a radix file's extent log, a
// single extent's page minimum) and consume holds each to its
// pre-allocation.
func (s *Service) planCreate(op *fsproto.Op, ov *overlay, consume func(addr, size uint64) error) error {
	oid := op.Target
	h, err := sobj.ReadHeader(s.mem, oid)
	if err != nil {
		return fmt.Errorf("%w: staged object invalid: %v", ErrValidation, err)
	}
	if h.Refcnt != 0 {
		return fmt.Errorf("%w: staged object has refcnt %d", ErrValidation, h.Refcnt)
	}
	exts, err := s.objectExtents(oid)
	if err != nil {
		return err
	}
	for _, e := range exts {
		if err := consume(e.Addr, e.Size); err != nil {
			return err
		}
	}
	ov.created[oid] = true
	return nil
}

// planRename validates an atomic move (§6.1: write locks on both directory
// collections; rename must not create namespace cycles).
func (s *Service) planRename(client uint64, op *fsproto.Op, ov *overlay, acts *[]action, unlink func(sobj.OID) error) error {
	if err := s.requireCollection(op.Target, ov); err != nil {
		return err
	}
	if err := s.requireCollection(op.Dir2, ov); err != nil {
		return err
	}
	if err := s.holdsCover(client, op.Target, op.CoverLock, ov); err != nil {
		return err
	}
	if err := s.holdsCover(client, op.Dir2, op.Cover2, ov); err != nil {
		return err
	}
	child, exists, err := ov.lookup(s, op.Target, op.Key)
	if err != nil {
		return err
	}
	if !exists {
		return fmt.Errorf("%w: rename source %q not found", ErrValidation, op.Key)
	}
	if len(op.Key2) == 0 || len(op.Key2) > sobj.MaxKeyLen {
		return fmt.Errorf("%w: bad rename destination key", ErrValidation)
	}
	// Cycle check: moving a collection under one of its own descendants
	// would orphan the subtree (§5.3.5).
	if child.Type() == sobj.TypeCollection {
		cur := op.Dir2
		for depth := 0; depth < 64; depth++ {
			if cur == child {
				return ErrCycle
			}
			p, err := ov.parent(s, cur)
			if err != nil {
				return err
			}
			if p == 0 {
				break
			}
			cur = p
		}
	}
	// Overwrite semantics: an existing destination entry is unlinked.
	if old, exists, err := ov.lookup(s, op.Dir2, op.Key2); err != nil {
		return err
	} else if exists {
		if old == child {
			return fmt.Errorf("%w: rename onto the same object", ErrValidation)
		}
		*acts = append(*acts, action{code: jRemove, oid: op.Dir2, key: op.Key2})
		ov.noteRemove(op.Dir2, op.Key2)
		if err := unlink(old); err != nil {
			return err
		}
	}
	*acts = append(*acts, action{code: jRemove, oid: op.Target, key: op.Key})
	ov.noteRemove(op.Target, op.Key)
	*acts = append(*acts, action{code: jInsert, oid: op.Dir2, key: op.Key2, child: child})
	ov.noteInsert(op.Dir2, op.Key2, child)
	*acts = append(*acts, action{code: jSetParent, oid: child, child: op.Dir2})
	ov.parents[child] = op.Dir2
	return nil
}

func (s *Service) requireCollection(oid sobj.OID, ov *overlay) error {
	if oid.Type() != sobj.TypeCollection {
		return fmt.Errorf("%w: %v is not a collection", ErrValidation, oid)
	}
	_, err := sobj.ReadHeader(s.mem, oid)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrValidation, err)
	}
	return nil
}

// requireMFile returns the handle by value: it lives in the planner's frame
// for the one op that asked for it.
func (s *Service) requireMFile(oid sobj.OID, ov *overlay) (sobj.MFile, error) {
	if oid.Type() != sobj.TypeMFile {
		return sobj.MFile{}, fmt.Errorf("%w: %v is not an mFile", ErrValidation, oid)
	}
	var m sobj.MFile
	if err := m.Open(s.mem, oid); err != nil {
		return sobj.MFile{}, fmt.Errorf("%w: %v", ErrValidation, err)
	}
	return m, nil
}

func (s *Service) validObject(oid sobj.OID, ov *overlay) (sobj.Header, error) {
	h, err := sobj.ReadHeader(s.mem, oid)
	if err != nil {
		return sobj.Header{}, fmt.Errorf("%w: %v", ErrValidation, err)
	}
	return h, nil
}

// objectExtents enumerates an object's extents for deterministic frees.
// The list is the service's scratch, valid until the next call. Callers
// hold s.mu.
func (s *Service) objectExtents(oid sobj.OID) ([]sobj.Extent, error) {
	var err error
	switch oid.Type() {
	case sobj.TypeCollection:
		var c sobj.Collection
		if err := c.Open(s.mem, oid); err != nil {
			return nil, err
		}
		s.extBuf, err = c.Extents(s.extBuf[:0])
	case sobj.TypeMFile:
		var m sobj.MFile
		if err := m.Open(s.mem, oid); err != nil {
			return nil, err
		}
		s.extBuf, err = m.Extents(s.extBuf[:0])
	default:
		return nil, fmt.Errorf("%w: extents of %v", ErrValidation, oid)
	}
	if err != nil {
		return nil, err
	}
	return s.extBuf, nil
}
