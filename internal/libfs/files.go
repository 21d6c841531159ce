package libfs

import (
	"errors"
	"fmt"
	"unsafe"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/stage"
)

// Staged object creation and shadow-aware reads/writes. A client builds new
// objects directly in its pre-allocated extents (which it owns and may
// write), logs an OpCreateObject, and from then on observes the object
// through the session's staged view until the batch ships.

// CreateCollectionStaged builds a collection client-side on the given shard
// and logs its creation — the placement layer picks the shard, and the
// object's storage (hence the OID) lands inside that shard's partition.
func (s *Session) CreateCollectionStaged(shardID int, perm uint32) (sobj.OID, error) {
	col, err := sobj.CreateCollection(s.Mem, s.stagingAllocator(shardID), perm)
	if err != nil {
		return 0, err
	}
	return s.logCreate(col.OID())
}

// CreateMFileStaged builds a radix-tree mFile client-side on the given shard
// and logs its creation.
func (s *Session) CreateMFileStaged(shardID int, perm uint32, extentLog uint32) (sobj.OID, error) {
	m, err := sobj.CreateMFile(s.Mem, s.stagingAllocator(shardID), perm, extentLog)
	if err != nil {
		return 0, err
	}
	return s.logCreate(m.OID())
}

// CreateMFileSingleStaged builds a single-extent mFile (FlatFS files)
// client-side on the given shard and logs its creation.
func (s *Session) CreateMFileSingleStaged(shardID int, perm uint32, capacity uint64) (sobj.OID, error) {
	m, err := sobj.CreateMFileSingle(s.Mem, s.stagingAllocator(shardID), perm, capacity)
	if err != nil {
		return 0, err
	}
	return s.logCreate(m.OID())
}

func (s *Session) logCreate(oid sobj.OID) (sobj.OID, error) {
	if err := s.LogOp(fsproto.Op{Code: fsproto.OpCreateObject, Target: oid}); err != nil {
		return 0, err
	}
	return oid, nil
}

// ---- Directory (collection) operations through the staged view ----

// DirLookup resolves key in dir, seeing the client's own staged updates.
func (s *Session) DirLookup(dir sobj.OID, key []byte) (sobj.OID, bool, error) {
	s.mu.Lock()
	e, staged := s.view.Lookup(dir, key)
	s.mu.Unlock()
	if staged {
		return e.Child, !e.Removed, nil
	}
	s.ReadBarrier()
	defer s.ReadDone()
	var col sobj.Collection
	if err := col.Open(s.Mem, dir); err != nil {
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

// DirInsert stages key -> child in dir under coverLock.
func (s *Session) DirInsert(dir sobj.OID, key []byte, child sobj.OID, coverLock uint64) error {
	return s.logOps(&fsproto.Op{Code: fsproto.OpInsert, Target: dir, Child: child, Key: key, CoverLock: coverLock}, nil)
}

// DirRemove stages removal of key, which binds victim, from dir under
// coverLock. The TFS refuses a remove whose victim the key does not bind.
func (s *Session) DirRemove(dir sobj.OID, key []byte, victim sobj.OID, coverLock uint64) error {
	// Crash before the remove is logged: the unlink never ships — it must
	// vanish cleanly with the client.
	if err := s.cfg.Faults.Hit("libfs.unlink"); err != nil {
		return err
	}
	return s.logOps(&fsproto.Op{Code: fsproto.OpRemove, Target: dir, Child: victim, Key: key, CoverLock: coverLock}, nil)
}

// DirInsertFlat stages an insert covered by a FlatFS bucket lock: the
// no-grow flag tells the TFS to extend with overflow chains rather than
// rehash (which would invalidate bucket locks, §6.2).
func (s *Session) DirInsertFlat(dir sobj.OID, key []byte, child sobj.OID, bucketLock uint64) error {
	return s.logOps(&fsproto.Op{Code: fsproto.OpInsert, Target: dir, Child: child, Key: key, CoverLock: bucketLock, Val: 1}, nil)
}

// DirRemoveFlat stages a bucket-locked remove (no tombstone GC rehash) of
// key, which binds victim.
func (s *Session) DirRemoveFlat(dir sobj.OID, key []byte, victim sobj.OID, bucketLock uint64) error {
	return s.logOps(&fsproto.Op{Code: fsproto.OpRemove, Target: dir, Child: victim, Key: key, CoverLock: bucketLock, Val: 1}, nil)
}

// DirRename stages an atomic move of child. victim, when not 0, is what
// dstKey binds now: its remove and the rename are one group. The ops spell
// out every object they touch, so a rename spanning shards routes to the
// cross-shard transaction path on its own.
func (s *Session) DirRename(srcDir sobj.OID, srcKey []byte, dstDir sobj.OID, dstKey []byte, child, victim sobj.OID, coverSrc, coverDst uint64) error {
	// The rename is one group in the local log, so a crash can only lose it
	// whole — the sweep asserts the entry is at exactly one of the names.
	if err := s.cfg.Faults.Hit("libfs.rename"); err != nil {
		return err
	}
	ren := fsproto.Op{
		Code: fsproto.OpRename, Target: srcDir, Dir2: dstDir, Child: child,
		Key: srcKey, Key2: dstKey, CoverLock: coverSrc, Cover2: coverDst,
	}
	if victim == 0 {
		return s.logOps(&ren, nil)
	}
	return s.logOps(nil, []fsproto.Op{{Code: fsproto.OpRemove, Target: dstDir, Child: victim, Key: ren.Key2, CoverLock: coverDst}, ren})
}

// StagedInserts reports how many keys of dir are bound by buffered, not yet
// shipped ops (FlatFS adds them to the live count when deciding whether the
// next insert could trigger a rehash).
func (s *Session) StagedInserts(dir sobj.OID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, n, _ := s.view.Counts(dir)
	return n
}

// DirIterate walks dir's live entries merged with the staged view. fn sees
// the live entries inside a read section (ReadBarrier), so it must not call
// back into the session.
func (s *Session) DirIterate(dir sobj.OID, fn func(key []byte, val sobj.OID) error) error {
	// A snapshot of dir's staged entries, taken only when there are any: the
	// view may change once s.mu drops, and its keys are the key arena's,
	// which a Sync made by fn may reuse: they are copied, into one buffer.
	var staged map[string]stage.Entry
	s.mu.Lock()
	if _, _, n := s.view.Counts(dir); n > 0 {
		staged = make(map[string]stage.Entry, n)
		size := 0
		s.view.Dir(dir, func(key string, _ stage.Entry) { size += len(key) })
		buf := make([]byte, 0, size)
		s.view.Dir(dir, func(key string, e stage.Entry) {
			buf = append(buf, key...)
			staged[unsafe.String(unsafe.SliceData(buf[len(buf)-len(key):]), len(key))] = e
		})
	}
	s.mu.Unlock()
	s.ReadBarrier()
	var col sobj.Collection
	err := col.Open(s.Mem, dir)
	if err == nil {
		err = col.Iterate(func(key []byte, val sobj.OID) error {
			if _, ok := staged[string(key)]; ok {
				return nil // removed, or the staged value wins below
			}
			return fn(key, val)
		})
	}
	s.ReadDone()
	if err != nil {
		return err
	}
	for k, e := range staged {
		if e.Removed {
			continue
		}
		if err := fn([]byte(k), e.Child); err != nil {
			return err
		}
	}
	return nil
}

// Header returns oid's header as the client observes it: the stored header
// with the link-count change and attrs word its own staged ops left. The
// read section keeps a batch of the session from applying between the two.
func (s *Session) Header(oid sobj.OID) (sobj.Header, error) {
	s.ReadBarrier()
	h, err := sobj.ReadHeader(s.Mem, oid)
	s.mu.Lock()
	o := s.view.Object(oid)
	s.mu.Unlock()
	s.ReadDone()
	h.Refcnt = uint32(int(h.Refcnt) + o.Links)
	if o.Attred {
		h.Attrs = o.Attrs
	}
	return h, err
}

// ---- Shadow-aware file I/O ----

// FileSize returns the file size the client observes (pending size wins).
func (s *Session) FileSize(oid sobj.OID) (uint64, error) {
	s.mu.Lock()
	f := s.view.File(oid)
	s.mu.Unlock()
	if f.Sized {
		return f.Size, nil
	}
	s.ReadBarrier()
	defer s.ReadDone()
	m, err := sobj.OpenMFile(s.Mem, oid)
	if err != nil {
		return 0, err
	}
	return m.Size()
}

// FileSetSize stages a logical size change under coverLock.
func (s *Session) FileSetSize(oid sobj.OID, n uint64, coverLock uint64) error {
	return s.FileSetSizeKeyed(oid, n, coverLock, nil)
}

// FileSetSizeKeyed is FileSetSize for bucket-locked FlatFS files: key binds
// the file into its collection for the TFS's cover check.
func (s *Session) FileSetSizeKeyed(oid sobj.OID, n uint64, coverLock uint64, key []byte) error {
	return s.logOps(&fsproto.Op{Code: fsproto.OpSetSize, Target: oid, Val: n, CoverLock: coverLock, Key: key}, nil)
}

// FileTruncate stages a shrink. Blocks beyond the cut become holes in the
// session's view: the extents currently mapped there (pending or applied)
// will be freed when the TFS applies the truncate, so later writes must
// stage fresh extents rather than write through soon-to-be-freed storage.
//
// When the cut lands mid-block, the bytes beyond it in the kept block must
// read as zeros afterwards. Zeroing has to happen on the client and under
// the batch's ordering: the TFS cannot zero at apply time, because a later
// write in the same batch may already have refilled those bytes in place
// (data writes never go through the op log). Nor may the client zero
// committed storage directly — an unshipped truncate must not destroy
// durable data. So: an extent staged in this batch (invisible until
// commit) is zeroed in place; a committed extent gets a copy-on-truncate
// replacement — the truncate is staged down to the block boundary, a fresh
// extent carrying the head bytes with a zeroed tail is attached in its
// place, and the logical size is set last.
func (s *Session) FileTruncate(oid sobj.OID, n uint64, coverLock uint64) error {
	m, err := sobj.OpenMFile(s.Mem, oid)
	if err != nil {
		return err
	}
	single, err := m.IsSingle()
	if err != nil {
		return err
	}
	var bs uint64 // 0 for a single-extent file: its truncate cuts no block
	if !single {
		if bs, err = m.BlockSize(); err != nil {
			return err
		}
	}
	cur, err := s.FileSize(oid)
	if err != nil {
		return err
	}
	truncTo := n
	var freshExt, freshBlk uint64 // the copy-on-truncate block, if any
	if !single && n < cur && n%bs != 0 {
		blk, tail := n/bs, n%bs
		ext, pending, err := s.blockExtent(m, oid, blk)
		if err != nil {
			return err
		}
		switch {
		case ext == 0:
			// Hole: already reads as zeros.
		case pending:
			if err := scm.Zero(s.Mem, ext+tail, int(bs-tail)); err != nil {
				return err
			}
			if err := s.Mem.Flush(ext+tail, int(bs-tail)); err != nil {
				return err
			}
		default:
			head := make([]byte, tail)
			if _, err := s.FileRead(oid, head, blk*bs); err != nil {
				return err
			}
			fresh, err := s.AllocStaged(s.ShardOf(oid), bs)
			if err != nil {
				return err
			}
			if err := scm.Zero(s.Mem, fresh, int(bs)); err != nil {
				return err
			}
			if err := s.Mem.Write(fresh, head); err != nil {
				return err
			}
			if err := s.Mem.Flush(fresh, int(bs)); err != nil {
				return err
			}
			truncTo = blk * bs
			freshExt, freshBlk = fresh, blk
		}
	}
	// The truncate carries the block size to the session's view (logOps);
	// the TFS reads its own.
	trunc := fsproto.Op{Code: fsproto.OpTruncate, Target: oid, Val: truncTo, Val2: bs, CoverLock: coverLock}
	if freshExt == 0 {
		return s.logOps(&trunc, nil)
	}
	// The copy-on-truncate triple must land in one batch: an auto-ship
	// between the boundary truncate and the attach would apply the
	// destructive truncate alone and reset the view, losing the kept
	// block's head bytes for readers now and, on a crash before the next
	// ship, durably.
	return s.logOps(nil, []fsproto.Op{
		trunc,
		{Code: fsproto.OpAttachExtent, Target: oid, Val: freshBlk, Val2: freshExt, CoverLock: coverLock},
		{Code: fsproto.OpSetSize, Target: oid, Val: n, CoverLock: coverLock},
	})
}

// blockExtent resolves a block through the staged view first (staged),
// then the mFile. Staged truncates hide the mFile's extents beyond the cut
// (they are doomed to be freed when the batch applies). The TFS checks an
// attach with the same lookup.
func (s *Session) blockExtent(m *sobj.MFile, oid sobj.OID, blockIdx uint64) (ext uint64, staged bool, err error) {
	s.mu.Lock()
	ext, staged = s.view.Block(oid, blockIdx)
	s.mu.Unlock()
	if !staged {
		ext, err = m.ExtentAtBlock(blockIdx)
	}
	return ext, staged, err
}

// readDirect copies len(dst) bytes at addr into dst from the protected
// mapping's zero-copy window: one copy, SCM to application buffer.
func (s *Session) readDirect(addr uint64, dst []byte) error {
	b, err := s.Mem.Slice(addr, len(dst))
	if err != nil {
		return err
	}
	copy(dst, b)
	return nil
}

// FileRead reads through the staged view: pending extents and pending
// size are visible to this client before the batch ships.
func (s *Session) FileRead(oid sobj.OID, p []byte, off uint64) (int, error) {
	m, err := sobj.OpenMFile(s.Mem, oid)
	if err != nil {
		return 0, err
	}
	size, err := s.FileSize(oid)
	if err != nil {
		return 0, err
	}
	if off >= size {
		return 0, nil
	}
	if off+uint64(len(p)) > size {
		p = p[:size-off]
	}
	single, err := m.IsSingle()
	if err != nil {
		return 0, err
	}
	if single {
		ext, _, err := s.blockExtent(m, oid, 0)
		if err != nil {
			return 0, err
		}
		if ext == 0 {
			for i := range p {
				p[i] = 0
			}
			return len(p), nil
		}
		if err := s.readDirect(ext+off, p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	bs, err := m.BlockSize()
	if err != nil {
		return 0, err
	}
	read := 0
	for read < len(p) {
		cur := off + uint64(read)
		blockIdx := cur / bs
		inBlock := cur % bs
		chunk := int(bs - inBlock)
		if chunk > len(p)-read {
			chunk = len(p) - read
		}
		ext, _, err := s.blockExtent(m, oid, blockIdx)
		if err != nil {
			return read, err
		}
		dst := p[read : read+chunk]
		if ext == 0 {
			for i := range dst {
				dst[i] = 0
			}
		} else if err := s.readDirect(ext+inBlock, dst); err != nil {
			return read, err
		}
		read += chunk
	}
	return read, nil
}

// FileWrite writes p at off, extending the file as needed: holes and
// appends take extents from the pre-allocated pool, are written directly,
// and their attachment is logged for the TFS to verify and link (§5.3.5 —
// the server only verifies each allocation and attaches each extent rather
// than allocating and writing itself). Size growth is staged too.
func (s *Session) FileWrite(oid sobj.OID, p []byte, off uint64, coverLock uint64) (int, error) {
	return s.FileWriteKeyed(oid, p, off, coverLock, nil)
}

// FileWriteKeyed is FileWrite for bucket-locked FlatFS files.
func (s *Session) FileWriteKeyed(oid sobj.OID, p []byte, off uint64, coverLock uint64, key []byte) (int, error) {
	// A crash anywhere in the write sequence (before/between extent
	// staging, data flush, and the size op) leaves staged extents and a
	// partial local log the TFS never sees; scavenging reclaims them.
	if err := s.cfg.Faults.Hit("libfs.write"); err != nil {
		return 0, err
	}
	m, err := sobj.OpenMFile(s.Mem, oid)
	if err != nil {
		return 0, err
	}
	single, err := m.IsSingle()
	if err != nil {
		return 0, err
	}
	if single {
		return s.singleWrite(m, oid, p, off, coverLock, key)
	}
	bs, err := m.BlockSize()
	if err != nil {
		return 0, err
	}
	written := 0
	for written < len(p) {
		cur := off + uint64(written)
		blockIdx := cur / bs
		inBlock := cur % bs
		chunk := int(bs - inBlock)
		if chunk > len(p)-written {
			chunk = len(p) - written
		}
		ext, _, err := s.blockExtent(m, oid, blockIdx)
		if err != nil {
			return written, err
		}
		if ext == 0 {
			ext, err = s.stageExtent(oid, blockIdx, bs, chunk == int(bs), coverLock, key)
			if err != nil {
				return written, err
			}
		}
		if err := scm.WriteFlush(s.Mem, ext+inBlock, p[written:written+chunk]); err != nil {
			return written, err
		}
		written += chunk
	}
	end := off + uint64(len(p))
	size, err := s.FileSize(oid)
	if err != nil {
		return written, err
	}
	if end > size {
		if err := s.FileSetSizeKeyed(oid, end, coverLock, key); err != nil {
			return written, err
		}
	}
	return written, nil
}

// stageExtent allocates, zeroes (when partially covered), and stages an
// extent for blockIdx.
func (s *Session) stageExtent(oid sobj.OID, blockIdx, bs uint64, fullCover bool, coverLock uint64, key []byte) (uint64, error) {
	if err := s.cfg.Faults.Hit("libfs.stage.extent"); err != nil {
		return 0, err
	}
	ext, err := s.AllocStaged(s.ShardOf(oid), bs)
	if err != nil {
		return 0, err
	}
	if !fullCover {
		if err := scm.Zero(s.Mem, ext, int(bs)); err != nil {
			return 0, err
		}
		if err := s.Mem.Flush(ext, int(bs)); err != nil {
			return 0, err
		}
	}
	if err := s.logOps(&fsproto.Op{
		Code: fsproto.OpAttachExtent, Target: oid,
		Val: blockIdx, Val2: ext, CoverLock: coverLock, Key: key,
	}, nil); err != nil {
		return 0, err
	}
	return ext, nil
}

// singleWrite handles FlatFS-style single-extent files, growing by staging
// a replacement extent when the write exceeds the current capacity.
func (s *Session) singleWrite(m *sobj.MFile, oid sobj.OID, p []byte, off uint64, coverLock uint64, key []byte) (int, error) {
	curExt, curCap, err := m.SingleExtent()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	f := s.view.File(oid)
	s.mu.Unlock()
	ext := f.Single
	if ext != 0 {
		curCap = f.SingleCap
	}
	need := off + uint64(len(p))
	if need > curCap {
		// Stage a larger replacement extent carrying the old contents.
		newCap := curCap * 2
		if newCap < need {
			newCap = need
		}
		newExt, err := s.AllocStaged(s.ShardOf(oid), newCap)
		if err != nil {
			return 0, err
		}
		size, err := s.FileSize(oid)
		if err != nil {
			return 0, err
		}
		buf := make([]byte, size)
		if _, err := s.FileRead(oid, buf, 0); err != nil {
			return 0, err
		}
		if err := scm.Zero(s.Mem, newExt, int(newCap)); err != nil {
			return 0, err
		}
		if len(buf) > 0 {
			if err := s.Mem.Write(newExt, buf); err != nil {
				return 0, err
			}
		}
		if err := s.Mem.Flush(newExt, int(newCap)); err != nil {
			return 0, err
		}
		actualCap := alloc.BlockSize(alloc.OrderFor(newCap))
		if err := s.logOps(&fsproto.Op{
			Code: fsproto.OpReplaceExt, Target: oid,
			Val: newExt, Val2: actualCap, CoverLock: coverLock, Key: key,
		}, nil); err != nil {
			return 0, err
		}
		ext = newExt
	} else if ext == 0 {
		ext = curExt
		if ext == 0 {
			return 0, fmt.Errorf("libfs: single-extent file with no extent")
		}
	}
	if err := scm.WriteFlush(s.Mem, ext+off, p); err != nil {
		return 0, err
	}
	size, err := s.FileSize(oid)
	if err != nil {
		return 0, err
	}
	if need > size {
		if err := s.FileSetSizeKeyed(oid, need, coverLock, key); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}
