package libfs

import (
	"errors"
	"fmt"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// Staged object creation and shadow-aware reads/writes. A client builds new
// objects directly in its pre-allocated extents (which it owns and may
// write), logs an OpCreateObject, and from then on observes the object
// through its shadows until the batch ships.

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

// ---- Directory (collection) operations through the shadow overlay ----

// maxColFree bounds the recycled directory overlays a session keeps, and
// the recycled file overlays.
const maxColFree = 64

func (s *Session) colShadow(dir sobj.OID) *colShadow {
	cs := s.colShadows[dir]
	if cs == nil {
		if n := len(s.colFree); n > 0 {
			cs = s.colFree[n-1]
			s.colFree = s.colFree[:n-1]
		} else {
			cs = &colShadow{ins: make(map[string]colIns), del: make(map[string]uint64)}
		}
		s.colShadows[dir] = cs
	}
	return cs
}

// freeColShadow empties a directory overlay no longer in colShadows and
// keeps it for reuse. Callers hold s.mu.
func (s *Session) freeColShadow(cs *colShadow) {
	if len(s.colFree) < maxColFree {
		clear(cs.ins)
		clear(cs.del)
		s.colFree = append(s.colFree, cs)
	}
}

// DirLookup resolves key in dir, seeing the client's own staged updates.
func (s *Session) DirLookup(dir sobj.OID, key []byte) (sobj.OID, bool, error) {
	s.mu.Lock()
	if cs := s.colShadows[dir]; cs != nil {
		if v, ok := cs.ins[string(key)]; ok {
			s.mu.Unlock()
			return v.oid, true, nil
		}
		if _, ok := cs.del[string(key)]; ok {
			s.mu.Unlock()
			return 0, false, nil
		}
	}
	s.mu.Unlock()
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
	op := fsproto.Op{
		Code: fsproto.OpInsert, Target: dir, Child: child,
		Key: append([]byte(nil), key...), CoverLock: coverLock,
	}
	return s.logOps(&op, nil, nil, func() { s.stageInsert(dir, key, child, coverLock) })
}

// stageInsert and stageRemove update a directory's overlay. Callers hold
// s.mu (they run as logOps stage functions).
func (s *Session) stageInsert(dir sobj.OID, key []byte, child sobj.OID, cover uint64) {
	cs := s.colShadow(dir)
	cs.ins[string(key)] = colIns{oid: child, cover: cover}
	delete(cs.del, string(key))
}

func (s *Session) stageRemove(dir sobj.OID, key []byte, cover uint64) {
	cs := s.colShadow(dir)
	delete(cs.ins, string(key))
	cs.del[string(key)] = cover
}

// DirRemove stages removal of key from dir under coverLock. involved
// optionally names the entry's resolved victim: the remove's server-side
// effects land on the victim's shard, which the op fields alone don't
// reveal, so sharded callers pass the OID their own lookup found.
func (s *Session) DirRemove(dir sobj.OID, key []byte, coverLock uint64, involved ...sobj.OID) error {
	// Crash before the remove is logged: the unlink never ships — it must
	// vanish cleanly with the client.
	if err := s.cfg.Faults.Hit("libfs.unlink"); err != nil {
		return err
	}
	op := fsproto.Op{
		Code: fsproto.OpRemove, Target: dir,
		Key: append([]byte(nil), key...), CoverLock: coverLock,
	}
	return s.logOps(&op, nil, involved, func() { s.stageRemove(dir, key, coverLock) })
}

// DirInsertFlat stages an insert covered by a FlatFS bucket lock: the
// no-grow flag tells the TFS to extend with overflow chains rather than
// rehash (which would invalidate bucket locks, §6.2).
func (s *Session) DirInsertFlat(dir sobj.OID, key []byte, child sobj.OID, bucketLock uint64) error {
	op := fsproto.Op{
		Code: fsproto.OpInsert, Target: dir, Child: child,
		Key: append([]byte(nil), key...), CoverLock: bucketLock, Val: 1,
	}
	return s.logOps(&op, nil, nil, func() { s.stageInsert(dir, key, child, bucketLock) })
}

// DirRemoveFlat stages a bucket-locked remove (no tombstone GC rehash).
// involved names the resolved victim, as in DirRemove.
func (s *Session) DirRemoveFlat(dir sobj.OID, key []byte, bucketLock uint64, involved ...sobj.OID) error {
	op := fsproto.Op{
		Code: fsproto.OpRemove, Target: dir,
		Key: append([]byte(nil), key...), CoverLock: bucketLock, Val: 1,
	}
	return s.logOps(&op, nil, involved, func() { s.stageRemove(dir, key, bucketLock) })
}

// DirRename stages an atomic move. involved optionally names an overwritten
// destination entry (its teardown lands on its own shard; see DirRemove).
// The op itself spells out both directories and the moved child, so a
// rename spanning shards routes to the cross-shard transaction path on its
// own.
func (s *Session) DirRename(srcDir sobj.OID, srcKey []byte, dstDir sobj.OID, dstKey []byte, child sobj.OID, coverSrc, coverDst uint64, involved ...sobj.OID) error {
	// The rename is one op in the local log, so a crash can only lose it
	// whole — the sweep asserts the entry is at exactly one of the names.
	if err := s.cfg.Faults.Hit("libfs.rename"); err != nil {
		return err
	}
	op := fsproto.Op{
		Code: fsproto.OpRename, Target: srcDir, Dir2: dstDir, Child: child,
		Key:       append([]byte(nil), srcKey...),
		Key2:      append([]byte(nil), dstKey...),
		CoverLock: coverSrc, Cover2: coverDst,
	}
	return s.logOps(&op, nil, involved, func() {
		s.stageRemove(srcDir, srcKey, coverSrc)
		s.stageInsert(dstDir, dstKey, child, coverDst)
	})
}

// StagedInserts reports how many inserts into dir are buffered but not yet
// shipped (FlatFS adds them to the live count when deciding whether the
// next insert could trigger a rehash).
func (s *Session) StagedInserts(dir sobj.OID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs := s.colShadows[dir]; cs != nil {
		return len(cs.ins)
	}
	return 0
}

// DirIterate walks dir's live entries merged with the staged overlay. fn
// sees the live entries inside a read section (ReadBarrier), so it must
// not call back into the session.
func (s *Session) DirIterate(dir sobj.OID, fn func(key []byte, val sobj.OID) error) error {
	s.mu.Lock()
	var ins map[string]sobj.OID
	var del map[string]bool
	if cs := s.colShadows[dir]; cs != nil {
		ins = make(map[string]sobj.OID, len(cs.ins))
		for k, v := range cs.ins {
			ins[k] = v.oid
		}
		del = make(map[string]bool, len(cs.del))
		for k := range cs.del {
			del[k] = true
		}
	}
	s.mu.Unlock()
	s.ReadBarrier()
	var col sobj.Collection
	err := col.Open(s.Mem, dir)
	if err == nil {
		err = col.Iterate(func(key []byte, val sobj.OID) error {
			if del[string(key)] {
				return nil
			}
			if _, staged := ins[string(key)]; staged {
				return nil // staged value wins below
			}
			return fn(key, val)
		})
	}
	s.ReadDone()
	if err != nil {
		return err
	}
	for k, v := range ins {
		if err := fn([]byte(k), v); err != nil {
			return err
		}
	}
	return nil
}

// ---- Shadow-aware file I/O ----

func (s *Session) fileShadow(oid sobj.OID, cover uint64) *fileShadow {
	sh := s.shadows[oid]
	if sh == nil {
		if n := len(s.fileFree); n > 0 {
			sh = s.fileFree[n-1]
			s.fileFree = s.fileFree[:n-1]
		} else {
			sh = &fileShadow{pendingExtents: make(map[uint64]uint64)}
		}
		s.shadows[oid] = sh
	}
	sh.cover = cover
	return sh
}

// freeFileShadow resets a file overlay no longer in shadows and keeps it,
// with its extent map, for reuse. Callers hold s.mu.
func (s *Session) freeFileShadow(sh *fileShadow) {
	if len(s.fileFree) < maxColFree {
		clear(sh.pendingExtents)
		*sh = fileShadow{pendingExtents: sh.pendingExtents}
		s.fileFree = append(s.fileFree, sh)
	}
}

// FileSize returns the file size the client observes (pending size wins).
func (s *Session) FileSize(oid sobj.OID) (uint64, error) {
	s.mu.Lock()
	if sh := s.shadows[oid]; sh != nil && sh.hasSize {
		n := sh.size
		s.mu.Unlock()
		return n, nil
	}
	s.mu.Unlock()
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
	op := fsproto.Op{Code: fsproto.OpSetSize, Target: oid, Val: n, CoverLock: coverLock,
		Key: append([]byte(nil), key...)}
	return s.logOps(&op, nil, nil, func() {
		sh := s.fileShadow(oid, coverLock)
		sh.size = n
		sh.hasSize = true
	})
}

// FileTruncate stages a shrink. Blocks beyond the cut become holes in the
// client's shadow: the extents currently mapped there (pending or applied)
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
	bs := uint64(1)
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
	var freshExt, freshBlk uint64
	hasFresh := false
	if tail := n % bs; !single && n < cur && tail != 0 {
		blk := n / bs
		ext, err := s.blockExtent(m, oid, blk, bs)
		if err != nil {
			return err
		}
		s.mu.Lock()
		pending := ext != 0 && s.shadows[oid] != nil && s.shadows[oid].pendingExtents[blk] == ext
		s.mu.Unlock()
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
			hasFresh = true
		}
	}
	stage := func() {
		sh := s.fileShadow(oid, coverLock)
		sh.size = n
		sh.hasSize = true
		if !single {
			keep := (n + bs - 1) / bs
			if !sh.hasHole || keep < sh.holeFrom {
				sh.hasHole = true
				sh.holeFrom = keep
			}
			for blk := range sh.pendingExtents {
				if blk >= keep {
					delete(sh.pendingExtents, blk)
				}
			}
			if hasFresh {
				sh.pendingExtents[freshBlk] = freshExt
			}
		}
	}
	if !hasFresh {
		op := fsproto.Op{Code: fsproto.OpTruncate, Target: oid, Val: truncTo, CoverLock: coverLock}
		return s.logOps(&op, nil, nil, stage)
	}
	// The copy-on-truncate triple must land in one batch: an auto-ship
	// between the boundary truncate and the attach would apply the
	// destructive truncate alone and clear the shadows, losing the kept
	// block's head bytes for readers now and, on a crash before the next
	// ship, durably.
	return s.logOps(nil, []fsproto.Op{
		{Code: fsproto.OpTruncate, Target: oid, Val: truncTo, CoverLock: coverLock},
		{Code: fsproto.OpAttachExtent, Target: oid, Val: freshBlk, Val2: freshExt, CoverLock: coverLock},
		{Code: fsproto.OpSetSize, Target: oid, Val: n, CoverLock: coverLock},
	}, nil, stage)
}

// blockExtent resolves a block through the shadow first, then the mFile.
// Staged truncates hide the mFile's extents beyond the cut (they are doomed
// to be freed when the batch applies).
func (s *Session) blockExtent(m *sobj.MFile, oid sobj.OID, blockIdx uint64, bs uint64) (uint64, error) {
	s.mu.Lock()
	if sh := s.shadows[oid]; sh != nil {
		if sh.pendingSingle != 0 {
			addr := sh.pendingSingle
			s.mu.Unlock()
			return addr, nil
		}
		if a, ok := sh.pendingExtents[blockIdx]; ok {
			s.mu.Unlock()
			return a, nil
		}
		if sh.hasHole && blockIdx >= sh.holeFrom {
			s.mu.Unlock()
			return 0, nil
		}
	}
	s.mu.Unlock()
	return m.ExtentFor(blockIdx * bs)
}

// readDirect copies len(dst) bytes at addr into dst through the protected
// mapping: from the zero-copy window when the mapping slices (one copy, SCM
// to application buffer), else via Read.
func (s *Session) readDirect(addr uint64, dst []byte) error {
	if s.sl != nil {
		b, err := s.sl.Slice(addr, len(dst))
		if err != nil {
			return err
		}
		copy(dst, b)
		return nil
	}
	return s.Mem.Read(addr, dst)
}

// FileRead reads through the shadow overlay: pending extents and pending
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
		ext, err := s.blockExtent(m, oid, 0, 1)
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
		ext, err := s.blockExtent(m, oid, blockIdx, bs)
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
		ext, err := s.blockExtent(m, oid, blockIdx, bs)
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
	op := fsproto.Op{
		Code: fsproto.OpAttachExtent, Target: oid,
		Val: blockIdx, Val2: ext, CoverLock: coverLock,
		Key: append([]byte(nil), key...),
	}
	if err := s.logOps(&op, nil, nil, func() {
		s.fileShadow(oid, coverLock).pendingExtents[blockIdx] = ext
	}); err != nil {
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
	sh := s.shadows[oid]
	var ext uint64
	if sh != nil && sh.pendingSingle != 0 {
		ext = sh.pendingSingle
		curCap = sh.singleCap
	}
	s.mu.Unlock()
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
		op := fsproto.Op{
			Code: fsproto.OpReplaceExt, Target: oid,
			Val: newExt, Val2: actualCap, CoverLock: coverLock,
			Key: append([]byte(nil), key...),
		}
		if err := s.logOps(&op, nil, nil, func() {
			sh := s.fileShadow(oid, coverLock)
			sh.pendingSingle = newExt
			sh.singleCap = actualCap
		}); err != nil {
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
