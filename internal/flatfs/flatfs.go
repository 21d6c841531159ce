// Package flatfs implements FlatFS (§6.2): a specialized file-system
// interface for applications that store many small files in one directory
// (mail stores, proxy caches, wikis). It replaces the hierarchical
// namespace with a single flat collection mapping keys to single-extent
// mFiles, and replaces open/read/write/close with put/get/erase — a get or
// put locates the file and copies it in a single operation, with no open-
// file state.
//
// Locking (§6.2): a single lock covers the whole collection and
// fine-grained locks cover the hash-table buckets. Operations take the
// collection lock in intent mode (IS for get, IX for put/erase) plus the
// bucket lock (S or X) for their key, so independent keys proceed in
// parallel — the scalability fix for PXFS's single-directory bottleneck.
// An operation that would rehash the table (growth or tombstone GC)
// escalates to the whole-collection write lock first, because a rehash
// moves every bucket.
//
// FlatFS and PXFS share the same layout: the flat namespace is an ordinary
// collection (by default the volume root), which PXFS sees as a single
// global directory (§6.2 Discussion).
package flatfs

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/shard"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// Errors.
var (
	ErrNotFound = errors.New("flatfs: key not found")
	ErrBadKey   = errors.New("flatfs: bad key")
)

// Options tunes a FlatFS instance.
type Options struct {
	// Namespace is the flat collection; zero means the volume root.
	Namespace sobj.OID
	// Perm is the mode for created files (all FlatFS files share
	// permissions, §6.2); default 0644.
	Perm uint32
	// GrowHeadroom is how close to the rehash threshold the table may get
	// before writes escalate to the whole-collection lock (default 8).
	GrowHeadroom uint32
}

// FS is a FlatFS client instance.
type FS struct {
	s    *libfs.Session
	ns   sobj.OID
	opts Options

	// Escalations counts writes that took the whole-collection lock. It is
	// bumped by concurrent Puts, hence atomic.
	Escalations atomic.Int64

	// Metrics resolved once in New; all nil when observability is off.
	obsSink  *obs.Sink
	obsOp    *obs.Histogram
	obsPut   *obs.Histogram
	obsGet   *obs.Histogram
	obsErase *obs.Histogram
}

// New creates a FlatFS view over session s.
func New(s *libfs.Session, opts Options) *FS {
	if opts.Namespace == 0 {
		opts.Namespace = s.Root
	}
	if opts.Perm == 0 {
		opts.Perm = 0644
	}
	if opts.GrowHeadroom == 0 {
		opts.GrowHeadroom = 8
	}
	fs := &FS{s: s, ns: opts.Namespace, opts: opts}
	sink := s.Obs()
	fs.obsSink = sink
	fs.obsOp = sink.Histogram("flatfs.op")
	fs.obsPut = sink.Histogram("flatfs.op.put")
	fs.obsGet = sink.Histogram("flatfs.op.get")
	fs.obsErase = sink.Histogram("flatfs.op.erase")
	return fs
}

// observe records one completed operation (see pxfs.FS.observe for the
// defer idiom; disabled observability makes this a single branch).
func (fs *FS) observe(op string, h *obs.Histogram, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	d := time.Since(t0)
	h.Observe(int64(d))
	fs.obsOp.Observe(int64(d))
	fs.obsSink.Trace("flatfs", op, t0, d)
}

// Session returns the underlying libFS session.
func (fs *FS) Session() *libfs.Session { return fs.s }

// Namespace returns the flat collection's OID (shard 0's on a sharded
// volume; see nsFor).
func (fs *FS) Namespace() sobj.OID { return fs.ns }

// nsFor returns the namespace collection holding key. On a sharded volume
// using the default (root) namespace, keys hash across the shards' root
// collections — every operation on a key is then a single-shard batch on
// that key's shard, and independent keys on different shards contend on
// nothing at all. A custom namespace lives on one shard and is used as-is.
func (fs *FS) nsFor(key []byte) sobj.OID {
	if n := fs.s.Shards(); n > 1 && fs.opts.Namespace == fs.s.Root {
		return fs.s.ShardRoot(shard.Bucket(key, n))
	}
	return fs.ns
}

// namespaces lists every collection this instance stores keys in.
func (fs *FS) namespaces() []sobj.OID {
	n := fs.s.Shards()
	if n <= 1 || fs.opts.Namespace != fs.s.Root {
		return []sobj.OID{fs.ns}
	}
	out := make([]sobj.OID, n)
	for i := range out {
		out[i] = fs.s.ShardRoot(i)
	}
	return out
}

func checkKey(key string) error {
	if key == "" || len(key) > sobj.MaxKeyLen {
		return fmt.Errorf("%w: %d bytes", ErrBadKey, len(key))
	}
	return nil
}

// lockWrite acquires the locks for a mutating operation: normally the
// collection intent-write lock plus the key's bucket lock in write mode;
// when the table is near a rehash, the whole-collection write lock
// (hierarchical, so it covers the files too).
func (fs *FS) lockWrite(ns sobj.OID, key []byte) (cover uint64, keyArg []byte, unlock func(), err error) {
	// The grow check and bucket-lock derivation walk the live table; with a
	// pipelined window our own earlier batches may be mid-apply into it.
	fs.s.ReadBarrier()
	col, err := sobj.OpenCollection(fs.s.Mem, ns)
	if err != nil {
		return 0, nil, nil, err
	}
	grow, err := col.NeedsGrow(fs.opts.GrowHeadroom + uint32(fs.s.StagedInserts(ns)))
	if err != nil {
		return 0, nil, nil, err
	}
	nsLock := ns.Lock()
	if grow {
		fs.Escalations.Add(1)
		if err := fs.s.Clerk.Acquire(nsLock, lockservice.X, true); err != nil {
			return 0, nil, nil, err
		}
		return nsLock, nil, func() { fs.s.Clerk.Release(nsLock, lockservice.X) }, nil
	}
	if err := fs.s.Clerk.Acquire(nsLock, lockservice.IX, false); err != nil {
		return 0, nil, nil, err
	}
	// The bucket lock is derived from the current table, which cannot
	// move while we hold IX (a rehash needs X).
	bl, err := col.BucketLock(key)
	if err != nil {
		fs.s.Clerk.Release(nsLock, lockservice.IX)
		return 0, nil, nil, err
	}
	if err := fs.s.Clerk.Acquire(bl, lockservice.X, false); err != nil {
		fs.s.Clerk.Release(nsLock, lockservice.IX)
		return 0, nil, nil, err
	}
	return bl, key, func() {
		fs.s.Clerk.Release(bl, lockservice.X)
		fs.s.Clerk.Release(nsLock, lockservice.IX)
	}, nil
}

// Put stores data under key, creating or overwriting the file in a single
// operation.
func (fs *FS) Put(key string, data []byte) error {
	defer fs.observe("put", fs.obsPut, fs.obsOp.StartTimer())
	if err := checkKey(key); err != nil {
		return err
	}
	kb := []byte(key)
	ns := fs.nsFor(kb)
	cover, keyArg, unlock, err := fs.lockWrite(ns, kb)
	if err != nil {
		return err
	}
	defer unlock()
	oid, found, err := fs.s.DirLookup(ns, kb)
	if err != nil {
		return err
	}
	if found {
		if len(data) > 0 {
			if _, err := fs.s.FileWriteKeyed(oid, data, 0, cover, keyArg); err != nil {
				return err
			}
		}
		// Overwrite semantics: the file is exactly data.
		return fs.s.FileSetSizeKeyed(oid, uint64(len(data)), cover, keyArg)
	}
	capacity := uint64(len(data))
	if capacity < 64 {
		capacity = 64
	}
	// The file is staged on its namespace's shard, so the create+write+
	// insert triple stays a single-shard batch.
	oid, err = fs.s.CreateMFileSingleStaged(fs.s.ShardOf(ns), fs.opts.Perm, capacity)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := fs.s.FileWriteKeyed(oid, data, 0, cover, keyArg); err != nil {
			return err
		}
	}
	if keyArg != nil {
		return fs.s.DirInsertFlat(ns, kb, oid, cover)
	}
	return fs.s.DirInsert(ns, kb, oid, cover)
}

// Get returns the contents stored under key as a fresh buffer. Prefer
// GetInto on hot paths: the paper's get copies the file directly into an
// application buffer (§6.2), and allocating per call costs more than the
// copy itself.
func (fs *FS) Get(key string) ([]byte, error) {
	return fs.GetInto(key, nil)
}

// GetInto returns the contents stored under key, reusing buf's storage when
// it is large enough: locate the file in memory and copy it to the
// application's buffer in one operation (§6.2).
func (fs *FS) GetInto(key string, buf []byte) ([]byte, error) {
	defer fs.observe("get", fs.obsGet, fs.obsOp.StartTimer())
	if err := checkKey(key); err != nil {
		return nil, err
	}
	kb := []byte(key)
	ns := fs.nsFor(kb)
	nsLock := ns.Lock()
	if err := fs.s.Clerk.Acquire(nsLock, lockservice.IS, false); err != nil {
		return nil, err
	}
	defer fs.s.Clerk.Release(nsLock, lockservice.IS)
	fs.s.ReadBarrier() // bucket derivation reads the live table
	col, err := sobj.OpenCollection(fs.s.Mem, ns)
	if err != nil {
		return nil, err
	}
	bl, err := col.BucketLock(kb)
	if err != nil {
		return nil, err
	}
	if err := fs.s.Clerk.Acquire(bl, lockservice.S, false); err != nil {
		return nil, err
	}
	defer fs.s.Clerk.Release(bl, lockservice.S)
	oid, found, err := fs.s.DirLookup(ns, kb)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	size, err := fs.s.FileSize(oid)
	if err != nil {
		return nil, err
	}
	if uint64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := fs.s.FileRead(oid, buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// Erase removes key and reclaims its file's storage.
func (fs *FS) Erase(key string) error {
	defer fs.observe("erase", fs.obsErase, fs.obsOp.StartTimer())
	if err := checkKey(key); err != nil {
		return err
	}
	kb := []byte(key)
	ns := fs.nsFor(kb)
	cover, keyArg, unlock, err := fs.lockWrite(ns, kb)
	if err != nil {
		return err
	}
	defer unlock()
	victim, found, err := fs.s.DirLookup(ns, kb)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if keyArg != nil {
		return fs.s.DirRemoveFlat(ns, kb, cover, victim)
	}
	return fs.s.DirRemove(ns, kb, cover, victim)
}

// Has reports whether key exists.
func (fs *FS) Has(key string) (bool, error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	kb := []byte(key)
	_, found, err := fs.s.DirLookup(fs.nsFor(kb), kb)
	return found, err
}

// Keys lists all keys (whole-namespace read lock, per shard namespace).
func (fs *FS) Keys() ([]string, error) {
	var keys []string
	for _, ns := range fs.namespaces() {
		nsLock := ns.Lock()
		if err := fs.s.Clerk.Acquire(nsLock, lockservice.S, false); err != nil {
			return nil, err
		}
		err := fs.s.DirIterate(ns, func(key []byte, _ sobj.OID) error {
			keys = append(keys, string(key))
			return nil
		})
		fs.s.Clerk.Release(nsLock, lockservice.S)
		if err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// Count returns the number of stored keys (live entries plus this client's
// staged inserts).
func (fs *FS) Count() (int, error) {
	n := 0
	for _, ns := range fs.namespaces() {
		if err := fs.s.DirIterate(ns, func([]byte, sobj.OID) error {
			n++
			return nil
		}); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Sync ships buffered metadata updates.
func (fs *FS) Sync() error { return fs.s.Sync() }

// Statfs reports volume-wide space and object accounting: total and free
// bytes, bytes held by in-flight admission reservations, and the live
// object count.
func (fs *FS) Statfs() (fsproto.StatfsReply, error) { return fs.s.Statfs() }
