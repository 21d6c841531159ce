// Package pxfs implements PXFS (§6.1): a POSIX-style file-system interface
// built entirely in the untrusted libFS library on Aerie's storage objects.
// Files are mFiles with page-sized extents, directories are collections
// organized into a tree under the volume root, and a per-client in-memory
// path-name cache accelerates absolute-path resolution (flushed whenever a
// global lock leaves the client, §6.1's conservative consistency rule).
//
// Locking protocol. Every object is protected by its own lock (its OID).
// Path resolution takes read locks on each directory collection; namespace
// modifications upgrade the affected directory to a write lock; an open
// file holds its mFile's lock (read or write) until close. Rename takes
// both directory locks in OID order to avoid deadlocks. The clerk caches
// grants, so repeated access by one process stays local.
//
// Unlink-while-open follows the paper: a client notifies the TFS that a
// file is open when it would otherwise lose track of it (on unlink, and
// when a lock revocation ships its state away); the TFS keeps the storage
// until the last registered close.
package pxfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/shard"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// Open flags (a subset of POSIX).
const (
	O_RDONLY = 0x0
	O_RDWR   = 0x2
	O_CREATE = 0x40
	O_TRUNC  = 0x200
	O_APPEND = 0x400
)

// Errors.
var (
	ErrNotExist  = errors.New("pxfs: no such file or directory")
	ErrExist     = errors.New("pxfs: file exists")
	ErrNotDir    = errors.New("pxfs: not a directory")
	ErrIsDir     = errors.New("pxfs: is a directory")
	ErrNotEmpty  = errors.New("pxfs: directory not empty")
	ErrPerm      = errors.New("pxfs: permission denied")
	ErrBadPath   = errors.New("pxfs: bad path")
	ErrReadOnly  = errors.New("pxfs: file not open for writing")
	ErrClosed    = errors.New("pxfs: file closed")
	ErrCrossesFS = errors.New("pxfs: rename across file systems")
)

// Options tunes a PXFS instance.
type Options struct {
	// NameCache enables the per-client absolute-path cache (§7.3.1).
	// PXFS-NNC in the paper's tables is this flag turned off.
	NameCache bool
	// CacheLimit bounds the name cache (default 65536 entries).
	CacheLimit int
	// ExtentLog is log2 of the data-extent size for new files (default
	// 12, the paper's page-sized extents). The paper observes that an
	// extent layout like ext4's would improve PXFS's large writes
	// (§7.2.2); larger extents are that optimization — fewer attach
	// operations and radix levels per megabyte, at the cost of internal
	// fragmentation for small files.
	ExtentLog uint32
}

// FS is a PXFS client instance over a libFS session.
type FS struct {
	s    *libfs.Session
	opts Options

	mu        sync.Mutex
	nameCache map[string]sobj.OID
	open      map[sobj.OID]openEntry
	cwd       sobj.OID
	cwdPath   string

	// Stats, written under mu.
	CacheHits    int64
	CacheMisses  int64
	CacheFlush   int64
	CacheEvicted int64

	// Metrics resolved once in New from the session's sink; all nil (free
	// no-ops) when observability is off. obsOp aggregates every operation;
	// the per-op histograms split it for the breakdown tables.
	obsSink     *obs.Sink
	obsOp       *obs.Histogram
	obsOpen     *obs.Histogram
	obsClose    *obs.Histogram
	obsRead     *obs.Histogram
	obsWrite    *obs.Histogram
	obsTruncate *obs.Histogram
	obsMkdir    *obs.Histogram
	obsRmdir    *obs.Histogram
	obsUnlink   *obs.Histogram
	obsRename   *obs.Histogram
	obsStat     *obs.Histogram
	obsReadDir  *obs.Histogram
	obsChmod    *obs.Histogram
	obsSync     *obs.Histogram
}

type openEntry struct {
	count    int
	notified bool // TFS knows this file is open
}

// New creates a PXFS view over session s.
func New(s *libfs.Session, opts Options) *FS {
	if opts.CacheLimit == 0 {
		opts.CacheLimit = 65536
	}
	if opts.ExtentLog == 0 {
		opts.ExtentLog = sobj.DefaultExtentLog
	}
	fs := &FS{
		s:         s,
		opts:      opts,
		nameCache: make(map[string]sobj.OID),
		open:      make(map[sobj.OID]openEntry),
		cwd:       s.Root,
		cwdPath:   "/",
	}
	sink := s.Obs()
	fs.obsSink = sink
	fs.obsOp = sink.Histogram("pxfs.op")
	fs.obsOpen = sink.Histogram("pxfs.op.open")
	fs.obsClose = sink.Histogram("pxfs.op.close")
	fs.obsRead = sink.Histogram("pxfs.op.read")
	fs.obsWrite = sink.Histogram("pxfs.op.write")
	fs.obsTruncate = sink.Histogram("pxfs.op.truncate")
	fs.obsMkdir = sink.Histogram("pxfs.op.mkdir")
	fs.obsRmdir = sink.Histogram("pxfs.op.rmdir")
	fs.obsUnlink = sink.Histogram("pxfs.op.unlink")
	fs.obsRename = sink.Histogram("pxfs.op.rename")
	fs.obsStat = sink.Histogram("pxfs.op.stat")
	fs.obsReadDir = sink.Histogram("pxfs.op.readdir")
	fs.obsChmod = sink.Histogram("pxfs.op.chmod")
	fs.obsSync = sink.Histogram("pxfs.op.sync")
	// The cache is flushed whenever the client releases a global lock or
	// the TFS revokes one (§6.1), and whenever a batch is rejected and
	// discarded: entries resolved through the discarded creates point at
	// staged extents that just went back into the pool.
	s.AddReleaseHook(func(uint64) { fs.flushNameCache() })
	s.AddDiscardHook(fs.flushNameCache)
	return fs
}

// Session returns the underlying libFS session.
func (fs *FS) Session() *libfs.Session { return fs.s }

// observe records one completed operation: its duration lands in the per-op
// histogram, the pxfs.op aggregate, and the trace ring. Use as
//
//	defer fs.observe("mkdir", fs.obsMkdir, fs.obsOp.StartTimer())
//
// — the timer argument is evaluated at the defer statement, the body at
// return. With observability off the timer is the zero Time and the whole
// call is one branch.
func (fs *FS) observe(op string, h *obs.Histogram, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	d := time.Since(t0)
	h.Observe(int64(d))
	fs.obsOp.Observe(int64(d))
	fs.obsSink.Trace("pxfs", op, t0, d)
}

func (fs *FS) flushNameCache() {
	fs.mu.Lock()
	if len(fs.nameCache) > 0 {
		fs.nameCache = make(map[string]sobj.OID)
		fs.CacheFlush++
	}
	fs.mu.Unlock()
}

// stackParts is how many path components the resolvers hold in their own
// frame; a deeper path spills to the heap.
const stackParts = 16

// splitPath normalizes a path into components, appending them to buf (a
// caller passes a stack array's slice, so a short path costs no heap). The
// components are substrings of path. Returns whether it was absolute.
func splitPath(path string, buf []string) ([]string, bool, error) {
	if path == "" {
		return nil, false, fmt.Errorf("%w: empty", ErrBadPath)
	}
	out := buf[:0]
	for rest := path; rest != ""; {
		p := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			p, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		switch p {
		case "", ".":
		case "..":
			return nil, false, fmt.Errorf("%w: %q ('..' unsupported)", ErrBadPath, path)
		default:
			if len(p) > sobj.MaxKeyLen {
				return nil, false, fmt.Errorf("%w: component too long", ErrBadPath)
			}
			out = append(out, p)
		}
	}
	return out, path[0] == '/', nil
}

// cacheKey returns the name-cache key of parts[:k], which is always
// "/"+strings.Join(parts[:k], "/"). When path spells that key out as its
// own prefix — any canonical absolute path does — the key is that prefix
// and nothing is allocated.
func cacheKey(path string, parts []string, k int) string {
	if k == 0 {
		return "/"
	}
	pos := 0
	for _, p := range parts[:k] {
		if pos >= len(path) || path[pos] != '/' || !strings.HasPrefix(path[pos+1:], p) {
			return "/" + strings.Join(parts[:k], "/")
		}
		pos += 1 + len(p)
	}
	return path[:pos]
}

// resolveDir walks to the directory containing the last component of path,
// returning (dir, leaf name). Read locks are taken (and locally released)
// on each directory walked; resolution checks traverse permission on every
// component (§6.1: permission checks on the entire path).
func (fs *FS) resolveDir(path string) (sobj.OID, string, error) {
	var buf [stackParts]string
	parts, abs, err := splitPath(path, buf[:0])
	if err != nil {
		return 0, "", err
	}
	if len(parts) == 0 {
		return 0, "", fmt.Errorf("%w: %q names the root", ErrBadPath, path)
	}
	leaf := parts[len(parts)-1]
	dir, err := fs.walk(abs, parts[:len(parts)-1], path)
	if err != nil {
		return 0, "", err
	}
	if dir.Type() != sobj.TypeCollection {
		return 0, "", fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	return dir, leaf, nil
}

// walk resolves a directory chain: parts are (a prefix of) path's
// components. Name-cache keys are derived from path (relative paths, which
// the paper's cache skips, never reach the cache).
func (fs *FS) walk(abs bool, parts []string, path string) (sobj.OID, error) {
	start := fs.cwd
	if abs {
		start = fs.s.Root
	}
	useCache := fs.opts.NameCache && abs
	if useCache && len(parts) > 0 {
		key := cacheKey(path, parts, len(parts))
		fs.mu.Lock()
		oid, ok := fs.nameCache[key]
		if ok {
			fs.CacheHits++
		} else {
			fs.CacheMisses++
		}
		fs.mu.Unlock()
		if ok {
			return oid, nil
		}
	}
	cur := start
	for i, name := range parts {
		if cur.Type() != sobj.TypeCollection {
			return 0, fmt.Errorf("%w: %q", ErrNotDir, name)
		}
		if err := fs.checkPerm(cur, permTraverse); err != nil {
			return 0, err
		}
		if err := fs.s.Clerk.Acquire(cur.Lock(), lockservice.S, false); err != nil {
			return 0, err
		}
		next, found, err := fs.s.DirLookup(cur, []byte(name))
		fs.s.Clerk.Release(cur.Lock(), lockservice.S)
		if err != nil {
			return 0, err
		}
		if !found {
			return 0, fmt.Errorf("%w: %q", ErrNotExist, name)
		}
		cur = next
		if useCache {
			fs.cacheAdd(cacheKey(path, parts, i+1), cur)
		}
	}
	return cur, nil
}

func (fs *FS) cacheAdd(key string, oid sobj.OID) {
	fs.mu.Lock()
	if len(fs.nameCache) >= fs.opts.CacheLimit {
		// Evict a bounded batch (1/8 of the limit, at least one) instead of
		// the whole map, so a warm workload keeps most of its hit rate when
		// the cache reaches the limit. Go's random map iteration order makes
		// this random eviction.
		evict := fs.opts.CacheLimit / 8
		if evict < 1 {
			evict = 1
		}
		for k := range fs.nameCache {
			delete(fs.nameCache, k)
			fs.CacheEvicted++
			evict--
			if evict == 0 {
				break
			}
		}
	}
	fs.nameCache[key] = oid
	fs.mu.Unlock()
}

// cacheDrop forgets key; with tree set, every cached path below it too —
// when a directory moves, each name resolved through it is stale.
func (fs *FS) cacheDrop(key string, tree bool) {
	fs.mu.Lock()
	delete(fs.nameCache, key)
	if tree {
		for k := range fs.nameCache {
			if len(k) > len(key) && k[len(key)] == '/' && strings.HasPrefix(k, key) {
				delete(fs.nameCache, k)
			}
		}
	}
	fs.mu.Unlock()
}

// resolve resolves a full path to an object.
func (fs *FS) resolve(path string) (sobj.OID, error) {
	var buf [stackParts]string
	parts, abs, err := splitPath(path, buf[:0])
	if err != nil {
		return 0, err
	}
	if len(parts) == 0 {
		if abs {
			return fs.s.Root, nil
		}
		return fs.cwd, nil
	}
	return fs.walk(abs, parts, path)
}

// Permission checks against the FS-level mode bits (simplified: any read
// bit grants read/traverse, any write bit grants write).
const (
	permRead = 1 << iota
	permWrite
	permTraverse
)

func (fs *FS) checkPerm(oid sobj.OID, want int) error {
	h, err := fs.s.Header(oid)
	if err != nil {
		return err
	}
	mode := h.Perm
	if want&permRead != 0 && mode&0444 == 0 {
		return fmt.Errorf("%w: read %v", ErrPerm, oid)
	}
	if want&permWrite != 0 && mode&0222 == 0 {
		return fmt.Errorf("%w: write %v", ErrPerm, oid)
	}
	if want&permTraverse != 0 && mode&0555 == 0 {
		return fmt.Errorf("%w: traverse %v", ErrPerm, oid)
	}
	return nil
}

// Chdir changes the working directory for relative paths.
func (fs *FS) Chdir(path string) error {
	oid, err := fs.resolve(path)
	if err != nil {
		return err
	}
	if oid.Type() != sobj.TypeCollection {
		return ErrNotDir
	}
	fs.mu.Lock()
	fs.cwd = oid
	fs.cwdPath = path
	fs.mu.Unlock()
	return nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(path string, perm uint32) error {
	defer fs.observe("mkdir", fs.obsMkdir, fs.obsOp.StartTimer())
	dir, leaf, err := fs.resolveDir(path)
	if err != nil {
		return err
	}
	lock := dir.Lock()
	if err := fs.s.Clerk.Acquire(lock, lockservice.X, false); err != nil {
		return err
	}
	defer fs.s.Clerk.Release(lock, lockservice.X)
	if err := fs.checkPerm(dir, permWrite); err != nil {
		return err
	}
	if _, found, err := fs.s.DirLookup(dir, []byte(leaf)); err != nil {
		return err
	} else if found {
		return fmt.Errorf("%w: %q", ErrExist, path)
	}
	// Placement: the new directory's shard is a pure function of its
	// (parent, name) identity, so concurrent clients agree without
	// coordination; the insert into a foreign parent rides the cross-shard
	// transaction path.
	child, err := fs.s.CreateCollectionStaged(shard.Dir(uint64(dir), []byte(leaf), fs.s.Shards()), perm)
	if err != nil {
		return err
	}
	return fs.s.DirInsert(dir, []byte(leaf), child, lock)
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(path string) error {
	defer fs.observe("rmdir", fs.obsRmdir, fs.obsOp.StartTimer())
	dir, leaf, err := fs.resolveDir(path)
	if err != nil {
		return err
	}
	lock := dir.Lock()
	if err := fs.s.Clerk.Acquire(lock, lockservice.X, false); err != nil {
		return err
	}
	defer fs.s.Clerk.Release(lock, lockservice.X)
	child, found, err := fs.s.DirLookup(dir, []byte(leaf))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if child.Type() != sobj.TypeCollection {
		return ErrNotDir
	}
	empty := true
	if err := fs.s.DirIterate(child, func([]byte, sobj.OID) error {
		empty = false
		return errStopIter
	}); err != nil && !errors.Is(err, errStopIter) {
		return err
	}
	if !empty {
		return fmt.Errorf("%w: %q", ErrNotEmpty, path)
	}
	fs.cacheDrop(cleanAbs(path), false)
	return fs.s.DirRemove(dir, []byte(leaf), child, lock)
}

var errStopIter = errors.New("stop")

func cleanAbs(path string) string {
	var buf [stackParts]string
	parts, _, err := splitPath(path, buf[:0])
	if err != nil {
		return path
	}
	return cacheKey(path, parts, len(parts))
}

// Unlink removes a file. Files open in this client survive via the TFS
// open-file table (§6.1).
func (fs *FS) Unlink(path string) error {
	defer fs.observe("unlink", fs.obsUnlink, fs.obsOp.StartTimer())
	dir, leaf, err := fs.resolveDir(path)
	if err != nil {
		return err
	}
	lock := dir.Lock()
	if err := fs.s.Clerk.Acquire(lock, lockservice.X, false); err != nil {
		return err
	}
	defer fs.s.Clerk.Release(lock, lockservice.X)
	if err := fs.checkPerm(dir, permWrite); err != nil {
		return err
	}
	child, found, err := fs.s.DirLookup(dir, []byte(leaf))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if child.Type() == sobj.TypeCollection {
		return ErrIsDir
	}
	// If this client has the file open, register it with the TFS so the
	// storage outlives the unlink until the last close.
	fs.mu.Lock()
	oe, isOpen := fs.open[child]
	if isOpen && !oe.notified {
		oe.notified = true
		fs.open[child] = oe
		fs.mu.Unlock()
		if err := fs.s.NotifyOpen(child); err != nil {
			return err
		}
	} else {
		fs.mu.Unlock()
	}
	fs.cacheDrop(cleanAbs(path), false)
	return fs.s.DirRemove(dir, []byte(leaf), child, lock)
}

// Rename atomically moves src to dst, overwriting an existing destination
// file (§6.1: write locks on both directory collections, acquired in a
// fixed order to avoid deadlock).
func (fs *FS) Rename(src, dst string) error {
	defer fs.observe("rename", fs.obsRename, fs.obsOp.StartTimer())
	sdir, sleaf, err := fs.resolveDir(src)
	if err != nil {
		return err
	}
	ddir, dleaf, err := fs.resolveDir(dst)
	if err != nil {
		return err
	}
	locks := []uint64{sdir.Lock(), ddir.Lock()}
	if locks[0] > locks[1] {
		locks[0], locks[1] = locks[1], locks[0]
	}
	if err := fs.s.Clerk.Acquire(locks[0], lockservice.X, false); err != nil {
		return err
	}
	defer fs.s.Clerk.Release(locks[0], lockservice.X)
	if locks[1] != locks[0] {
		if err := fs.s.Clerk.Acquire(locks[1], lockservice.X, false); err != nil {
			return err
		}
		defer fs.s.Clerk.Release(locks[1], lockservice.X)
	}
	child, found, err := fs.s.DirLookup(sdir, []byte(sleaf))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrNotExist, src)
	}
	// An overwritten destination entry is removed in the rename's group.
	victim, _, err := fs.s.DirLookup(ddir, []byte(dleaf))
	if err != nil || victim == child {
		return err // two names of one object: nothing to do (POSIX)
	}
	// Renaming a directory moves every path below it, so the cached names
	// under both ends go too (dst may be an empty directory it replaces).
	tree := child.Type() == sobj.TypeCollection
	fs.cacheDrop(cleanAbs(src), tree)
	fs.cacheDrop(cleanAbs(dst), tree)
	return fs.s.DirRename(sdir, []byte(sleaf), ddir, []byte(dleaf), child, victim, sdir.Lock(), ddir.Lock())
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string
	Size  uint64
	Mode  uint32
	IsDir bool
	Links uint32
	MTime time.Time
	OID   sobj.OID
}

// Stat returns metadata for path.
func (fs *FS) Stat(path string) (FileInfo, error) {
	defer fs.observe("stat", fs.obsStat, fs.obsOp.StartTimer())
	oid, err := fs.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	return fs.statOID(oid, baseName(path))
}

func baseName(path string) string {
	var buf [stackParts]string
	parts, _, err := splitPath(path, buf[:0])
	if err != nil || len(parts) == 0 {
		return "/"
	}
	return parts[len(parts)-1]
}

func (fs *FS) statOID(oid sobj.OID, name string) (FileInfo, error) {
	h, err := fs.s.Header(oid)
	if err != nil {
		return FileInfo{}, err
	}
	fi := FileInfo{
		Name:  name,
		Mode:  h.Perm,
		IsDir: oid.Type() == sobj.TypeCollection,
		Links: h.Refcnt,
		MTime: time.Unix(0, int64(h.Attrs)),
		OID:   oid,
	}
	if !fi.IsDir {
		size, err := fs.s.FileSize(oid)
		if err != nil {
			return FileInfo{}, err
		}
		fi.Size = size
	}
	return fi, nil
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name  string
	OID   sobj.OID
	IsDir bool
}

// ReadDir lists a directory, sorted by name.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) {
	defer fs.observe("readdir", fs.obsReadDir, fs.obsOp.StartTimer())
	oid, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if oid.Type() != sobj.TypeCollection {
		return nil, ErrNotDir
	}
	if err := fs.checkPerm(oid, permRead); err != nil {
		return nil, err
	}
	if err := fs.s.Clerk.Acquire(oid.Lock(), lockservice.S, false); err != nil {
		return nil, err
	}
	defer fs.s.Clerk.Release(oid.Lock(), lockservice.S)
	var out []DirEntry
	if err := fs.s.DirIterate(oid, func(key []byte, val sobj.OID) error {
		out = append(out, DirEntry{Name: string(key), OID: val, IsDir: val.Type() == sobj.TypeCollection})
		return nil
	}); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Chmod changes permission bits; hwProtect also narrows extent protection
// through the SCM manager (the §7.2.1 path).
func (fs *FS) Chmod(path string, perm uint32, hwProtect bool) error {
	defer fs.observe("chmod", fs.obsChmod, fs.obsOp.StartTimer())
	oid, err := fs.resolve(path)
	if err != nil {
		return err
	}
	if err := fs.s.Clerk.Acquire(oid.Lock(), lockservice.X, false); err != nil {
		return err
	}
	defer fs.s.Clerk.Release(oid.Lock(), lockservice.X)
	return fs.s.Chmod(oid, perm, hwProtect)
}

// Sync ships buffered metadata updates (fsync-equivalent for the volume).
func (fs *FS) Sync() error {
	defer fs.observe("sync", fs.obsSync, fs.obsOp.StartTimer())
	return fs.s.Sync()
}

// Statfs reports volume-wide space and object accounting (statvfs/df):
// total and free bytes, bytes held by in-flight admission reservations,
// and the live object count.
func (fs *FS) Statfs() (fsproto.StatfsReply, error) {
	return fs.s.Statfs()
}

// Root returns the root directory OID.
func (fs *FS) Root() sobj.OID { return fs.s.Root }

var _ io.Reader = (*File)(nil)
var _ io.Writer = (*File)(nil)
var _ io.Seeker = (*File)(nil)
