package pxfs

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// File is an open PXFS file. The file's mFile lock is held (read or write
// mode) from open to close (§6.1); reads and writes access SCM directly,
// with metadata growth staged in the client's update log.
type File struct {
	fs      *FS
	oid     sobj.OID
	path    string
	flags   int
	off     uint64
	writing bool
	wrote   bool
	closed  bool
}

// Create creates (or truncates) a file for read/write.
func (fs *FS) Create(path string, perm uint32) (*File, error) {
	return fs.OpenFile(path, O_RDWR|O_CREATE|O_TRUNC, perm)
}

// Open opens an existing file per flags (O_RDONLY or O_RDWR|...).
func (fs *FS) Open(path string, flags int) (*File, error) {
	return fs.OpenFile(path, flags, 0644)
}

// OpenFile is the general open: resolves the path, creates the file when
// O_CREATE is set and it is absent, acquires the file lock in the mode the
// flags demand, and registers the open locally.
func (fs *FS) OpenFile(path string, flags int, perm uint32) (*File, error) {
	defer fs.observe("open", fs.obsOpen, fs.obsOp.StartTimer())
	writing := flags&O_RDWR != 0
	need := permRead
	class := lockservice.S
	if writing {
		need = permWrite
		class = lockservice.X
	}
	var oid sobj.OID
	locked := false  // file lock already acquired under the directory lock
	created := false // made by this call, so O_TRUNC has nothing to cut
	if flags&O_CREATE != 0 {
		dir, leaf, err := fs.resolveDir(path)
		if err != nil {
			return nil, err
		}
		dirLock := dir.Lock()
		if err := fs.s.Clerk.Acquire(dirLock, lockservice.X, false); err != nil {
			return nil, err
		}
		existing, found, err := fs.s.DirLookup(dir, []byte(leaf))
		if err != nil {
			fs.s.Clerk.Release(dirLock, lockservice.X)
			return nil, err
		}
		if found {
			oid = existing
			if oid.Type() != sobj.TypeCollection {
				// Lock coupling: the name→object binding is only guaranteed
				// while the directory lock is held, so the file lock must be
				// acquired before releasing it. Otherwise a concurrent rename
				// can move the entry between lookup and lock, and this open's
				// writes would land on an object no longer bound to path.
				if err := fs.s.Clerk.Acquire(oid.Lock(), class, false); err != nil {
					fs.s.Clerk.Release(dirLock, lockservice.X)
					return nil, err
				}
				locked = true
			}
		} else {
			created = true
			if err := fs.checkPerm(dir, permWrite); err != nil {
				fs.s.Clerk.Release(dirLock, lockservice.X)
				return nil, err
			}
			// Files live on their parent directory's shard, keeping the
			// create+insert pair a single-shard batch.
			oid, err = fs.s.CreateMFileStaged(fs.s.ShardOf(dir), perm, fs.opts.ExtentLog)
			if err == nil {
				err = fs.s.DirInsert(dir, []byte(leaf), oid, dirLock)
			}
			if err == nil {
				// Born locked: the directory lock's release publishes the
				// insert to other clients, so the file lock must be held
				// before that — otherwise a reader can slip in between the
				// publish and the creator's first write and observe the
				// empty file, tearing the create+write open apart. The OID
				// is brand new, so this acquire can never contend.
				err = fs.s.Clerk.Acquire(oid.Lock(), class, false)
				locked = err == nil
			}
			if err != nil {
				fs.s.Clerk.Release(dirLock, lockservice.X)
				return nil, err
			}
		}
		fs.s.Clerk.Release(dirLock, lockservice.X)
	} else {
		// Non-create opens need the same coupling: resolve the parent, then
		// look up the leaf and take the file lock under the parent's lock.
		// Resolving first and locking after leaves a window where a rename
		// moves the entry and the open's reads/writes land on (and are
		// observed at) an object no longer bound to path.
		dir, leaf, err := fs.resolveDir(path)
		if err != nil {
			return nil, err
		}
		if err := fs.checkPerm(dir, permTraverse); err != nil {
			return nil, err
		}
		dirLock := dir.Lock()
		if err := fs.s.Clerk.Acquire(dirLock, lockservice.S, false); err != nil {
			return nil, err
		}
		var found bool
		oid, found, err = fs.s.DirLookup(dir, []byte(leaf))
		if err == nil && !found {
			err = fmt.Errorf("%w: %q", ErrNotExist, leaf)
		}
		if err == nil && oid.Type() != sobj.TypeCollection {
			err = fs.s.Clerk.Acquire(oid.Lock(), class, false)
			locked = err == nil
		}
		fs.s.Clerk.Release(dirLock, lockservice.S)
		if err != nil {
			return nil, err
		}
	}
	if oid.Type() == sobj.TypeCollection {
		if locked {
			fs.s.Clerk.Release(oid.Lock(), class)
		}
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	if err := fs.checkPerm(oid, need); err != nil {
		if locked {
			fs.s.Clerk.Release(oid.Lock(), class)
		}
		return nil, err
	}
	// The file lock is held open-to-close (§6.1); the O_CREATE paths already
	// hold it from inside the directory-locked window above.
	if !locked {
		if err := fs.s.Clerk.Acquire(oid.Lock(), class, false); err != nil {
			return nil, err
		}
	}
	f := &File{fs: fs, oid: oid, path: path, flags: flags, writing: writing}
	if flags&O_TRUNC != 0 && writing {
		if !created {
			if err := fs.s.FileTruncate(oid, 0, oid.Lock()); err != nil {
				fs.s.Clerk.Release(oid.Lock(), class)
				return nil, err
			}
		}
		f.wrote = true
	}
	if flags&O_APPEND != 0 {
		size, err := fs.s.FileSize(oid)
		if err != nil {
			fs.s.Clerk.Release(oid.Lock(), class)
			return nil, err
		}
		f.off = size
	}
	fs.mu.Lock()
	oe := fs.open[oid]
	oe.count++
	fs.open[oid] = oe
	fs.mu.Unlock()
	return f, nil
}

// OID returns the file's object ID.
func (f *File) OID() sobj.OID { return f.oid }

// Read reads from the current offset.
func (f *File) Read(p []byte) (int, error) {
	defer f.fs.observe("read", f.fs.obsRead, f.fs.obsOp.StartTimer())
	if f.closed {
		return 0, ErrClosed
	}
	n, err := f.fs.s.FileRead(f.oid, p, f.off)
	f.off += uint64(n)
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

// ReadAt reads at an absolute offset.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	defer f.fs.observe("read", f.fs.obsRead, f.fs.obsOp.StartTimer())
	if f.closed {
		return 0, ErrClosed
	}
	n, err := f.fs.s.FileRead(f.oid, p, uint64(off))
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

// Write writes at the current offset, extending the file as needed.
func (f *File) Write(p []byte) (int, error) {
	defer f.fs.observe("write", f.fs.obsWrite, f.fs.obsOp.StartTimer())
	if f.closed {
		return 0, ErrClosed
	}
	if !f.writing {
		return 0, ErrReadOnly
	}
	n, err := f.fs.s.FileWrite(f.oid, p, f.off, f.oid.Lock())
	f.off += uint64(n)
	f.wrote = true
	return n, err
}

// WriteAt writes at an absolute offset.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	defer f.fs.observe("write", f.fs.obsWrite, f.fs.obsOp.StartTimer())
	if f.closed {
		return 0, ErrClosed
	}
	if !f.writing {
		return 0, ErrReadOnly
	}
	f.wrote = true
	return f.fs.s.FileWrite(f.oid, p, uint64(off), f.oid.Lock())
}

// Seek repositions the offset.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	var base uint64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		size, err := f.fs.s.FileSize(f.oid)
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, errors.New("pxfs: bad whence")
	}
	n := int64(base) + offset
	if n < 0 {
		return 0, errors.New("pxfs: negative seek")
	}
	f.off = uint64(n)
	return n, nil
}

// Truncate shrinks or logically extends the file.
func (f *File) Truncate(n uint64) error {
	defer f.fs.observe("truncate", f.fs.obsTruncate, f.fs.obsOp.StartTimer())
	if f.closed {
		return ErrClosed
	}
	if !f.writing {
		return ErrReadOnly
	}
	f.wrote = true
	size, err := f.fs.s.FileSize(f.oid)
	if err != nil {
		return err
	}
	if n >= size {
		return f.fs.s.FileSetSize(f.oid, n, f.oid.Lock())
	}
	return f.fs.s.FileTruncate(f.oid, n, f.oid.Lock())
}

// Stat returns the file's metadata.
func (f *File) Stat() (FileInfo, error) {
	if f.closed {
		return FileInfo{}, ErrClosed
	}
	return f.fs.statOID(f.oid, baseName(f.path))
}

// Sync ships the client's buffered metadata updates (libfs sync, §4.3).
func (f *File) Sync() error {
	defer f.fs.observe("sync", f.fs.obsSync, f.fs.obsOp.StartTimer())
	if f.closed {
		return ErrClosed
	}
	return f.fs.s.Sync()
}

// Size returns the current file size.
func (f *File) Size() (uint64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	return f.fs.s.FileSize(f.oid)
}

// Close releases the file lock and, if the file was registered in the TFS
// open-file table, sends the close notification (which reclaims storage of
// unlinked files).
func (f *File) Close() error {
	defer f.fs.observe("close", f.fs.obsClose, f.fs.obsOp.StartTimer())
	if f.closed {
		return nil
	}
	f.closed = true
	if f.wrote {
		// Timestamp update, batched like other metadata (§6.1 drops
		// asynchronous timestamps; this is the synchronous-on-close
		// variant).
		_ = f.fs.s.LogOp(attrOp(f.oid, uint64(time.Now().UnixNano())))
	}
	class := lockservice.S
	if f.writing {
		class = lockservice.X
	}
	f.fs.s.Clerk.Release(f.oid.Lock(), class)
	f.fs.mu.Lock()
	var notify bool
	if oe, ok := f.fs.open[f.oid]; ok {
		oe.count--
		if oe.count > 0 {
			f.fs.open[f.oid] = oe
		} else {
			notify = oe.notified
			delete(f.fs.open, f.oid)
		}
	}
	f.fs.mu.Unlock()
	if notify {
		return f.fs.s.NotifyClose(f.oid)
	}
	return nil
}

// attrOp builds the batched mtime update for a written file.
func attrOp(oid sobj.OID, attrs uint64) fsproto.Op {
	return fsproto.Op{Code: fsproto.OpSetAttr, Target: oid, Val: attrs, Val2: 1, CoverLock: oid.Lock()}
}
