package conformance

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/vfs"
)

// traceRoot is where every trace lives; captures walk from here.
const traceRoot = "/ct"

// ---- PXFS ----

// PXFSAdapter drives a PXFS client.
type PXFSAdapter struct{ FS *pxfs.FS }

func (a PXFSAdapter) Name() string  { return "PXFS" }
func (a PXFSAdapter) HasDirs() bool { return true }

func (a PXFSAdapter) Mkdir(path string) error { return a.FS.Mkdir(path, 0755) }

func (a PXFSAdapter) PutWhole(path string, data []byte) error {
	f, err := a.FS.OpenFile(path, pxfs.O_RDWR|pxfs.O_CREATE|pxfs.O_TRUNC, 0644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

func (a PXFSAdapter) WriteAt(path string, off int64, data []byte) error {
	f, err := a.FS.OpenFile(path, pxfs.O_RDWR, 0644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(data, off)
	return err
}

func (a PXFSAdapter) Append(path string, data []byte) error {
	f, err := a.FS.OpenFile(path, pxfs.O_RDWR|pxfs.O_APPEND, 0644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

func (a PXFSAdapter) Truncate(path string, size int64) error {
	f, err := a.FS.OpenFile(path, pxfs.O_RDWR, 0644)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Truncate(uint64(size))
}

func (a PXFSAdapter) Delete(path string) error             { return a.FS.Unlink(path) }
func (a PXFSAdapter) Rename(oldPath, newPath string) error { return a.FS.Rename(oldPath, newPath) }
func (a PXFSAdapter) Sync() error                          { return a.FS.Sync() }

func (a PXFSAdapter) readFile(path string, size int64) (string, error) {
	f, err := a.FS.Open(path, pxfs.O_RDONLY)
	if err != nil {
		return "", err
	}
	defer f.Close()
	buf := make([]byte, size)
	if size > 0 {
		n, err := f.ReadAt(buf, 0)
		if err != nil && !(err == io.EOF && int64(n) == size) {
			return "", err
		}
		if int64(n) != size {
			return "", fmt.Errorf("pxfs short read: %d of %d", n, size)
		}
	}
	return hashBytes(buf), nil
}

func (a PXFSAdapter) walk(dir string, files *[]FileState, dirs *[]string) error {
	*dirs = append(*dirs, dir)
	ents, err := a.FS.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		p := dir + "/" + e.Name
		if e.IsDir {
			if err := a.walk(p, files, dirs); err != nil {
				return err
			}
			continue
		}
		fi, err := a.FS.Stat(p)
		if err != nil {
			return err
		}
		h, err := a.readFile(p, int64(fi.Size))
		if err != nil {
			return err
		}
		*files = append(*files, FileState{Path: p, Size: int64(fi.Size), Hash: h})
	}
	return nil
}

func (a PXFSAdapter) capture() ([]FileState, []string, error) {
	var files []FileState
	var dirs []string
	if _, err := a.FS.Stat(traceRoot); err != nil {
		return nil, nil, nil // nothing traced yet
	}
	if err := a.walk(traceRoot, &files, &dirs); err != nil {
		return nil, nil, err
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	sort.Strings(dirs)
	return files, dirs, nil
}

func (a PXFSAdapter) Files() ([]FileState, error) {
	files, _, err := a.capture()
	return files, err
}

func (a PXFSAdapter) Dirs() ([]string, error) {
	_, dirs, err := a.capture()
	return dirs, err
}

// ---- FlatFS ----

// FlatAdapter drives a FlatFS client: paths become flat keys, partial
// writes become read-modify-write, and directories do not exist.
type FlatAdapter struct{ FS *flatfs.FS }

func (a FlatAdapter) Name() string  { return "FlatFS" }
func (a FlatAdapter) HasDirs() bool { return false }

func (a FlatAdapter) Mkdir(string) error { return nil }

func (a FlatAdapter) PutWhole(path string, data []byte) error {
	return a.FS.Put(path, data)
}

func (a FlatAdapter) WriteAt(path string, off int64, data []byte) error {
	cur, err := a.FS.Get(path)
	if err != nil {
		return err
	}
	end := off + int64(len(data))
	if end < int64(len(cur)) {
		end = int64(len(cur))
	}
	out := make([]byte, end)
	copy(out, cur)
	copy(out[off:], data)
	return a.FS.Put(path, out)
}

func (a FlatAdapter) Append(path string, data []byte) error {
	cur, err := a.FS.Get(path)
	if err != nil {
		return err
	}
	return a.FS.Put(path, append(cur, data...))
}

func (a FlatAdapter) Truncate(path string, size int64) error {
	cur, err := a.FS.Get(path)
	if err != nil {
		return err
	}
	out := make([]byte, size)
	copy(out, cur)
	return a.FS.Put(path, out)
}

func (a FlatAdapter) Delete(path string) error { return a.FS.Erase(path) }

func (a FlatAdapter) Rename(oldPath, newPath string) error {
	cur, err := a.FS.Get(oldPath)
	if err != nil {
		return err
	}
	if err := a.FS.Put(newPath, cur); err != nil {
		return err
	}
	return a.FS.Erase(oldPath)
}

func (a FlatAdapter) Sync() error { return a.FS.Sync() }

func (a FlatAdapter) Files() ([]FileState, error) {
	keys, err := a.FS.Keys()
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	var files []FileState
	var buf []byte
	for _, k := range keys {
		if !strings.HasPrefix(k, traceRoot+"/") {
			continue
		}
		buf, err = a.FS.GetInto(k, buf)
		if err != nil {
			return nil, err
		}
		files = append(files, FileState{Path: k, Size: int64(len(buf)), Hash: hashBytes(buf)})
	}
	return files, nil
}

func (a FlatAdapter) Dirs() ([]string, error) { return nil, nil }

// ---- VFS (RamFS / extfs) ----

// VFSAdapter drives a kernel-style file system behind the simulated VFS.
type VFSAdapter struct {
	FSName string
	V      *vfs.VFS
}

func (a VFSAdapter) Name() string  { return a.FSName }
func (a VFSAdapter) HasDirs() bool { return true }

func (a VFSAdapter) Mkdir(path string) error { return a.V.Mkdir(path, 0755) }

func (a VFSAdapter) withFD(path string, flags int, fn func(fd int) error) error {
	fd, err := a.V.Open(path, flags, 0644)
	if err != nil {
		return err
	}
	defer a.V.Close(fd)
	return fn(fd)
}

func (a VFSAdapter) PutWhole(path string, data []byte) error {
	return a.withFD(path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, func(fd int) error {
		_, err := a.V.Pwrite(fd, data, 0)
		return err
	})
}

func (a VFSAdapter) WriteAt(path string, off int64, data []byte) error {
	return a.withFD(path, vfs.O_RDWR, func(fd int) error {
		_, err := a.V.Pwrite(fd, data, uint64(off))
		return err
	})
}

func (a VFSAdapter) Append(path string, data []byte) error {
	return a.withFD(path, vfs.O_RDWR|vfs.O_APPEND, func(fd int) error {
		_, err := a.V.Write(fd, data)
		return err
	})
}

func (a VFSAdapter) Truncate(path string, size int64) error {
	return a.withFD(path, vfs.O_RDWR, func(fd int) error {
		return a.V.Ftruncate(fd, uint64(size))
	})
}

func (a VFSAdapter) Delete(path string) error             { return a.V.Unlink(path) }
func (a VFSAdapter) Rename(oldPath, newPath string) error { return a.V.Rename(oldPath, newPath) }
func (a VFSAdapter) Sync() error                          { return a.V.Sync() }

func (a VFSAdapter) walk(dir string, files *[]FileState, dirs *[]string) error {
	*dirs = append(*dirs, dir)
	ents, err := a.V.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		p := dir + "/" + e.Name
		attr, err := a.V.Stat(p)
		if err != nil {
			return err
		}
		if attr.IsDir {
			if err := a.walk(p, files, dirs); err != nil {
				return err
			}
			continue
		}
		buf := make([]byte, attr.Size)
		err = a.withFD(p, vfs.O_RDONLY, func(fd int) error {
			if attr.Size == 0 {
				return nil
			}
			n, err := a.V.Pread(fd, buf, 0)
			if err != nil && !(err == io.EOF && uint64(n) == attr.Size) {
				return err
			}
			if uint64(n) != attr.Size {
				return fmt.Errorf("%s short read: %d of %d", a.FSName, n, attr.Size)
			}
			return nil
		})
		if err != nil {
			return err
		}
		*files = append(*files, FileState{Path: p, Size: int64(attr.Size), Hash: hashBytes(buf)})
	}
	return nil
}

func (a VFSAdapter) capture() ([]FileState, []string, error) {
	if _, err := a.V.Stat(traceRoot); err != nil {
		return nil, nil, nil
	}
	var files []FileState
	var dirs []string
	if err := a.walk(traceRoot, &files, &dirs); err != nil {
		return nil, nil, err
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	sort.Strings(dirs)
	return files, dirs, nil
}

func (a VFSAdapter) Files() ([]FileState, error) {
	files, _, err := a.capture()
	return files, err
}

func (a VFSAdapter) Dirs() ([]string, error) {
	_, dirs, err := a.capture()
	return dirs, err
}
