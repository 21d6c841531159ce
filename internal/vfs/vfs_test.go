package vfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/aerie-fs/aerie/internal/blockdev"
	"github.com/aerie-fs/aerie/internal/extfs"
	"github.com/aerie-fs/aerie/internal/ramfs"
	"github.com/aerie-fs/aerie/internal/vfs"
)

// mkext formats a RAM disk the test releases when it ends.
func mkext(t *testing.T, mode extfs.Mode) vfs.FileSystem {
	disk := blockdev.New(8192, nil, false)
	t.Cleanup(func() { disk.Close() })
	fs, err := extfs.Mkfs(disk, mode)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// eachFS runs the conformance suite against every baseline file system.
func eachFS(t *testing.T, fn func(t *testing.T, v *vfs.VFS)) {
	t.Helper()
	cases := []struct {
		name string
		mk   func(t *testing.T) vfs.FileSystem
	}{
		{"ramfs", func(t *testing.T) vfs.FileSystem { return ramfs.New() }},
		{"ext3", func(t *testing.T) vfs.FileSystem { return mkext(t, extfs.Ext3) }},
		{"ext4", func(t *testing.T) vfs.FileSystem { return mkext(t, extfs.Ext4) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fn(t, vfs.New(c.mk(t), vfs.Config{Accounting: true}))
		})
	}
}

func write(t *testing.T, v *vfs.VFS, path string, data []byte) {
	t.Helper()
	fd, err := v.Open(path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := v.Write(fd, data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := v.Close(fd); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, v *vfs.VFS, path string) []byte {
	t.Helper()
	fd, err := v.Open(path, vfs.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer v.Close(fd)
	attr, err := v.Fstat(fd)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, attr.Size)
	got := 0
	for got < len(buf) {
		n, err := v.Read(fd, buf[got:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got += n
	}
	return buf[:got]
}

func TestConformanceCreateWriteRead(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		data := bytes.Repeat([]byte("block data! "), 2000) // ~24 KiB, multi-block
		write(t, v, "/f.bin", data)
		if got := read(t, v, "/f.bin"); !bytes.Equal(got, data) {
			t.Fatalf("round trip: %d vs %d bytes", len(got), len(data))
		}
	})
}

func TestConformanceHierarchy(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		if err := v.Mkdir("/a", 0755); err != nil {
			t.Fatal(err)
		}
		if err := v.Mkdir("/a/b", 0755); err != nil {
			t.Fatal(err)
		}
		write(t, v, "/a/b/c.txt", []byte("nested"))
		if got := read(t, v, "/a/b/c.txt"); string(got) != "nested" {
			t.Fatalf("got %q", got)
		}
		ents, err := v.ReadDir("/a")
		if err != nil || len(ents) != 1 || ents[0].Name != "b" {
			t.Fatalf("readdir: %v %v", ents, err)
		}
		if err := v.Mkdir("/a", 0755); !errors.Is(err, vfs.ErrExist) {
			t.Fatalf("dup mkdir: %v", err)
		}
	})
}

func TestConformanceUnlinkRmdirRename(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		write(t, v, "/x", []byte("1"))
		if err := v.Rename("/x", "/y"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Stat("/x"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatal("src survived rename")
		}
		if got := read(t, v, "/y"); string(got) != "1" {
			t.Fatalf("renamed content %q", got)
		}
		// Overwriting rename.
		write(t, v, "/z", []byte("2"))
		if err := v.Rename("/y", "/z"); err != nil {
			t.Fatal(err)
		}
		if got := read(t, v, "/z"); string(got) != "1" {
			t.Fatalf("overwrite rename content %q", got)
		}
		if err := v.Unlink("/z"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Stat("/z"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatal("file survived unlink")
		}
		_ = v.Mkdir("/d", 0755)
		write(t, v, "/d/f", []byte("x"))
		if err := v.Rmdir("/d"); !errors.Is(err, vfs.ErrNotEmpty) {
			t.Fatalf("rmdir non-empty: %v", err)
		}
		_ = v.Unlink("/d/f")
		if err := v.Rmdir("/d"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceSparseAndOverwrite(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		fd, err := v.Open("/sparse", vfs.O_RDWR|vfs.O_CREATE, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Pwrite(fd, []byte("tail"), 20000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if _, err := v.Pread(fd, buf, 4096); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, 8)) {
			t.Fatalf("hole = %v", buf)
		}
		if _, err := v.Pwrite(fd, []byte("head"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Pread(fd, buf[:4], 0); err != nil {
			t.Fatal(err)
		}
		if string(buf[:4]) != "head" {
			t.Fatalf("overwrite = %q", buf[:4])
		}
		_ = v.Close(fd)
		attr, _ := v.Stat("/sparse")
		if attr.Size != 20004 {
			t.Fatalf("size = %d", attr.Size)
		}
	})
}

func TestConformanceLargeFile(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		// >12 blocks forces indirect blocks on ext3 / several extents.
		data := make([]byte, 300*1024)
		for i := range data {
			data[i] = byte(i * 13)
		}
		write(t, v, "/large", data)
		if got := read(t, v, "/large"); !bytes.Equal(got, data) {
			t.Fatal("large round trip failed")
		}
	})
}

func TestConformanceManyFilesInDir(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		const n = 200 // spans several directory blocks
		for i := 0; i < n; i++ {
			write(t, v, fmt.Sprintf("/f%03d", i), []byte{byte(i)})
		}
		ents, err := v.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != n {
			t.Fatalf("dir entries = %d, want %d", len(ents), n)
		}
		// Delete half, verify the rest.
		for i := 0; i < n; i += 2 {
			if err := v.Unlink(fmt.Sprintf("/f%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < n; i += 2 {
			if got := read(t, v, fmt.Sprintf("/f%03d", i)); got[0] != byte(i) {
				t.Fatalf("file %d corrupted", i)
			}
		}
	})
}

func TestConformanceAppendMode(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		write(t, v, "/log", []byte("one\n"))
		fd, err := v.Open("/log", vfs.O_RDWR|vfs.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Write(fd, []byte("two\n")); err != nil {
			t.Fatal(err)
		}
		_ = v.Close(fd)
		if got := read(t, v, "/log"); string(got) != "one\ntwo\n" {
			t.Fatalf("append result %q", got)
		}
	})
}

func TestConformanceTruncate(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		write(t, v, "/t", bytes.Repeat([]byte("abcd"), 3000))
		fd, err := v.Open("/t", vfs.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Ftruncate(fd, 100); err != nil {
			t.Fatal(err)
		}
		_ = v.Close(fd)
		got := read(t, v, "/t")
		if len(got) != 100 {
			t.Fatalf("len after truncate = %d", len(got))
		}
		// Re-extend: exposed region must read zeros.
		fd, _ = v.Open("/t", vfs.O_RDWR, 0)
		if _, err := v.Pwrite(fd, []byte("!"), 5000); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 10)
		if _, err := v.Pread(fd, buf, 200); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, 10)) {
			t.Fatalf("stale bytes after truncate+extend: %v", buf)
		}
		_ = v.Close(fd)
	})
}

func TestConformancePermissions(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		write(t, v, "/p", []byte("x"))
		if err := v.Chmod("/p", 0444); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Open("/p", vfs.O_RDWR, 0); !errors.Is(err, vfs.ErrPerm) {
			t.Fatalf("write-open ro: %v", err)
		}
		if fd, err := v.Open("/p", vfs.O_RDONLY, 0); err != nil {
			t.Fatal(err)
		} else {
			_ = v.Close(fd)
		}
	})
}

func TestConformanceBadFD(t *testing.T) {
	eachFS(t, func(t *testing.T, v *vfs.VFS) {
		if _, err := v.Read(42, make([]byte, 4)); !errors.Is(err, vfs.ErrBadFD) {
			t.Fatalf("bad fd read: %v", err)
		}
		if err := v.Close(-1); !errors.Is(err, vfs.ErrBadFD) {
			t.Fatalf("bad fd close: %v", err)
		}
	})
}

func TestAccountingCoversCategories(t *testing.T) {
	v := vfs.New(ramfs.New(), vfs.Config{Accounting: true})
	for i := 0; i < 200; i++ {
		write(t, v, fmt.Sprintf("/a%d", i), []byte("x"))
		_, _ = v.Stat(fmt.Sprintf("/a%d", i))
	}
	totals, ops := v.Accounting().Snapshot()
	if ops == 0 {
		t.Fatal("no ops accounted")
	}
	sum := int64(0)
	for _, d := range totals {
		sum += int64(d)
	}
	if sum == 0 {
		t.Fatal("no time accounted")
	}
	// Naming and memory-object categories must be represented on a
	// path-heavy workload.
	if totals[vfs.CatNaming] == 0 || totals[vfs.CatMemObj] == 0 {
		t.Fatalf("breakdown missing categories: %v", totals)
	}
}

func TestDropCachesForcesMisses(t *testing.T) {
	v := vfs.New(ramfs.New(), vfs.Config{})
	write(t, v, "/f", []byte("x"))
	_, _ = v.Stat("/f")
	hitsBefore := v.DcacheHits.Load()
	_, _ = v.Stat("/f")
	if v.DcacheHits.Load() == hitsBefore {
		t.Fatal("warm stat missed the dcache")
	}
	v.DropCaches()
	missesBefore := v.DcacheMisses.Load()
	_, _ = v.Stat("/f")
	if v.DcacheMisses.Load() == missesBefore {
		t.Fatal("cold stat hit a dropped cache")
	}
}
