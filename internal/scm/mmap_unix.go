//go:build linux

package scm

// Raw memory-mapping syscalls for every arena: the volume file, the volatile
// arena and its persistence shadow. Only this file (and its stub twin) touch
// the platform mmap interface; scm.go and volume.go are written against these
// helpers so unsupported platforms fall back to heap arenas and the volatile
// machine instead of failing the build.

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// mmapSupported reports whether this build can map volume files at all.
const mmapSupported = true

// mapFile maps n bytes of f at offset 0, shared, read-write unless readonly.
func mapFile(f *os.File, n int, readonly bool) ([]byte, error) {
	prot := syscall.PROT_READ
	if !readonly {
		prot |= syscall.PROT_WRITE
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, n, prot, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", n, err)
	}
	mapped.Add(int64(n))
	return b, nil
}

// mapAnon maps n zeroed bytes of shared anonymous memory, read-write: a
// volatile arena or its shadow, outside the Go heap. Pages cost nothing
// until first touched and are returned to the OS by unmap.
func mapAnon(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_ANONYMOUS)
	if err != nil {
		return nil, fmt.Errorf("mmap %d anonymous bytes: %w", n, err)
	}
	mapped.Add(int64(n))
	return b, nil
}

// unmap releases a mapping returned by mapFile or mapAnon (the whole slice,
// as returned: the kernel unmaps by base and length).
func unmap(b []byte) error {
	if b == nil {
		return nil
	}
	if err := syscall.Munmap(b); err != nil {
		return err
	}
	mapped.Add(-int64(len(b)))
	return nil
}

// msyncRange flushes the pages of full covering [off, off+n) to the backing
// file. off is aligned down to a page boundary, as msync requires.
func msyncRange(full []byte, off, n uint64) error {
	if n == 0 {
		return nil
	}
	pgoff := off &^ uint64(PageSize-1)
	end := off + n
	if end > uint64(len(full)) {
		end = uint64(len(full))
	}
	if pgoff >= end {
		return nil
	}
	return msync(full[pgoff:end])
}

// msync synchronously writes the mapped pages of b back to the file. The
// stdlib syscall package has no Msync wrapper on linux, so this issues the
// raw syscall; b's base is page-aligned because it comes from mapFile.
func msync(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return errno
	}
	return nil
}
