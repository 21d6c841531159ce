//go:build !linux

package scm

// Stub mapping layer for platforms without the mmap backend: volume files
// fail with ErrMapFailed, which callers (internal/core) turn into a graceful
// downgrade to the volatile arena, and volatile arenas live on the Go heap.

import (
	"fmt"
	"os"
)

const mmapSupported = false

func mapFile(f *os.File, n int, readonly bool) ([]byte, error) {
	return nil, fmt.Errorf("%w: mmap unsupported on this platform", ErrMapFailed)
}

func mapAnon(n int) ([]byte, error) {
	mapped.Add(int64(n))
	return make([]byte, n), nil
}

func unmap(b []byte) error {
	mapped.Add(-int64(len(b)))
	return nil
}

func msyncRange(full []byte, off, n uint64) error { return nil }
