package pxfs

import (
	"errors"
	"fmt"
	"testing"

	"github.com/aerie-fs/aerie/internal/sobj"
)

// TestNameCacheBoundedEviction checks that hitting the cache limit evicts a
// bounded batch rather than dropping the whole map: the cache stays close
// to full under a steady stream of new names.
func TestNameCacheBoundedEviction(t *testing.T) {
	const limit = 16
	fs, _ := newFS(t, Options{NameCache: true, CacheLimit: limit})
	oid := mustOID(t)
	for i := 0; i < 100; i++ {
		fs.cacheAdd(fmt.Sprintf("/f%03d", i), oid)
	}
	fs.mu.Lock()
	n := len(fs.nameCache)
	fs.mu.Unlock()
	if n > limit {
		t.Fatalf("cache size %d exceeds limit %d", n, limit)
	}
	// Batch eviction removes limit/8 entries per overflow, so the cache
	// never dips below limit - limit/8 - 1 entries.
	if n < limit-limit/8-1 {
		t.Fatalf("cache size %d: wholesale eviction?", n)
	}
	if fs.CacheEvicted == 0 {
		t.Fatal("expected evictions")
	}
}

func mustOID(t *testing.T) sobj.OID {
	t.Helper()
	oid, err := sobj.MakeOID(1<<20, sobj.TypeMFile)
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

// TestRenameDirDropsCachedDescendants: renaming a directory moves every
// path below it, so names cached through the old path must stop resolving
// — not only the directory's own key.
func TestRenameDirDropsCachedDescendants(t *testing.T) {
	fs, _ := newFS(t, Options{NameCache: true})
	for _, d := range []string{"/a", "/a/b"} {
		if err := fs.Mkdir(d, 0755); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, fs, "/a/b/f", []byte("x"))
	if _, err := fs.Stat("/a/b/f"); err != nil { // caches /a, /a/b, /a/b/f
		t.Fatal(err)
	}
	if err := fs.Rename("/a", "/c"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a/b/f", "/a/b", "/a"} {
		if _, err := fs.Stat(p); !errors.Is(err, ErrNotExist) {
			t.Fatalf("Stat(%q) after renaming /a away: %v, want ErrNotExist", p, err)
		}
	}
	if _, err := fs.Stat("/c/b/f"); err != nil {
		t.Fatalf("Stat at the new path: %v", err)
	}
}
