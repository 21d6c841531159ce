package flatfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

func newSys(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.New(core.Options{
		ArenaSize:      64 << 20,
		Lease:          time.Second,
		AcquireTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func newFlat(t *testing.T, sys *core.System, uid uint32) *FS {
	t.Helper()
	s, err := sys.NewSession(libfs.Config{UID: uid, BatchLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return New(s, Options{})
}

func TestPutGetEraseRoundTrip(t *testing.T) {
	fs := newFlat(t, newSys(t), 1000)
	if err := fs.Put("msg:1", []byte("hello flat world")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get("msg:1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello flat world" {
		t.Fatalf("get = %q", got)
	}
	if err := fs.Erase("msg:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("msg:1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after erase: %v", err)
	}
	if err := fs.Erase("msg:1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double erase: %v", err)
	}
}

func TestPutOverwriteGrowAndShrink(t *testing.T) {
	fs := newFlat(t, newSys(t), 1000)
	if err := fs.Put("k", []byte("short")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("grow "), 10000) // outgrows the first extent
	if err := fs.Put("k", big); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get("k")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("after grow: %d bytes, err %v", len(got), err)
	}
	if err := fs.Put("k", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, err = fs.Get("k")
	if err != nil || string(got) != "tiny" {
		t.Fatalf("after shrink: %q, err %v", got, err)
	}
}

func TestEmptyValueAndBadKeys(t *testing.T) {
	fs := newFlat(t, newSys(t), 1000)
	if err := fs.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty get: %q %v", got, err)
	}
	if err := fs.Put("", []byte("x")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("empty key: %v", err)
	}
	long := make([]byte, 500)
	if err := fs.Put(string(long), []byte("x")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("long key: %v", err)
	}
}

func TestManyKeysAcrossRehash(t *testing.T) {
	fs := newFlat(t, newSys(t), 1000)
	const n = 500 // crosses several growth escalations
	for i := 0; i < n; i++ {
		if err := fs.Put(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("value %d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if fs.Escalations.Load() == 0 {
		t.Fatal("growth never escalated to the collection lock")
	}
	for i := 0; i < n; i += 17 {
		got, err := fs.Get(fmt.Sprintf("key-%04d", i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if string(got) != fmt.Sprintf("value %d", i) {
			t.Fatalf("get %d = %q", i, got)
		}
	}
	keys, err := fs.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("keys = %d, want %d", len(keys), n)
	}
}

func TestHasAndCount(t *testing.T) {
	fs := newFlat(t, newSys(t), 1000)
	_ = fs.Put("a", []byte("1"))
	_ = fs.Put("b", []byte("2"))
	if ok, _ := fs.Has("a"); !ok {
		t.Fatal("missing a")
	}
	if ok, _ := fs.Has("zz"); ok {
		t.Fatal("phantom key")
	}
	if n, _ := fs.Count(); n != 2 {
		t.Fatalf("count = %d", n)
	}
}

func TestTwoClientsShareFlatNamespace(t *testing.T) {
	sys := newSys(t)
	a := newFlat(t, sys, 1000)
	b := newFlat(t, sys, 1001)
	if err := a.Put("from-a", []byte("A")); err != nil {
		t.Fatal(err)
	}
	// b's access revokes a's locks, shipping the update.
	got, err := b.Get("from-a")
	if err != nil || string(got) != "A" {
		t.Fatalf("b get: %q %v", got, err)
	}
	if err := b.Put("from-a", []byte("B was here")); err != nil {
		t.Fatal(err)
	}
	got, err = a.Get("from-a")
	if err != nil || string(got) != "B was here" {
		t.Fatalf("a reread: %q %v", got, err)
	}
}

func TestConcurrentPutsDistinctKeys(t *testing.T) {
	// Threads within one client writing distinct keys proceed under
	// bucket locks (the §6.2 scalability mechanism).
	fs := newFlat(t, newSys(t), 1000)
	// Preload so the table is big enough that keys spread over buckets.
	for i := 0; i < 64; i++ {
		if err := fs.Put(fmt.Sprintf("pre-%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				if err := fs.Put(k, []byte(k)); err != nil {
					errs <- err
					return
				}
				got, err := fs.Get(k)
				if err != nil || string(got) != k {
					errs <- fmt.Errorf("get %s = %q %v", k, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("w%d-k%d", w, i)
			if got, err := fs.Get(k); err != nil || string(got) != k {
				t.Fatalf("final get %s: %q %v", k, got, err)
			}
		}
	}
}

func TestFlatAndPXFSShareLayout(t *testing.T) {
	// §6.2: the flat namespace appears to PXFS as a single global
	// directory; both interfaces access the same files.
	sys := newSys(t)
	s, err := sys.NewSession(libfs.Config{UID: 1000, BatchLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	flat := New(s, Options{})
	px := pxfs.New(s, pxfs.Options{})

	if err := flat.Put("crossover.txt", []byte("seen by both")); err != nil {
		t.Fatal(err)
	}
	if err := flat.Sync(); err != nil {
		t.Fatal(err)
	}
	// PXFS reads the same file through open/read.
	f, err := px.Open("/crossover.txt", pxfs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	if _, err := f.ReadAt(buf, 0); err != nil && err.Error() != "EOF" {
		t.Fatal(err)
	}
	if string(buf) != "seen by both" {
		t.Fatalf("pxfs view: %q", buf)
	}
	_ = f.Close()
	// And PXFS-created files are gettable through FlatFS.
	pf, err := px.Create("/from-pxfs.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pf.Write([]byte("posix file")); err != nil {
		t.Fatal(err)
	}
	_ = pf.Close()
	got, err := flat.Get("from-pxfs.txt")
	if err != nil || string(got) != "posix file" {
		t.Fatalf("flat view of pxfs file: %q %v", got, err)
	}
}

// TestCrashRecoveryFlat mirrors the PXFS crash test for the specialized
// interface: synced puts survive a machine crash byte-for-byte, unsynced
// churn vanishes cleanly, and fsck finds a consistent volume.
func TestCrashRecoveryFlat(t *testing.T) {
	sys, err := core.New(core.Options{
		ArenaSize:        64 << 20,
		TrackPersistence: true,
		Lease:            time.Second,
		AcquireTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := sys.NewSession(libfs.Config{UID: 1000, BatchLimit: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fs := New(s, Options{})
	durable := map[string][]byte{}
	for i := 0; i < 80; i++ {
		k := fmt.Sprintf("key-%02d", i%25)
		v := bytes.Repeat([]byte{byte(i)}, (i%40+1)*100)
		if err := fs.Put(k, v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		durable[k] = v
		if i%7 == 0 {
			if err := fs.Erase(k); err != nil {
				t.Fatal(err)
			}
			delete(durable, k)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced churn to be discarded by the crash.
	for i := 0; i < 10; i++ {
		_ = fs.Put(fmt.Sprintf("unsynced-%d", i), []byte("gone"))
	}
	if err := sys.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Set.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks != rep.RepairedBlocks {
		t.Fatalf("fsck: %v", rep)
	}
	s2, err := sys.NewSession(libfs.Config{UID: 1001})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fs2 := New(s2, Options{})
	for k, want := range durable {
		got, err := fs2.Get(k)
		if err != nil {
			t.Fatalf("synced key %s lost: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %s corrupted after crash", k)
		}
	}
	n, err := fs2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(durable) {
		t.Fatalf("count after crash = %d, want %d", n, len(durable))
	}
}
