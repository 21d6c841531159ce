package pxfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
)

func newFS(t *testing.T, opts Options) (*FS, *core.System) {
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
	return newClient(t, sys, 1000, opts), sys
}

func newClient(t *testing.T, sys *core.System, uid uint32, opts Options) *FS {
	t.Helper()
	s, err := sys.NewSession(libfs.Config{UID: uid, BatchLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return New(s, opts)
}

func writeFile(t *testing.T, fs *FS, path string, data []byte) {
	t.Helper()
	f, err := fs.Create(path, 0644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func readFile(t *testing.T, fs *FS, path string) []byte {
	t.Helper()
	f, err := fs.Open(path, O_RDONLY)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var buf bytes.Buffer
	tmp := make([]byte, 8192)
	for {
		n, err := f.Read(tmp)
		buf.Write(tmp[:n])
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
	}
	return buf.Bytes()
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	fs, _ := newFS(t, Options{NameCache: true})
	data := bytes.Repeat([]byte("hello scm "), 1000)
	writeFile(t, fs, "/f.txt", data)
	if got := readFile(t, fs, "/f.txt"); !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %d vs %d bytes", len(got), len(data))
	}
}

func TestMkdirHierarchyAndReadDir(t *testing.T) {
	fs, _ := newFS(t, Options{NameCache: true})
	if err := fs.Mkdir("/a", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a/b", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fs, "/a/b/deep.txt", []byte("deep"))
	writeFile(t, fs, "/a/top.txt", []byte("top"))
	ents, err := fs.ReadDir("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "b" || ents[1].Name != "top.txt" {
		t.Fatalf("readdir = %+v", ents)
	}
	if !ents[0].IsDir || ents[1].IsDir {
		t.Fatal("IsDir flags wrong")
	}
	if got := readFile(t, fs, "/a/b/deep.txt"); string(got) != "deep" {
		t.Fatalf("deep read = %q", got)
	}
}

func TestMkdirErrors(t *testing.T) {
	fs, _ := newFS(t, Options{})
	if err := fs.Mkdir("/a", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a", 0755); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	if err := fs.Mkdir("/missing/b", 0755); !errors.Is(err, ErrNotExist) {
		t.Fatalf("mkdir under missing: %v", err)
	}
	writeFile(t, fs, "/file", []byte("x"))
	if err := fs.Mkdir("/file/sub", 0755); !errors.Is(err, ErrNotDir) {
		t.Fatalf("mkdir under file: %v", err)
	}
}

func TestUnlinkAndErrors(t *testing.T) {
	fs, _ := newFS(t, Options{})
	writeFile(t, fs, "/f", []byte("x"))
	if err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/f", O_RDONLY); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open after unlink: %v", err)
	}
	if err := fs.Unlink("/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double unlink: %v", err)
	}
	if err := fs.Mkdir("/d", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("unlink dir: %v", err)
	}
}

func TestRmdir(t *testing.T) {
	fs, _ := newFS(t, Options{})
	if err := fs.Mkdir("/d", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fs, "/d/f", []byte("x"))
	if err := fs.Rmdir("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := fs.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/d"); err != nil {
		t.Fatalf("rmdir empty: %v", err)
	}
	if _, err := fs.Stat("/d"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("stat after rmdir: %v", err)
	}
}

func TestRenameWithinAndAcrossDirs(t *testing.T) {
	fs, _ := newFS(t, Options{NameCache: true})
	_ = fs.Mkdir("/src", 0755)
	_ = fs.Mkdir("/dst", 0755)
	writeFile(t, fs, "/src/f", []byte("payload"))
	if err := fs.Rename("/src/f", "/src/g"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "/src/g"); string(got) != "payload" {
		t.Fatalf("after same-dir rename: %q", got)
	}
	if err := fs.Rename("/src/g", "/dst/h"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "/dst/h"); string(got) != "payload" {
		t.Fatalf("after cross-dir rename: %q", got)
	}
	if _, err := fs.Stat("/src/g"); !errors.Is(err, ErrNotExist) {
		t.Fatal("source survived rename")
	}
	// Overwriting rename.
	writeFile(t, fs, "/dst/victim", []byte("old"))
	if err := fs.Rename("/dst/h", "/dst/victim"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "/dst/victim"); string(got) != "payload" {
		t.Fatalf("after overwrite rename: %q", got)
	}
}

func TestStatFields(t *testing.T) {
	fs, _ := newFS(t, Options{})
	writeFile(t, fs, "/s", bytes.Repeat([]byte("a"), 12345))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/s")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 12345 || fi.IsDir || fi.Mode != 0644 || fi.Links != 1 {
		t.Fatalf("stat = %+v", fi)
	}
	di, err := fs.Stat("/")
	if err != nil {
		t.Fatal(err)
	}
	if !di.IsDir {
		t.Fatal("root not a dir")
	}
}

// TestStatSeesStagedHeaders: before its ops ship, a client's Stat answers
// from them: a new directory and a written, closed file have one link and
// the file the mtime its close stamped, and an unlinked file it still has
// open has none. After Sync SCM gives the same answers, and the directory
// the mtime of the batch that inserted into it.
func TestStatSeesStagedHeaders(t *testing.T) {
	fs, _ := newFS(t, Options{})
	t0 := time.Now()
	if err := fs.Mkdir("/d", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fs, "/d/f", []byte("data"))
	closed := time.Now()
	g, err := fs.Create("/d/g", 0644)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := fs.Unlink("/d/g"); err != nil {
		t.Fatal(err)
	}
	var mtime time.Time
	check := func(when string) {
		t.Helper()
		for _, p := range []string{"/d", "/d/f"} {
			if fi, err := fs.Stat(p); err != nil || fi.Links != 1 {
				t.Fatalf("%s: %s has %d links (%v), want 1", when, p, fi.Links, err)
			}
		}
		fi, err := fs.Stat("/d/f")
		if err != nil {
			t.Fatal(err)
		}
		if mtime.IsZero() {
			mtime = fi.MTime
		}
		if fi.MTime.Before(t0) || fi.MTime.After(closed) || !fi.MTime.Equal(mtime) {
			t.Fatalf("%s: /d/f mtime %v, want its close's %v, within [%v, %v]", when, fi.MTime, mtime, t0, closed)
		}
		if gi, err := g.Stat(); err != nil || gi.Links != 0 {
			t.Fatalf("%s: unlinked open file has %d links (%v), want 0", when, gi.Links, err)
		}
	}
	check("before Sync")
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	t1 := time.Now()
	check("after Sync")
	if di, err := fs.Stat("/d"); err != nil || di.MTime.Before(t0) || di.MTime.After(t1) {
		t.Fatalf("after Sync: /d mtime %v (%v), want within [%v, %v]", di.MTime, err, t0, t1)
	}
}

func TestSeekAppendTruncate(t *testing.T) {
	fs, _ := newFS(t, Options{})
	writeFile(t, fs, "/f", []byte("0123456789"))
	f, err := fs.OpenFile("/f", O_RDWR|O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 13)
	if _, err := io.ReadFull(f, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "0123456789abc" {
		t.Fatalf("append result %q", buf)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if size, _ := f.Size(); size != 4 {
		t.Fatalf("size after truncate = %d", size)
	}
	_ = f.Close()
	if got := readFile(t, fs, "/f"); string(got) != "0123" {
		t.Fatalf("after truncate: %q", got)
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	fs, _ := newFS(t, Options{})
	f, err := fs.Create("/sparse", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("end"), 100000); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	got := readFile(t, fs, "/sparse")
	if len(got) != 100003 {
		t.Fatalf("sparse size = %d", len(got))
	}
	for i := 0; i < 100000; i += 4096 {
		if got[i] != 0 {
			t.Fatalf("hole at %d = %d", i, got[i])
		}
	}
	if string(got[100000:]) != "end" {
		t.Fatal("tail wrong")
	}
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	fs, _ := newFS(t, Options{})
	if _, err := fs.Open("/nope", O_RDONLY); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}
}

func TestWriteToReadOnlyHandle(t *testing.T) {
	fs, _ := newFS(t, Options{})
	writeFile(t, fs, "/f", []byte("x"))
	f, err := fs.Open("/f", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("y")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on rdonly: %v", err)
	}
}

func TestPermissionDenied(t *testing.T) {
	fs, _ := newFS(t, Options{})
	writeFile(t, fs, "/locked", []byte("x"))
	if err := fs.Chmod("/locked", 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/locked", O_RDONLY); !errors.Is(err, ErrPerm) {
		t.Fatalf("open no-perm file: %v", err)
	}
	if err := fs.Chmod("/locked", 0444, false); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/locked", O_RDWR); !errors.Is(err, ErrPerm) {
		t.Fatalf("write-open ro file: %v", err)
	}
	f, err := fs.Open("/locked", O_RDONLY)
	if err != nil {
		t.Fatalf("read-open ro file: %v", err)
	}
	_ = f.Close()
}

func TestUnlinkWhileOpenKeepsData(t *testing.T) {
	fs, _ := newFS(t, Options{})
	writeFile(t, fs, "/ghost", []byte("still here"))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/ghost", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/ghost"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Name gone, contents alive through the open handle (§6.1).
	if _, err := fs.Stat("/ghost"); !errors.Is(err, ErrNotExist) {
		t.Fatal("name survived unlink")
	}
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("read after unlink: %v", err)
	}
	if string(buf) != "still here" {
		t.Fatalf("contents after unlink: %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoClientsShareThroughPXFS(t *testing.T) {
	fs1, sys := newFS(t, Options{NameCache: true})
	fs2 := newClient(t, sys, 1001, Options{NameCache: true})
	writeFile(t, fs1, "/shared.txt", []byte("from client 1"))
	// Client 2's open triggers revocation of client 1's cached locks,
	// shipping the metadata (§4.3).
	if got := readFile(t, fs2, "/shared.txt"); string(got) != "from client 1" {
		t.Fatalf("client2 read %q", got)
	}
	// Client 2 modifies; client 1 observes.
	f, err := fs2.OpenFile("/shared.txt", O_RDWR|O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" + client 2")); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if got := readFile(t, fs1, "/shared.txt"); string(got) != "from client 1 + client 2" {
		t.Fatalf("client1 reread %q", got)
	}
}

func TestNameCacheHitsAndRevocationFlush(t *testing.T) {
	fs1, sys := newFS(t, Options{NameCache: true})
	_ = fs1.Mkdir("/deep", 0755)
	_ = fs1.Mkdir("/deep/deeper", 0755)
	writeFile(t, fs1, "/deep/deeper/leaf", []byte("x"))
	for i := 0; i < 5; i++ {
		_, _ = fs1.Stat("/deep/deeper/leaf")
	}
	if fs1.CacheHits == 0 {
		t.Fatal("no name-cache hits")
	}
	// Another client's conflicting access revokes locks and must flush
	// the cache.
	fs2 := newClient(t, sys, 1001, Options{})
	writeFile(t, fs2, "/deep/deeper/other", []byte("y"))
	_, _ = fs1.Stat("/deep/deeper/leaf")
	if fs1.CacheFlush == 0 {
		t.Fatal("cache never flushed on revocation")
	}
}

func TestRelativePathsAndChdir(t *testing.T) {
	fs, _ := newFS(t, Options{NameCache: true})
	_ = fs.Mkdir("/wd", 0755)
	if err := fs.Chdir("/wd"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, fs, "rel.txt", []byte("relative"))
	if got := readFile(t, fs, "/wd/rel.txt"); string(got) != "relative" {
		t.Fatalf("relative create: %q", got)
	}
	if got := readFile(t, fs, "rel.txt"); string(got) != "relative" {
		t.Fatalf("relative open: %q", got)
	}
}

func TestManySmallFiles(t *testing.T) {
	fs, _ := newFS(t, Options{NameCache: true})
	const n = 300
	for i := 0; i < n; i++ {
		writeFile(t, fs, fmt.Sprintf("/file-%03d", i), []byte(fmt.Sprintf("content %d", i)))
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("root has %d entries, want %d", len(ents), n)
	}
	for i := 0; i < n; i += 37 {
		want := fmt.Sprintf("content %d", i)
		if got := readFile(t, fs, fmt.Sprintf("/file-%03d", i)); string(got) != want {
			t.Fatalf("file %d = %q", i, got)
		}
	}
}

func TestLargeFileMultiBlock(t *testing.T) {
	fs, _ := newFS(t, Options{})
	data := make([]byte, 3*1024*1024) // 3 MiB spans many extents, depth 2 radix
	for i := range data {
		data[i] = byte(i * 7)
	}
	writeFile(t, fs, "/big", data)
	if got := readFile(t, fs, "/big"); !bytes.Equal(got, data) {
		t.Fatal("large file round trip failed")
	}
}

func TestLargeExtentOption(t *testing.T) {
	fs, _ := newFS(t, Options{NameCache: true, ExtentLog: 16}) // 64 KB extents
	data := make([]byte, 300*1024)
	for i := range data {
		data[i] = byte(i * 11)
	}
	writeFile(t, fs, "/big-extents", data)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "/big-extents"); !bytes.Equal(got, data) {
		t.Fatal("round trip with 64KB extents failed")
	}
	// Sparse behavior still holds with large extents.
	f, err := fs.Create("/sparse64", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 200000); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, 70000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatal("hole not zero with large extents")
	}
	_ = f.Close()
}

// TestTruncateThenWriteThenSync is a regression test for a batched-update
// ordering bug: a staged truncate used to zero the kept block's tail when
// the TFS applied the batch, destroying bytes that a later write in the
// same batch had already put there in place. Found by the differential
// conformance suite (internal/conformance).
func TestTruncateThenWriteThenSync(t *testing.T) {
	fs, _ := newFS(t, Options{})
	data := make([]byte, 6455)
	for i := range data {
		data[i] = byte(i)
	}
	writeFile(t, fs, "/t.bin", data)

	f, err := fs.OpenFile("/t.bin", O_RDWR, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(741); err != nil {
		t.Fatal(err)
	}
	over := bytes.Repeat([]byte{0xAA}, 597)
	if _, err := f.WriteAt(over, 398); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	got := readFile(t, fs, "/t.bin")
	want := make([]byte, 995)
	copy(want, data[:741])
	copy(want[398:], over)
	if !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("content diverged at byte %d after sync: got %#02x want %#02x", i, got[i], want[i])
			}
		}
		t.Fatalf("length mismatch: got %d want %d", len(got), len(want))
	}
}

// TestTruncateGrowExposesZeros pins POSIX grow semantics across a sync:
// shrinking then extending must expose zeros between the old and new EOF.
func TestTruncateGrowExposesZeros(t *testing.T) {
	fs, _ := newFS(t, Options{})
	data := bytes.Repeat([]byte{0xEE}, 5000)
	writeFile(t, fs, "/g.bin", data)
	f, err := fs.OpenFile("/g.bin", O_RDWR, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err = fs.OpenFile("/g.bin", O_RDWR, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(3000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, fs, "/g.bin")
	want := make([]byte, 3000)
	copy(want, data[:100])
	if !bytes.Equal(got, want) {
		t.Fatal("grow after shrink exposed stale bytes")
	}
}
