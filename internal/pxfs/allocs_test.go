package pxfs

import (
	"io"
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: opening, reading and closing a file whose directory is in
// the name cache — read_fit's operation — splits the path in place, keys
// the cache with a slice of the path, looks the leaf up through a
// collection handle on the stack, takes cached locks and counts the open in
// a by-value table slot. The one allocation left is the *File handle Open
// returns, which outlives the call by design. A warm Stat of the same file,
// which read_fit makes on every op, reads its header through the session's
// staged view and allocates nothing.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const ceiling, statCeiling = 1, 0
	fs, _ := newFS(t, Options{NameCache: true})
	// Two levels, so a cache key joined from components (rather than
	// sliced from the path) would allocate.
	for _, d := range []string{"/dir", "/dir/sub"} {
		if err := fs.Mkdir(d, 0755); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, fs, "/dir/sub/file", make([]byte, 16<<10))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	openReadClose := func() {
		f, err := fs.Open("/dir/sub/file", O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Read(buf); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	openReadClose() // warm the name cache and the clerk
	got := testing.AllocsPerRun(100, openReadClose)
	t.Logf("Open+Read+Close: %.1f allocs/op", got)
	if got > ceiling {
		t.Errorf("Open+Read+Close: %.1f allocs/op, ceiling %d", got, ceiling)
	}
	stat := func() {
		if _, err := fs.Stat("/dir/sub/file"); err != nil {
			t.Fatal(err)
		}
	}
	got = testing.AllocsPerRun(100, stat)
	t.Logf("Stat: %.2f allocs/op", got)
	if got > statCeiling {
		t.Errorf("Stat: %.2f allocs/op, ceiling %d", got, statCeiling)
	}
}
