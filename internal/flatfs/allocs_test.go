package flatfs

import (
	"bytes"
	"testing"

	"github.com/aerie-fs/aerie/internal/race"
)

// TestAllocPins: a get of an existing key under cached locks copies the
// file into the caller's buffer and touches no heap; so does a put
// overwrite, which keeps its locks in plain values (no unlock closure) and
// whose staged update copies the key into the session's key arena.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	fs := newFlat(t, newSys(t), 1000)
	val := bytes.Repeat([]byte("v"), 256)
	if err := fs.Put("k", val); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(val))
	get := func() {
		got, err := fs.GetInto("k", buf)
		if err != nil || len(got) != len(val) {
			t.Fatal(len(got), err)
		}
	}
	get() // warm the clerk's cached grants
	if got := testing.AllocsPerRun(100, get); got != 0 {
		t.Errorf("warm GetInto: %v allocs/op, want 0", got)
	}

	// The overwrite's staged set-size keeps its key in the session's key
	// arena, so Put's []byte(key) stays on its stack. It was 1 when libfs
	// made a heap copy of the key for every staged op.
	const putCeiling = 0
	put := func() {
		if err := fs.Put("k", val); err != nil {
			t.Fatal(err)
		}
	}
	put()
	got := testing.AllocsPerRun(100, put)
	t.Logf("warm Put overwrite: %.2f allocs/op", got)
	if got > putCeiling {
		t.Errorf("warm Put overwrite: %.2f allocs/op, ceiling %d", got, putCeiling)
	}
}
