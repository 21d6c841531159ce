package pxfs_test

import (
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

// TestUnlinkBufferedAppendsNoLeak is the regression test for a planner
// leak an aging run first exposed: growing a file by appends and unlinking it
// before the window flushes puts the attaches and the remove in one batch,
// and the unlink's plan-time extent walk cannot see extents the same batch
// attaches — every appended extent (and the tree nodes grown for them)
// leaked. The planner now defers the walk to apply time (jFreeObj) whenever
// the batch also changed the object's extent set.
func TestUnlinkBufferedAppendsNoLeak(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, AcquireTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fs := pxfs.New(sess, pxfs.Options{NameCache: true})
	buf := make([]byte, 64<<10)
	f, err := fs.Create("/log", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		f, err := fs.OpenFile("/log", pxfs.O_RDWR|pxfs.O_APPEND, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// No Sync: the appends are still buffered when the unlink ships, so
	// attaches and remove ride the same batch.
	if err := fs.Unlink("/log"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Set.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks != 0 {
		t.Fatalf("unlink of append-grown file leaked %d blocks", rep.LeakedBlocks)
	}
}
