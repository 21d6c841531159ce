package pxfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
)

// TestRandomizedWorkloadCrashRecoveryFsck drives a randomized POSIX workload,
// syncs part of it, crashes the machine, and verifies the recovered volume:
// every synced file is intact with its exact contents, the namespace is
// readable, fsck finds no corruption, and leaked storage (if any) is
// reclaimed. This is the whole-stack crash-consistency property: journal,
// shadow updates, allocation bitmap, and namespace recovery working
// together.
func TestRandomizedWorkloadCrashRecoveryFsck(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sys, err := core.New(core.Options{
				ArenaSize:        96 << 20,
				TrackPersistence: true,
				Lease:            time.Second,
				AcquireTimeout:   10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			sess, err := sys.NewSession(libfs.Config{UID: 1000, BatchLimit: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			fs := New(sess, Options{NameCache: true})
			rng := rand.New(rand.NewSource(seed))

			// Synced state we expect to survive: path -> contents.
			durable := map[string][]byte{}
			if err := fs.Mkdir("/d", 0755); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 120; step++ {
				name := fmt.Sprintf("/d/f%02d", rng.Intn(30))
				switch rng.Intn(4) {
				case 0, 1: // create/overwrite
					data := make([]byte, rng.Intn(30000)+1)
					rng.Read(data)
					f, err := fs.Create(name, 0644)
					if err != nil {
						t.Fatalf("step %d create: %v", step, err)
					}
					if _, err := f.Write(data); err != nil {
						t.Fatal(err)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
					durable[name] = data // provisional; real on next sync
				case 2: // delete
					err := fs.Unlink(name)
					if err != nil && !errors.Is(err, ErrNotExist) {
						t.Fatalf("step %d unlink: %v", step, err)
					}
					delete(durable, name)
				case 3: // rename within the directory
					dst := fmt.Sprintf("/d/f%02d", rng.Intn(30))
					if dst == name {
						continue
					}
					err := fs.Rename(name, dst)
					if errors.Is(err, ErrNotExist) {
						continue
					}
					if err != nil {
						t.Fatalf("step %d rename: %v", step, err)
					}
					durable[dst] = durable[name]
					delete(durable, name)
				}
			}
			// Ship everything accumulated so far; this is the durable
			// cut line.
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			synced := map[string][]byte{}
			for k, v := range durable {
				synced[k] = v
			}
			// More unsynced churn that the crash must discard without
			// corrupting anything.
			for i := 0; i < 20; i++ {
				f, err := fs.Create(fmt.Sprintf("/d/unsynced%02d", i), 0644)
				if err != nil {
					t.Fatal(err)
				}
				_, _ = f.Write(bytes.Repeat([]byte{9}, 5000))
				_ = f.Close()
			}

			if err := sys.CrashAndRecover(); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			// Fsck must pass, reclaiming anything the crash orphaned.
			rep, err := sys.Set.Fsck(true)
			if err != nil {
				t.Fatalf("fsck: %v", err)
			}
			if rep.LeakedBlocks != rep.RepairedBlocks {
				t.Fatalf("fsck left leaks: %v", rep)
			}

			// A fresh client verifies every synced file byte-for-byte.
			sess2, err := sys.NewSession(libfs.Config{UID: 1001})
			if err != nil {
				t.Fatal(err)
			}
			defer sess2.Close()
			fs2 := New(sess2, Options{})
			for name, want := range synced {
				f, err := fs2.Open(name, O_RDONLY)
				if err != nil {
					t.Fatalf("synced file %s lost: %v", name, err)
				}
				got := make([]byte, len(want))
				if _, err := f.ReadAt(got, 0); err != nil && err.Error() != "EOF" {
					t.Fatalf("read %s: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("synced file %s corrupted after crash", name)
				}
				size, _ := f.Size()
				if size != uint64(len(want)) {
					t.Fatalf("%s size %d, want %d", name, size, len(want))
				}
				_ = f.Close()
			}
			// Namespace has exactly the synced files (no phantoms from
			// the unsynced churn).
			ents, err := fs2.ReadDir("/d")
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != len(synced) {
				t.Fatalf("directory has %d entries after crash, want %d", len(ents), len(synced))
			}
			// And the recovered volume keeps working.
			f, err := fs2.Create("/d/post-crash", 0644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("alive")); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()
			if err := fs2.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
