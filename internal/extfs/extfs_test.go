package extfs

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/aerie-fs/aerie/internal/blockdev"
)

func mkfs(t *testing.T, mode Mode, track bool) (*FS, *blockdev.Disk) {
	t.Helper()
	disk := blockdev.New(8192, nil, track)
	t.Cleanup(func() { disk.Close() })
	fs, err := Mkfs(disk, mode)
	if err != nil {
		t.Fatal(err)
	}
	return fs, disk
}

func TestMkfsAndRemount(t *testing.T) {
	for _, mode := range []Mode{Ext3, Ext4} {
		t.Run(mode.String(), func(t *testing.T) {
			fs, disk := mkfs(t, mode, false)
			ino, err := fs.Create(fs.Root(), "hello", 0644, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.WriteAt(ino, []byte("persisted"), 0); err != nil {
				t.Fatal(err)
			}
			fs2, err := Mount(disk)
			if err != nil {
				t.Fatal(err)
			}
			if fs2.Mode() != mode {
				t.Fatalf("mode = %v", fs2.Mode())
			}
			got, err := fs2.Lookup(fs2.Root(), "hello")
			if err != nil || got != ino {
				t.Fatalf("lookup after remount: %v %v", got, err)
			}
			buf := make([]byte, 9)
			if _, err := fs2.ReadAt(got, buf, 0); err != nil || string(buf) != "persisted" {
				t.Fatalf("read after remount: %q %v", buf, err)
			}
		})
	}
}

// TestJournalCrashConsistency crashes the device at arbitrary points within
// a metadata-heavy run and verifies that remount always yields a file
// system where every pre-crash committed operation is visible and intact.
func TestJournalCrashConsistency(t *testing.T) {
	for _, mode := range []Mode{Ext3, Ext4} {
		t.Run(mode.String(), func(t *testing.T) {
			fs, disk := mkfs(t, mode, true)
			// Commit a batch of creates with content; each op's commit
			// makes it durable.
			var want []string
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("file-%02d", i)
				ino, err := fs.Create(fs.Root(), name, 0644, false)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fs.WriteAt(ino, []byte(name), 0); err != nil {
					t.Fatal(err)
				}
				want = append(want, name)
			}
			disk.Crash()
			fs2, err := Mount(disk)
			if err != nil {
				t.Fatalf("mount after crash: %v", err)
			}
			for _, name := range want {
				ino, err := fs2.Lookup(fs2.Root(), name)
				if err != nil {
					t.Fatalf("%s lost in crash: %v", name, err)
				}
				buf := make([]byte, len(name))
				if _, err := fs2.ReadAt(ino, buf, 0); err != nil || string(buf) != name {
					t.Fatalf("%s content after crash: %q %v", name, buf, err)
				}
			}
			// The recovered FS keeps working.
			if _, err := fs2.Create(fs2.Root(), "post-crash", 0644, false); err != nil {
				t.Fatalf("create after recovery: %v", err)
			}
		})
	}
}

func TestDeleteReclaimsBlocks(t *testing.T) {
	fs, _ := mkfs(t, Ext4, false)
	// Fill a large file, delete it, and make sure the space is reusable
	// repeatedly (no block leaks).
	payload := bytes.Repeat([]byte("x"), 1<<20)
	for round := 0; round < 12; round++ {
		ino, err := fs.Create(fs.Root(), "big", 0644, false)
		if err != nil {
			t.Fatalf("round %d create: %v", round, err)
		}
		if _, err := fs.WriteAt(ino, payload, 0); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		if err := fs.Unlink(fs.Root(), "big", false); err != nil {
			t.Fatalf("round %d unlink: %v", round, err)
		}
	}
}

func TestExt3IndirectBoundaries(t *testing.T) {
	fs, _ := mkfs(t, Ext3, false)
	ino, err := fs.Create(fs.Root(), "deep", 0644, false)
	if err != nil {
		t.Fatal(err)
	}
	// Write single bytes at direct, indirect, and double-indirect
	// boundaries.
	offsets := []uint64{
		0,
		11 * blockSize,               // last direct
		12 * blockSize,               // first indirect
		(12 + 511) * blockSize,       // last single-indirect
		(12 + 512) * blockSize,       // first double-indirect
		(12 + 512 + 700) * blockSize, // inside double-indirect
	}
	for i, off := range offsets {
		tag := []byte{byte(i + 1)}
		if _, err := fs.WriteAt(ino, tag, off); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	for i, off := range offsets {
		buf := make([]byte, 1)
		if _, err := fs.ReadAt(ino, buf, off); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("offset %d = %d, want %d", off, buf[0], i+1)
		}
	}
}

func TestExt4ExtentMerging(t *testing.T) {
	fs, _ := mkfs(t, Ext4, false)
	ino, err := fs.Create(fs.Root(), "seq", 0644, false)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential writes should coalesce into few extents rather than
	// spilling (this is ext4's layout advantage).
	payload := bytes.Repeat([]byte("s"), 64*blockSize)
	if _, err := fs.WriteAt(ino, payload, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	rec, err := fs.readInode(ino, buf)
	if err != nil {
		t.Fatal(err)
	}
	nIn := uint32(rec[e4NInline]) // low byte is enough for small counts
	nSp := uint32(rec[e4NSpill])
	if nSp != 0 || nIn > 3 {
		t.Fatalf("sequential write fragmented: inline=%d spill=%d", nIn, nSp)
	}
}

func TestOutOfSpace(t *testing.T) {
	disk := blockdev.New(600, nil, false) // tiny disk
	defer disk.Close()
	fs, err := Mkfs(disk, Ext4)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create(fs.Root(), "hog", 0644, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), blockSize)
	var werr error
	for i := 0; i < 1000; i++ {
		if _, werr = fs.WriteAt(ino, payload, uint64(i)*blockSize); werr != nil {
			break
		}
	}
	if werr == nil {
		t.Fatal("tiny disk never filled")
	}
}
