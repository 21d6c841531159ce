package scm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/obs"
)

func tmpVolPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.aerie")
}

// createAndClose makes a small volume, writes a recognizable pattern at
// addr 0 and near the end, fences, and closes cleanly.
func createAndClose(t *testing.T, path string, arena uint64) {
	t.Helper()
	v, err := CreateVolume(path, VolumeOptions{ArenaSize: arena})
	if err != nil {
		t.Fatalf("CreateVolume: %v", err)
	}
	m := v.Mem()
	if err := m.Write(0, []byte("persist-head")); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(m.Size()-16, []byte("persist-tail")); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(0, 16); err != nil {
		t.Fatal(err)
	}
	m.Fence()
	if err := v.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestVolumePersistsAcrossReopen(t *testing.T) {
	path := tmpVolPath(t)
	createAndClose(t, path, 1<<20)

	v, err := OpenVolume(path, VolumeOptions{})
	if err != nil {
		t.Fatalf("OpenVolume: %v", err)
	}
	defer v.Close()
	if v.WasDirty() {
		t.Fatalf("cleanly closed volume reopened dirty")
	}
	if v.Generation() != 2 {
		t.Fatalf("generation = %d, want 2 (create + reopen)", v.Generation())
	}
	m := v.Mem()
	buf := make([]byte, 12)
	if err := m.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "persist-head" {
		t.Fatalf("head read back %q", buf)
	}
	if err := m.Read(m.Size()-16, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "persist-tail" {
		t.Fatalf("tail read back %q", buf)
	}
}

func TestVolumeDirtyFlagSurvivesUncleanDeath(t *testing.T) {
	path := tmpVolPath(t)
	v, err := CreateVolume(path, VolumeOptions{ArenaSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Mem().Write(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	v.Mem().Fence()
	// No Close: simulate the process dying. Drop the mapping without
	// clearing the flag, as SIGKILL would.
	v.teardown()

	r, err := OpenVolume(path, VolumeOptions{})
	if err != nil {
		t.Fatalf("OpenVolume after unclean death: %v", err)
	}
	if !r.WasDirty() {
		t.Fatalf("dirty flag not set after unclean death")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh volume abandoned before Close reopens dirty too.
	v2, err := CreateVolume(path, VolumeOptions{ArenaSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	v2.teardown()
	r2, err := OpenVolume(path, VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.WasDirty() {
		t.Fatal("abandoned fresh volume reopened clean")
	}
	// After a clean open+close cycle the flag clears again.
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	r3, err := OpenVolume(path, VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r3.WasDirty() {
		t.Fatal("volume still dirty after a clean close")
	}
	_ = r3.Close()
}

func TestVolumeRejectsTruncatedFile(t *testing.T) {
	path := tmpVolPath(t)
	createAndClose(t, path, 1<<20)

	// Truncated mid-arena: superblock intact but the file cannot hold the
	// geometry it claims.
	if err := os.Truncate(path, volHdrSize+1024); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVolume(path, VolumeOptions{}); !errors.Is(err, ErrBadVolume) {
		t.Fatalf("truncated arena: err = %v, want ErrBadVolume", err)
	}
	// Truncated inside the superblock itself.
	if err := os.Truncate(path, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVolume(path, VolumeOptions{}); !errors.Is(err, ErrBadVolume) {
		t.Fatalf("truncated superblock: err = %v, want ErrBadVolume", err)
	}
}

func TestVolumeRejectsZeroedSuperblock(t *testing.T) {
	path := tmpVolPath(t)
	createAndClose(t, path, 1<<20)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, volHdrLen), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenVolume(path, VolumeOptions{}); !errors.Is(err, ErrBadVolume) {
		t.Fatalf("zeroed superblock: err = %v, want ErrBadVolume", err)
	}
}

func TestVolumeRejectsForeignFile(t *testing.T) {
	path := tmpVolPath(t)
	if err := os.WriteFile(path, make([]byte, 1<<16), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVolume(path, VolumeOptions{}); !errors.Is(err, ErrBadVolume) {
		t.Fatalf("foreign file: err = %v, want ErrBadVolume", err)
	}
}

func TestVolumeRejectsFutureVersion(t *testing.T) {
	path := tmpVolPath(t)
	createAndClose(t, path, 1<<20)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [volHdrLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	putU32(hdr[offVolVersion:], volVersion+7)
	putU64(hdr[offVolSum:], volChecksum(hdr[:])) // keep the checksum honest
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenVolume(path, VolumeOptions{}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("future version: err = %v, want ErrVersionMismatch", err)
	}
}

func TestVolumeRejectsChecksumMismatch(t *testing.T) {
	path := tmpVolPath(t)
	createAndClose(t, path, 1<<20)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a geometry field without fixing the checksum: a torn
	// superblock write.
	if _, err := f.WriteAt([]byte{0xff}, offVolArena); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenVolume(path, VolumeOptions{}); !errors.Is(err, ErrBadVolume) {
		t.Fatalf("checksum mismatch: err = %v, want ErrBadVolume", err)
	}
}

func TestVolumeMapFaultPoint(t *testing.T) {
	inj := faultinject.New()
	inj.FailAt("scm.map", 0, nil)
	path := tmpVolPath(t)
	if _, err := CreateVolume(path, VolumeOptions{ArenaSize: 1 << 20, Faults: inj}); !errors.Is(err, ErrMapFailed) {
		t.Fatalf("injected map failure: err = %v, want ErrMapFailed", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file created despite injected pre-map failure")
	}
}

func TestVolumeCreateInUnwritableLocation(t *testing.T) {
	// A path under a regular file fails with ENOTDIR regardless of
	// privilege (chmod-based unwritability is invisible to root).
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateVolume(filepath.Join(blocker, "vol.aerie"), VolumeOptions{ArenaSize: 1 << 20}); !errors.Is(err, ErrMapFailed) {
		t.Fatalf("unwritable location: err = %v, want ErrMapFailed", err)
	}
}

func TestVolumeReadOnlyMapping(t *testing.T) {
	path := tmpVolPath(t)
	createAndClose(t, path, 1<<20)
	v, err := OpenVolume(path, VolumeOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if !v.ReadOnly() {
		t.Fatal("ReadOnly() = false")
	}
	m := v.Mem()
	buf := make([]byte, 12)
	if err := m.Read(0, buf); err != nil || string(buf) != "persist-head" {
		t.Fatalf("read through RO mapping: %q, %v", buf, err)
	}
	if b, err := m.Slice(0, 12); err != nil || string(b) != "persist-head" {
		t.Fatalf("slice through RO mapping: %q, %v", b, err)
	}
	if err := m.Write(0, []byte("nope")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write through RO mapping: err = %v, want ErrReadOnly", err)
	}
	if err := m.WriteStream(0, []byte("nope")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("stream through RO mapping: err = %v, want ErrReadOnly", err)
	}
	if err := m.Atomic64(0, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("atomic through RO mapping: err = %v, want ErrReadOnly", err)
	}
	// A read-only open must not clear or set the dirty flag, and must not
	// bump the generation.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenVolume(path, VolumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.WasDirty() {
		t.Fatal("volume no longer clean after RO open")
	}
	if r.Generation() != 2 {
		t.Fatalf("generation = %d after RO open, want 2 (create + this open)", r.Generation())
	}
}

func TestVolumeMsyncObservability(t *testing.T) {
	sink := obs.New()
	path := tmpVolPath(t)
	v, err := CreateVolume(path, VolumeOptions{ArenaSize: 1 << 20, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	m := v.Mem()
	base := sink.Snapshot().Counter("scm.msync.calls")
	if err := m.Write(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(0, 100); err != nil {
		t.Fatal(err)
	}
	m.Fence()
	snap := sink.Snapshot()
	if got := snap.Counter("scm.msync.calls"); got != base+1 {
		t.Fatalf("scm.msync.calls = %d, want %d", got, base+1)
	}
	if got := snap.Counter("scm.msync.bytes"); got < 100 {
		t.Fatalf("scm.msync.bytes = %d, want >= 100", got)
	}
	h, ok := snap.Histogram("scm.msync.ns")
	if !ok || h.Count != 1 {
		t.Fatalf("scm.msync.ns histogram missing or empty: %+v ok=%v", h, ok)
	}
	// An empty window is barrier-free: no extra msync.
	m.Fence()
	if got := sink.Snapshot().Counter("scm.msync.calls"); got != base+1 {
		t.Fatalf("empty-window Fence issued an msync (calls=%d)", got)
	}
	if v.SyncErr() != nil {
		t.Fatalf("SyncErr = %v", v.SyncErr())
	}
}

func TestVolumeCloseDetachesMemory(t *testing.T) {
	path := tmpVolPath(t)
	v, err := CreateVolume(path, VolumeOptions{ArenaSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	m := v.Mem()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	if err := m.Read(0, make([]byte, 8)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read after Close: err = %v, want ErrOutOfRange", err)
	}
	if err := m.Write(0, make([]byte, 8)); err == nil {
		t.Fatal("write after Close succeeded")
	}
}
