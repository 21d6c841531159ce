package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/scm"
)

func volOptions(path string) Options {
	return Options{
		ArenaSize:      16 << 20,
		VolumePath:     path,
		Lease:          500 * time.Millisecond,
		AcquireTimeout: 5 * time.Second,
	}
}

// TestVolumePersistsAcrossCloseAndOpen is the tentpole happy path: create a
// machine on a volume file, write through the full stack, close cleanly,
// reopen with Open, and read the data back through a fresh client.
func TestVolumePersistsAcrossCloseAndOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.aerie")
	sys, err := New(volOptions(path))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Degraded() != nil {
		t.Fatalf("unexpected degradation: %v", sys.Degraded())
	}
	if sys.Vol == nil {
		t.Fatal("Vol nil on a volume-backed machine")
	}
	contents := []byte("written before the first close")
	s := session(t, sys, 1000)
	createFile(t, s, "persisted", contents)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(path, Options{Lease: 500 * time.Millisecond, AcquireTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if re.Vol.WasDirty() {
		t.Fatal("cleanly closed machine reopened dirty")
	}
	s2 := session(t, re, 1001)
	oid, found, err := s2.DirLookup(s2.Root, []byte("persisted"))
	if err != nil || !found {
		t.Fatalf("DirLookup after reopen: found=%v err=%v", found, err)
	}
	buf := make([]byte, len(contents))
	if _, err := s2.FileRead(oid, buf, 0); err != nil || !bytes.Equal(buf, contents) {
		t.Fatalf("FileRead after reopen: %q, %v", buf, err)
	}
	if rep, err := re.Set.Fsck(false); err != nil || rep.LeakedBlocks != 0 || rep.LostBlocks != 0 {
		t.Fatalf("Fsck after reopen: %+v, %v", rep, err)
	}
}

// TestOpenRecordsPhaseTimings: the three open phases land in obs counters.
func TestOpenRecordsPhaseTimings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.aerie")
	sys, err := New(volOptions(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sink := obs.New()
	opts := volOptions("")
	opts.Obs = sink
	re, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap := sink.Snapshot()
	for _, c := range []string{"core.open.map_ns", "core.open.attach_ns", "core.open.recover_ns"} {
		if snap.Counter(c) <= 0 {
			t.Errorf("%s = %d, want > 0", c, snap.Counter(c))
		}
	}
}

// TestNewDegradesToVolatileOnMapFailure: an unusable volume path must not
// kill a fresh machine — it runs volatile, serves operations, and surfaces
// the typed cause exactly once through Degraded and the log.
func TestNewDegradesToVolatileOnMapFailure(t *testing.T) {
	// A path under a regular file fails with ENOTDIR even as root.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	opts := volOptions(filepath.Join(blocker, "vol.aerie"))
	opts.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatalf("New should degrade, not fail: %v", err)
	}
	defer sys.Close()
	if !errors.Is(sys.Degraded(), scm.ErrMapFailed) {
		t.Fatalf("Degraded() = %v, want ErrMapFailed", sys.Degraded())
	}
	if sys.Vol != nil {
		t.Fatal("degraded machine still holds a Volume")
	}
	if len(logged) != 1 {
		t.Fatalf("degradation logged %d times, want once: %q", len(logged), logged)
	}
	// Tier-1 behavior is unchanged: the machine serves a full create/read
	// cycle on the volatile arena.
	s := session(t, sys, 1000)
	contents := []byte("volatile but alive")
	oid := createFile(t, s, "f", contents)
	buf := make([]byte, len(contents))
	if _, err := s.FileRead(oid, buf, 0); err != nil || !bytes.Equal(buf, contents) {
		t.Fatalf("degraded machine read: %q, %v", buf, err)
	}
}

// TestNewDegradesOnInjectedMapFault: same downgrade via the scm.map fault
// point, proving the path is reachable without filesystem tricks.
func TestNewDegradesOnInjectedMapFault(t *testing.T) {
	inj := faultinject.New()
	inj.FailAt("scm.map", 0, nil)
	opts := volOptions(filepath.Join(t.TempDir(), "vol.aerie"))
	opts.Faults = inj
	sys, err := New(opts)
	if err != nil {
		t.Fatalf("New should degrade, not fail: %v", err)
	}
	defer sys.Close()
	if !errors.Is(sys.Degraded(), scm.ErrMapFailed) {
		t.Fatalf("Degraded() = %v, want ErrMapFailed", sys.Degraded())
	}
}

// TestOpenNeverDegrades: opening existing data with a broken file is a typed
// hard failure, never a silent volatile machine.
func TestOpenNeverDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.aerie")
	sys, err := New(volOptions(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, scm.ErrBadVolume) {
		t.Fatalf("Open of truncated volume: err = %v, want ErrBadVolume", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.aerie"), Options{}); !errors.Is(err, scm.ErrMapFailed) {
		t.Fatalf("Open of missing volume: err = %v, want ErrMapFailed", err)
	}
}

// TestOpenRejectsForeignArena: a valid volume superblock around an arena
// that was never formatted as an Aerie machine must fail typed, not panic.
func TestOpenRejectsForeignArena(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raw.aerie")
	v, err := scm.CreateVolume(path, scm.VolumeOptions{ArenaSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, scm.ErrBadVolume) {
		t.Fatalf("Open of unformatted arena: err = %v, want ErrBadVolume", err)
	}
}

// TestVolumeIncompatibleWithTrackPersistence: the two crash models are
// mutually exclusive and the combination is a loud configuration error.
func TestVolumeIncompatibleWithTrackPersistence(t *testing.T) {
	opts := volOptions(filepath.Join(t.TempDir(), "vol.aerie"))
	opts.TrackPersistence = true
	if _, err := New(opts); err == nil {
		t.Fatal("New accepted VolumePath+TrackPersistence")
	}
}

// TestReopenAfterUncleanDeath: a machine whose process dies without Close
// reopens dirty and recovers to a consistent state.
func TestReopenAfterUncleanDeath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.aerie")
	sys, err := New(volOptions(path))
	if err != nil {
		t.Fatal(err)
	}
	contents := []byte("shipped before the crash")
	s := session(t, sys, 1000)
	createFile(t, s, "survivor", contents)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate process death: stop the lock service and drop the mapping
	// without clearing the dirty flag. (The real SIGKILL version lives in
	// internal/crashsweep's process sweep.)
	sys.Set.Locks.Shutdown()
	sys.Vol.Abandon()

	re, err := Open(path, Options{Lease: 500 * time.Millisecond, AcquireTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Open after unclean death: %v", err)
	}
	defer re.Close()
	if !re.Vol.WasDirty() {
		t.Fatal("unclean death did not leave the volume dirty")
	}
	if rep, err := re.Set.Fsck(true); err != nil {
		t.Fatalf("Fsck(repair) after unclean death: %+v, %v", rep, err)
	}
	s2 := session(t, re, 1001)
	oid, found, err := s2.DirLookup(s2.Root, []byte("survivor"))
	if err != nil || !found {
		t.Fatalf("shipped file lost: found=%v err=%v", found, err)
	}
	buf := make([]byte, len(contents))
	if _, err := s2.FileRead(oid, buf, 0); err != nil || !bytes.Equal(buf, contents) {
		t.Fatalf("shipped contents lost: %q, %v", buf, err)
	}
}
