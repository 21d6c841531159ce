package conformance

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/blockdev"
	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/extfs"
	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/linearize"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/ramfs"
	"github.com/aerie-fs/aerie/internal/vfs"
)

// newAerieFS boots a fresh machine and mounts one client session.
func newAerieSession(t *testing.T) *libfs.Session {
	t.Helper()
	return newAerieSessionCfg(t, libfs.Config{UID: 1000})
}

// newAerieSessionCfg boots a fresh machine and mounts one client session
// with the given libfs configuration (the pipelined-write trace uses a
// deep window and a tiny batch limit).
func newAerieSessionCfg(t *testing.T, cfg libfs.Config) *libfs.Session {
	t.Helper()
	sys, err := core.New(core.Options{
		ArenaSize:      128 << 20,
		AcquireTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	sess, err := sys.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func newPXFS(t *testing.T) FS {
	return PXFSAdapter{FS: pxfs.New(newAerieSession(t), pxfs.Options{NameCache: true})}
}

func newFlat(t *testing.T) FS {
	return FlatAdapter{FS: flatfs.New(newAerieSession(t), flatfs.Options{})}
}

func newKernel(t *testing.T, name string) FS {
	t.Helper()
	costs := &costmodel.Costs{}
	var inner vfs.FileSystem
	switch name {
	case "RamFS":
		inner = ramfs.New()
	default:
		disk := blockdev.New(32<<10, costs, false)
		t.Cleanup(func() { disk.Close() })
		fs, err := extfs.Mkfs(disk, extfs.Ext4)
		if err != nil {
			t.Fatal(err)
		}
		inner = fs
	}
	return VFSAdapter{FSName: name, V: vfs.New(inner, vfs.Config{Costs: costs})}
}

func allTargets(t *testing.T) []FS {
	return []FS{newPXFS(t), newFlat(t), newKernel(t, "RamFS"), newKernel(t, "ext4")}
}

// TestTraceDeterministic pins the generator: the same seed must produce
// byte-identical traces (the differential test is only meaningful if every
// target replays the very same operations).
func TestTraceDeterministic(t *testing.T) {
	a := GenerateTrace(42, 300)
	b := GenerateTrace(42, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c := GenerateTrace(43, 300)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	syncs := 0
	for _, op := range a {
		if op.Kind == OpSync {
			syncs++
		}
	}
	if syncs < 10 {
		t.Fatalf("only %d sync points in %d ops", syncs, len(a))
	}
}

// TestDifferentialConformance replays one deterministic trace against all
// four file systems and demands identical observable state at every sync
// point: same files, same sizes, same contents; same directory trees among
// the hierarchical systems.
func TestDifferentialConformance(t *testing.T) {
	seed := linearize.Seed(42)
	t.Logf("trace seed %d (replay with AERIE_SEED=%d)", seed, seed)
	ops := GenerateTrace(seed, 400)
	if err := RunDifferential(allTargets(t), ops); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// TestDifferentialConformanceSeeds runs shorter traces under other seeds,
// covering different op interleavings. AERIE_SEED narrows the run to that
// one seed for replay.
func TestDifferentialConformanceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seeds := []int64{1, 7, 1337}
	if s := linearize.Seed(0); s != 0 {
		seeds = []int64{s}
	}
	for _, seed := range seeds {
		ops := GenerateTrace(seed, 200)
		if err := RunDifferential(allTargets(t), ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// volumeCycler is a PXFS target on a VolumePath-backed machine that closes
// the whole system — session, TFS, mmap — at a chosen sync point and
// reopens the volume file before continuing the trace. What the lockstep
// comparison demands, then, is that a clean shutdown and recovery is
// invisible: the reopened system must serve exactly the state every other
// target carried across the same sync point in memory.
type volumeCycler struct {
	t        *testing.T
	vol      string
	sys      *core.System
	sess     *libfs.Session
	cur      FS
	syncs    int
	reopenAt int
	reopened bool
}

func newVolumeCycler(t *testing.T, reopenAt int) *volumeCycler {
	t.Helper()
	c := &volumeCycler{t: t, vol: filepath.Join(t.TempDir(), "lockstep.aerie"), reopenAt: reopenAt}
	sys, err := core.New(core.Options{
		ArenaSize:      128 << 20,
		VolumePath:     c.vol,
		AcquireTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Degraded(); err != nil {
		t.Fatalf("volume degraded to volatile: %v", err)
	}
	c.mount(sys)
	t.Cleanup(func() { c.sys.Close() })
	return c
}

func (c *volumeCycler) mount(sys *core.System) {
	sess, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		c.t.Fatal(err)
	}
	c.sys, c.sess = sys, sess
	c.cur = PXFSAdapter{FS: pxfs.New(sess, pxfs.Options{NameCache: true})}
}

func (c *volumeCycler) Sync() error {
	if err := c.cur.Sync(); err != nil {
		return err
	}
	c.syncs++
	if c.syncs != c.reopenAt {
		return nil
	}
	if err := c.sess.Close(); err != nil {
		return err
	}
	if err := c.sys.Close(); err != nil {
		return err
	}
	sys, err := core.Open(c.vol, core.Options{AcquireTimeout: 60 * time.Second})
	if err != nil {
		return err
	}
	if sys.Vol.WasDirty() {
		c.t.Error("cleanly closed volume reopened dirty mid-trace")
	}
	c.mount(sys)
	c.reopened = true
	return nil
}

func (c *volumeCycler) Name() string  { return "PXFS-volume" }
func (c *volumeCycler) HasDirs() bool { return true }
func (c *volumeCycler) Mkdir(path string) error {
	return c.cur.Mkdir(path)
}
func (c *volumeCycler) PutWhole(path string, data []byte) error {
	return c.cur.PutWhole(path, data)
}
func (c *volumeCycler) WriteAt(path string, off int64, data []byte) error {
	return c.cur.WriteAt(path, off, data)
}
func (c *volumeCycler) Append(path string, data []byte) error {
	return c.cur.Append(path, data)
}
func (c *volumeCycler) Truncate(path string, size int64) error {
	return c.cur.Truncate(path, size)
}
func (c *volumeCycler) Delete(path string) error             { return c.cur.Delete(path) }
func (c *volumeCycler) Rename(oldPath, newPath string) error { return c.cur.Rename(oldPath, newPath) }
func (c *volumeCycler) Files() ([]FileState, error)          { return c.cur.Files() }
func (c *volumeCycler) Dirs() ([]string, error)              { return c.cur.Dirs() }

// TestDifferentialVolumeConformance replays the lockstep trace with the
// PXFS target persistent (mmap-backed volume file) and cycled through a
// full close/core.Open midway: recovery must hand back byte-identical
// state, verified op-for-op against the in-memory targets for the rest of
// the trace.
func TestDifferentialVolumeConformance(t *testing.T) {
	seed := linearize.Seed(42)
	t.Logf("trace seed %d (replay with AERIE_SEED=%d)", seed, seed)
	ops := GenerateTrace(seed, 300)
	syncs := 0
	for _, op := range ops {
		if op.Kind == OpSync {
			syncs++
		}
	}
	if syncs < 4 {
		t.Fatalf("trace has only %d sync points", syncs)
	}
	cyc := newVolumeCycler(t, syncs/2)
	targets := []FS{cyc, newKernel(t, "RamFS"), newKernel(t, "ext4")}
	if err := RunDifferential(targets, ops); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !cyc.reopened {
		t.Fatal("trace finished without the mid-trace close/reopen firing")
	}
}

// rotatingFS wraps an Aerie-backed target so every trace operation seals
// its ops into their own window batch (Session.RotateBatch). Trace-op
// boundaries are always safe batch boundaries — unlike a byte threshold,
// which can split FlatFS's create/write/insert sequence so the keyed write
// validates before the insert that links the key has applied.
type rotatingFS struct {
	FS
	sess *libfs.Session
}

func (r rotatingFS) rot(err error) error {
	if err != nil {
		return err
	}
	return r.sess.RotateBatch()
}

func (r rotatingFS) Mkdir(path string) error  { return r.rot(r.FS.Mkdir(path)) }
func (r rotatingFS) Delete(path string) error { return r.rot(r.FS.Delete(path)) }
func (r rotatingFS) PutWhole(path string, data []byte) error {
	return r.rot(r.FS.PutWhole(path, data))
}
func (r rotatingFS) WriteAt(path string, off int64, data []byte) error {
	return r.rot(r.FS.WriteAt(path, off, data))
}
func (r rotatingFS) Append(path string, data []byte) error {
	return r.rot(r.FS.Append(path, data))
}
func (r rotatingFS) Truncate(path string, size int64) error {
	return r.rot(r.FS.Truncate(path, size))
}
func (r rotatingFS) Rename(oldPath, newPath string) error {
	return r.rot(r.FS.Rename(oldPath, newPath))
}

// TestPipelinedWriteConformance replays the differential trace with the
// Aerie targets running the pipelined write path: an 8-deep completion
// window with every trace operation rotating its own batch, so several
// unsynced batches are in flight whenever the trace hits a sync point.
// PXFS additionally runs a one-byte batch limit (each logged op its own
// batch — safe under directory/file covers); FlatFS rotates at trace-op
// boundaries, the finest split its keyed-cover validation admits. Sync
// semantics must be byte-identical to the synchronous path — the
// kernel-backed targets (RamFS, ext4) replay the same trace synchronously
// and every sync-point comparison must agree on files, sizes, contents,
// and directory trees.
func TestPipelinedWriteConformance(t *testing.T) {
	pxSess := newAerieSessionCfg(t, libfs.Config{UID: 1000, BatchLimit: 1, Window: 8})
	flatSess := newAerieSessionCfg(t, libfs.Config{UID: 1000, Window: 8})
	targets := []FS{
		rotatingFS{FS: PXFSAdapter{FS: pxfs.New(pxSess, pxfs.Options{NameCache: true})}, sess: pxSess},
		rotatingFS{FS: FlatAdapter{FS: flatfs.New(flatSess, flatfs.Options{})}, sess: flatSess},
		newKernel(t, "RamFS"),
		newKernel(t, "ext4"),
	}
	ops := GenerateTrace(42, 400)
	if err := RunDifferential(targets, ops); err != nil {
		t.Fatal(err)
	}
}

// shortAppend injects an off-by-one into one target: every append drops its
// final byte.
type shortAppend struct{ FS }

func (s shortAppend) Append(path string, data []byte) error {
	if len(data) > 0 {
		data = data[:len(data)-1]
	}
	return s.FS.Append(path, data)
}

// TestInjectedDivergence proves the harness has teeth: an off-by-one in a
// single implementation must surface as a divergence, not pass silently.
func TestInjectedDivergence(t *testing.T) {
	targets := allTargets(t)
	targets[2] = shortAppend{targets[2]} // corrupt RamFS
	err := RunDifferential(targets, GenerateTrace(42, 200))
	if err == nil {
		t.Fatal("off-by-one append went undetected")
	}
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("got %v, want a DivergenceError", err)
	}
	t.Logf("detected as expected: %v", div)
}
