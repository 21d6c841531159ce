// Package experiments regenerates every table and figure in the paper's
// evaluation (§7): Table 1 (microbenchmark latencies), Table 2 (FileBench
// latencies), Table 3 (multiprogrammed throughput), Figure 1 (VFS time
// breakdown), Figure 5 (thread scaling), Figure 6 (write-latency
// sensitivity), plus the §7.2.1 permission-change measurement and the
// §7.2.2 batch-size sweep. cmd/aerie-bench prints them; bench_test.go wraps
// them as Go benchmarks. EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/aerie-fs/aerie/internal/blockdev"
	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/extfs"
	"github.com/aerie-fs/aerie/internal/filebench"
	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/ramfs"
	"github.com/aerie-fs/aerie/internal/vfs"
)

// Config tunes the harness.
type Config struct {
	// Scale shrinks the paper's working sets (1.0 = full size; default
	// 0.05 keeps runs laptop-fast).
	Scale float64
	// Iterations per measurement loop (default picked per experiment).
	Iterations int
	// Costs calibrates injected latencies (default costmodel.DefaultCosts).
	Costs costmodel.Costs
	// Out receives the formatted report (required).
	Out io.Writer
}

func (c *Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	zero := costmodel.Costs{}
	if c.Costs == zero {
		c.Costs = costmodel.DefaultCosts()
	}
}

// target bundles one file system under test.
type target struct {
	name  string
	fb    filebench.FS
	micro microFS
	// tracer is non-nil for targets that record contention phases (the
	// Aerie library file systems).
	tracer *costmodel.Tracer
	// kv is non-nil for FlatFS.
	kv filebench.KV
	// costs is the live cost table (shared with the arena for sweeps).
	costs *costmodel.Costs
	// vfs is non-nil for kernel targets (cache control, accounting).
	vfs *vfs.VFS
	// sys and sess are the Aerie machine and its client, disk the kernel
	// targets' RAM disk: every arena is a mapping the collector never
	// reclaims, so close releases them.
	sys  *core.System
	sess *libfs.Session
	disk *blockdev.Disk
}

// close releases whatever the target owns.
func (t *target) close() {
	if t.sess != nil {
		_ = t.sess.Close()
	}
	if t.sys != nil {
		_ = t.sys.Close()
	}
	if t.disk != nil {
		_ = t.disk.Close()
	}
}

func closeAll(ts []*target) {
	for _, t := range ts {
		t.close()
	}
}

// microFS is the minimal surface the Table 1 microbenchmarks need.
type microFS interface {
	Create(path string) (microFile, error)
	OpenRO(path string) (microFile, error)
	OpenRW(path string) (microFile, error)
	Delete(path string) error
	Mkdir(path string) error
	Stat(path string) error
	Sync() error
}

type microFile interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Close() error
}

// ---- PXFS target ----

type pxfsMicro struct{ fs *pxfs.FS }

type pxfsMicroFile struct{ f *pxfs.File }

func (m pxfsMicroFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := m.f.ReadAt(p, off)
	if err != nil && n == len(p) {
		err = nil
	}
	return n, err
}
func (m pxfsMicroFile) WriteAt(p []byte, off int64) (int, error) { return m.f.WriteAt(p, off) }
func (m pxfsMicroFile) Close() error                             { return m.f.Close() }

func (m pxfsMicro) Create(path string) (microFile, error) {
	f, err := m.fs.Create(path, 0644)
	if err != nil {
		return nil, err
	}
	return pxfsMicroFile{f}, nil
}
func (m pxfsMicro) OpenRO(path string) (microFile, error) {
	f, err := m.fs.Open(path, pxfs.O_RDONLY)
	if err != nil {
		return nil, err
	}
	return pxfsMicroFile{f}, nil
}
func (m pxfsMicro) OpenRW(path string) (microFile, error) {
	f, err := m.fs.OpenFile(path, pxfs.O_RDWR, 0644)
	if err != nil {
		return nil, err
	}
	return pxfsMicroFile{f}, nil
}
func (m pxfsMicro) Delete(path string) error { return m.fs.Unlink(path) }
func (m pxfsMicro) Mkdir(path string) error  { return m.fs.Mkdir(path, 0755) }
func (m pxfsMicro) Stat(path string) error {
	_, err := m.fs.Stat(path)
	return err
}
func (m pxfsMicro) Sync() error { return m.fs.Sync() }

// ---- VFS target ----

type vfsMicro struct{ v *vfs.VFS }

type vfsMicroFile struct {
	v  *vfs.VFS
	fd int
}

func (m vfsMicroFile) ReadAt(p []byte, off int64) (int, error) {
	return m.v.Pread(m.fd, p, uint64(off))
}
func (m vfsMicroFile) WriteAt(p []byte, off int64) (int, error) {
	return m.v.Pwrite(m.fd, p, uint64(off))
}
func (m vfsMicroFile) Close() error { return m.v.Close(m.fd) }

func (m vfsMicro) open(path string, flags int, mode uint32) (microFile, error) {
	fd, err := m.v.Open(path, flags, mode)
	if err != nil {
		return nil, err
	}
	return vfsMicroFile{m.v, fd}, nil
}
func (m vfsMicro) Create(path string) (microFile, error) {
	return m.open(path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC, 0644)
}
func (m vfsMicro) OpenRO(path string) (microFile, error) { return m.open(path, vfs.O_RDONLY, 0) }
func (m vfsMicro) OpenRW(path string) (microFile, error) { return m.open(path, vfs.O_RDWR, 0) }
func (m vfsMicro) Delete(path string) error              { return m.v.Unlink(path) }
func (m vfsMicro) Mkdir(path string) error               { return m.v.Mkdir(path, 0755) }
func (m vfsMicro) Stat(path string) error {
	_, err := m.v.Stat(path)
	return err
}
func (m vfsMicro) Sync() error { return m.v.Sync() }

// newPXFSTarget boots an Aerie machine sized for the experiment.
func newPXFSTarget(costs costmodel.Costs, arena uint64, nameCache bool) (*target, error) {
	tracer := costmodel.NewTracer()
	sys, err := core.New(core.Options{
		ArenaSize:      arena,
		Costs:          costs,
		AcquireTimeout: 60 * time.Second,
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	// Capture-friendly batching: a 256 KB limit ships updates often enough
	// that the amortized shipping cost is spread across many traced ops
	// instead of landing in one giant outlier (same total work as the
	// paper's 8 MB batches, smoother trace).
	sess, err := sys.NewSession(libfs.Config{UID: 1000, BatchLimit: 256 << 10})
	if err != nil {
		_ = sys.Close()
		return nil, err
	}
	fs := pxfs.New(sess, pxfs.Options{NameCache: nameCache})
	name := "PXFS"
	if !nameCache {
		name = "PXFS-NNC"
	}
	return &target{
		name:   name,
		fb:     filebench.PXFSAdapter{FS: fs},
		micro:  pxfsMicro{fs},
		tracer: tracer,
		costs:  sys.Costs,
		sys:    sys,
		sess:   sess,
	}, nil
}

// newFlatTarget boots an Aerie machine with a FlatFS client.
func newFlatTarget(costs costmodel.Costs, arena uint64) (*target, error) {
	tracer := costmodel.NewTracer()
	sys, err := core.New(core.Options{
		ArenaSize:      arena,
		Costs:          costs,
		AcquireTimeout: 60 * time.Second,
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	sess, err := sys.NewSession(libfs.Config{UID: 1000, BatchLimit: 256 << 10})
	if err != nil {
		_ = sys.Close()
		return nil, err
	}
	fs := flatfs.New(sess, flatfs.Options{})
	return &target{
		name:   "FlatFS",
		kv:     filebench.FlatKV{FS: fs},
		tracer: tracer,
		costs:  sys.Costs,
		sys:    sys,
		sess:   sess,
	}, nil
}

// newKernelTarget builds RamFS or ext3/ext4 behind the simulated VFS.
func newKernelTarget(name string, costs costmodel.Costs, diskBlocks uint64) (*target, error) {
	cshared := costs
	pc := &cshared
	var (
		inner vfs.FileSystem
		disk  *blockdev.Disk
	)
	switch name {
	case "RamFS":
		inner = ramfs.New()
	case "ext3", "ext4":
		mode := extfs.Ext3
		if name == "ext4" {
			mode = extfs.Ext4
		}
		disk = blockdev.New(diskBlocks, pc, false)
		fs, err := extfs.Mkfs(disk, mode)
		if err != nil {
			_ = disk.Close()
			return nil, err
		}
		inner = fs
	default:
		return nil, fmt.Errorf("unknown kernel target %q", name)
	}
	v := vfs.New(inner, vfs.Config{Costs: pc, Accounting: true})
	return &target{
		name:  name,
		fb:    filebench.VFSAdapter{V: v},
		micro: vfsMicro{v},
		costs: pc,
		vfs:   v,
		disk:  disk,
	}, nil
}

// fsTargets builds the Table 1 / Table 2 comparison set; the caller
// releases it with closeAll.
func fsTargets(cfg Config, arena uint64, diskBlocks uint64, withNNC bool) ([]*target, error) {
	var out []*target
	px, err := newPXFSTarget(cfg.Costs, arena, true)
	if err != nil {
		return nil, err
	}
	out = append(out, px)
	if withNNC {
		nnc, err := newPXFSTarget(cfg.Costs, arena, false)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, nnc)
	}
	for _, k := range []string{"RamFS", "ext3", "ext4"} {
		kt, err := newKernelTarget(k, cfg.Costs, diskBlocks)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, kt)
	}
	return out, nil
}
