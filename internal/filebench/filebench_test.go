package filebench

import (
	"sort"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/blockdev"
	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/extfs"
	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/ramfs"
	"github.com/aerie-fs/aerie/internal/vfs"
)

const testScale = 0.02 // tiny working sets for the unit suite

func pxfsTarget(t *testing.T) FS {
	t.Helper()
	sys, err := core.New(core.Options{ArenaSize: 256 << 20, AcquireTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return PXFSAdapter{FS: pxfs.New(s, pxfs.Options{NameCache: true})}
}

func targets(t *testing.T) map[string]FS {
	t.Helper()
	ext3fs, err := extfs.Mkfs(blockdev.New(64<<10, nil, false), extfs.Ext3) // 256 MiB
	if err != nil {
		t.Fatal(err)
	}
	ext4fs, err := extfs.Mkfs(blockdev.New(64<<10, nil, false), extfs.Ext4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{
		"pxfs":  pxfsTarget(t),
		"ramfs": VFSAdapter{V: vfs.New(ramfs.New(), vfs.Config{})},
		"ext3":  VFSAdapter{V: vfs.New(ext3fs, vfs.Config{})},
		"ext4":  VFSAdapter{V: vfs.New(ext4fs, vfs.Config{})},
	}
}

func TestProfilesRunOnAllTargets(t *testing.T) {
	profiles := []Profile{Fileserver(testScale), Webserver(testScale), Webproxy(testScale), Varmail(testScale), LogRotate(testScale)}
	// Every target runs all the profiles in sequence on one tree, in name
	// order so the subtests are the same on every run. targets is called
	// afresh per target: each call formats all four.
	names := make([]string, 0, 4)
	for name := range targets(t) {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fsys := targets(t)[name]
		for _, p := range profiles {
			t.Run(name+"/"+p.Name, func(t *testing.T) {
				if err := Setup(fsys, p); err != nil {
					t.Fatalf("setup: %v", err)
				}
				res, err := Run(fsys, p, RunOpts{Iterations: 5})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Ops == 0 || res.Throughput <= 0 {
					t.Fatalf("degenerate result: %+v", res)
				}
				if res.MeanOpLatency <= 0 || res.P95OpLatency < res.MeanOpLatency/10 {
					t.Fatalf("latency stats broken: %+v", res)
				}
				// Re-run on the warm working set (idempotent workload).
				if _, err := Run(fsys, p, RunOpts{Iterations: 3, Seed: 7}); err != nil {
					t.Fatalf("second run: %v", err)
				}
			})
		}
	}
}

func TestEachProfileEachTargetFresh(t *testing.T) {
	profiles := []func(float64) Profile{Fileserver, Webserver, Webproxy, Varmail, LogRotate}
	for _, mk := range profiles {
		p := mk(testScale)
		t.Run(p.Name, func(t *testing.T) {
			for name, fsys := range targets(t) {
				if err := Setup(fsys, p); err != nil {
					t.Fatalf("%s setup: %v", name, err)
				}
				if _, err := Run(fsys, p, RunOpts{Iterations: 3}); err != nil {
					t.Fatalf("%s run: %v", name, err)
				}
			}
		})
	}
}

func TestMultiThreadedRun(t *testing.T) {
	fsys := pxfsTarget(t)
	p := Webproxy(0.05)
	if err := Setup(fsys, p); err != nil {
		t.Fatal(err)
	}
	res, err := Run(fsys, p, RunOpts{Threads: 4, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 4 || res.Iterations != 16 {
		t.Fatalf("result = %+v", res)
	}
}

func TestKVWorkloadOnFlatFS(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 128 << 20, AcquireTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	kv := FlatKV{FS: flatfs.New(s, flatfs.Options{})}
	p := Webproxy(testScale)
	if err := SetupKV(kv, p); err != nil {
		t.Fatal(err)
	}
	res, err := RunKV(kv, p, RunOpts{Threads: 2, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatalf("no ops: %+v", res)
	}
}

func TestTracerCapturesPhases(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 128 << 20, AcquireTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tracer := sys.Costs // placeholder to quiet linters; real tracer below
	_ = tracer
	trc := newTracer()
	s, err := sys.NewSession(libfs.Config{UID: 1000, Tracer: trc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fsys := PXFSAdapter{FS: pxfs.New(s, pxfs.Options{NameCache: true})}
	p := Webproxy(testScale)
	if err := Setup(fsys, p); err != nil {
		t.Fatal(err)
	}
	trc.Reset()
	if _, err := Run(fsys, p, RunOpts{Iterations: 3, Tracer: trc}); err != nil {
		t.Fatal(err)
	}
	ops := trc.Ops()
	if len(ops) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	sawLock, sawTFS := false, false
	for _, op := range ops {
		for _, ph := range op.Phases {
			if len(ph.Resource) > 4 && ph.Resource[:5] == "lock:" {
				sawLock = true
			}
			if ph.Resource == "tfs" {
				sawTFS = true
			}
		}
	}
	if !sawLock {
		t.Error("no lock phases recorded")
	}
	if !sawTFS {
		t.Error("no TFS phases recorded")
	}
}

func newTracer() *costmodel.Tracer { return costmodel.NewTracer() }
