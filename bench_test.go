// Benchmarks mirroring the paper's evaluation (§7): one benchmark family
// per table/figure, plus ablations for the design choices DESIGN.md calls
// out. `go test -bench=. -benchmem` runs them all; cmd/aerie-bench prints
// the full formatted tables instead.
package aerie_test

import (
	"fmt"
	"testing"
	"time"

	aerie "github.com/aerie-fs/aerie"
	"github.com/aerie-fs/aerie/internal/blockdev"
	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/extfs"
	"github.com/aerie-fs/aerie/internal/filebench"
	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/ramfs"
	"github.com/aerie-fs/aerie/internal/scalesim"
	"github.com/aerie-fs/aerie/internal/vfs"
)

// benchTargets builds the comparison set once per benchmark.
func benchPXFS(b *testing.B) *pxfs.FS {
	b.Helper()
	sys, err := core.New(core.Options{ArenaSize: 256 << 20, AcquireTimeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	sess, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		b.Fatal(err)
	}
	return pxfs.New(sess, pxfs.Options{NameCache: true})
}

func benchVFS(b *testing.B, kind string) *vfs.VFS {
	b.Helper()
	switch kind {
	case "ramfs":
		return vfs.New(ramfs.New(), vfs.Config{})
	case "ext3", "ext4":
		mode := extfs.Ext3
		if kind == "ext4" {
			mode = extfs.Ext4
		}
		disk := blockdev.New(64<<10, nil, false)
		b.Cleanup(func() { disk.Close() })
		fs, err := extfs.Mkfs(disk, mode)
		if err != nil {
			b.Fatal(err)
		}
		return vfs.New(fs, vfs.Config{})
	}
	b.Fatalf("unknown kind %s", kind)
	return nil
}

// ---- Table 1: microbenchmark latencies ----

func BenchmarkTable1(b *testing.B) {
	buf := make([]byte, 4096)
	b.Run("Create/PXFS", func(b *testing.B) {
		fs := benchPXFS(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := fs.Create(fmt.Sprintf("/f%08d", i), 0644)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Write(buf); err != nil {
				b.Fatal(err)
			}
			_ = f.Close()
		}
	})
	for _, kind := range []string{"ramfs", "ext4"} {
		kind := kind
		b.Run("Create/"+kind, func(b *testing.B) {
			v := benchVFS(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd, err := v.Open(fmt.Sprintf("/f%08d", i), vfs.O_RDWR|vfs.O_CREATE, 0644)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := v.Write(fd, buf); err != nil {
					b.Fatal(err)
				}
				_ = v.Close(fd)
			}
		})
	}
	b.Run("OpenClose/PXFS", func(b *testing.B) {
		fs := benchPXFS(b)
		f, _ := fs.Create("/target", 0644)
		_, _ = f.Write(buf)
		_ = f.Close()
		_ = fs.Sync()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := fs.Open("/target", pxfs.O_RDONLY)
			if err != nil {
				b.Fatal(err)
			}
			_ = g.Close()
		}
	})
	b.Run("RandomRead4K/PXFS", func(b *testing.B) {
		fs := benchPXFS(b)
		f, _ := fs.Create("/big", 0644)
		big := make([]byte, 1<<20)
		_, _ = f.Write(big)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadAt(buf, int64(i%256)*4096); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		_ = f.Close()
	})
	b.Run("RandomWrite4K/PXFS", func(b *testing.B) {
		fs := benchPXFS(b)
		f, _ := fs.Create("/big", 0644)
		big := make([]byte, 1<<20)
		_, _ = f.Write(big)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.WriteAt(buf, int64(i%256)*4096); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		_ = f.Close()
	})
	b.Run("DeleteCreate/PXFS", func(b *testing.B) {
		fs := benchPXFS(b)
		f, _ := fs.Create("/victim", 0644)
		_, _ = f.Write(buf)
		_ = f.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.Unlink("/victim"); err != nil {
				b.Fatal(err)
			}
			g, err := fs.Create("/victim", 0644)
			if err != nil {
				b.Fatal(err)
			}
			_ = g.Close()
		}
	})
}

// ---- Table 2: FileBench profiles ----

func BenchmarkTable2(b *testing.B) {
	const scale = 0.02
	profiles := map[string]filebench.Profile{
		"fileserver": filebench.Fileserver(scale),
		"webserver":  filebench.Webserver(scale),
		"webproxy":   filebench.Webproxy(scale * 2),
	}
	for name, p := range profiles {
		p := p
		b.Run(name+"/PXFS", func(b *testing.B) {
			fb := filebench.PXFSAdapter{FS: benchPXFS(b)}
			if err := filebench.Setup(fb, p); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := filebench.Run(fb, p, filebench.RunOpts{Iterations: b.N}); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(name+"/ext4", func(b *testing.B) {
			fb := filebench.VFSAdapter{V: benchVFS(b, "ext4")}
			if err := filebench.Setup(fb, p); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := filebench.Run(fb, p, filebench.RunOpts{Iterations: b.N}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---- Table 3 / Figure 5: scaling simulations over a synthetic trace ----

func BenchmarkFigure5Simulation(b *testing.B) {
	ops := []costmodel.OpTrace{{
		Name: "op",
		Phases: []costmodel.Phase{
			{Dur: 2 * time.Microsecond},
			{Resource: "lock:dir", Mode: costmodel.Exclusive, Dur: 3 * time.Microsecond},
			{Resource: "tfs", Mode: costmodel.Exclusive, Dur: time.Microsecond},
		},
	}}
	for i := 0; i < b.N; i++ {
		scalesim.Sweep(ops, []int{1, 2, 4, 6, 8, 10}, scalesim.Config{OpsPerThread: 200})
	}
}

// ---- Figure 6: write-latency sensitivity (one point) ----

func BenchmarkFigure6WriteLatency(b *testing.B) {
	for _, lat := range []time.Duration{0, time.Microsecond} {
		lat := lat
		b.Run(fmt.Sprintf("scmline=%v", lat), func(b *testing.B) {
			costs := costmodel.Costs{SCMWriteLine: lat}
			sys, err := core.New(core.Options{ArenaSize: 128 << 20, Costs: costs, AcquireTimeout: time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { sys.Close() })
			sess, err := sys.NewSession(libfs.Config{UID: 1})
			if err != nil {
				b.Fatal(err)
			}
			fs := pxfs.New(sess, pxfs.Options{NameCache: true})
			f, _ := fs.Create("/f", 0644)
			buf := make([]byte, 4096)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.WriteAt(buf, int64(i%1024)*4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations (DESIGN.md §4) ----

// BenchmarkAblationBatching compares batched metadata shipping against a
// ship-every-op configuration (the paper's core latency optimization).
func BenchmarkAblationBatching(b *testing.B) {
	for _, limit := range []int{1, 8 << 20} {
		limit := limit
		name := "per-op"
		if limit > 1 {
			name = "8MB-batch"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := core.New(core.Options{ArenaSize: 128 << 20, AcquireTimeout: time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { sys.Close() })
			sess, err := sys.NewSession(libfs.Config{UID: 1, BatchLimit: limit})
			if err != nil {
				b.Fatal(err)
			}
			fs := pxfs.New(sess, pxfs.Options{NameCache: true})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := fs.Create(fmt.Sprintf("/f%08d", i), 0644)
				if err != nil {
					b.Fatal(err)
				}
				_ = f.Close()
			}
		})
	}
}

// BenchmarkAblationPrealloc compares the client pre-allocation pool against
// one-extent-per-RPC allocation (§5.3.7).
func BenchmarkAblationPrealloc(b *testing.B) {
	for _, refill := range []uint32{1, 64} {
		refill := refill
		b.Run(fmt.Sprintf("refill=%d", refill), func(b *testing.B) {
			// The pool's value is amortizing the RPC round trip, so this
			// ablation runs with the calibrated RPC cost.
			sys, err := core.New(core.Options{ArenaSize: 256 << 20, AcquireTimeout: time.Minute,
				Costs: costmodel.DefaultCosts()})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { sys.Close() })
			sess, err := sys.NewSession(libfs.Config{UID: 1, PoolRefill: refill})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.AllocStaged(0, 4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHierarchicalLocks compares FlatFS's fine-grained bucket
// locking against forcing every write through the whole-collection lock
// (GrowHeadroom so large that every op escalates), under intra-process
// concurrency — the §6.2 scalability mechanism.
func BenchmarkAblationHierarchicalLocks(b *testing.B) {
	run := func(b *testing.B, headroom uint32, threads int) {
		sys, err := core.New(core.Options{ArenaSize: 256 << 20, AcquireTimeout: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sys.Close() })
		sess, err := sys.NewSession(libfs.Config{UID: 1})
		if err != nil {
			b.Fatal(err)
		}
		fs := flatfs.New(sess, flatfs.Options{GrowHeadroom: headroom})
		for i := 0; i < 256; i++ {
			if err := fs.Put(fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.SetParallelism(threads)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			buf := make([]byte, 64)
			for pb.Next() {
				if _, err := fs.GetInto(fmt.Sprintf("k%04d", i%256), buf); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
	b.Run("bucket-locks", func(b *testing.B) { run(b, 8, 4) })
	// A huge headroom forces the single-collection-lock path on writes;
	// reads still use IS+bucket S, so stress the write path instead.
	b.Run("single-lock", func(b *testing.B) {
		sys, err := core.New(core.Options{ArenaSize: 256 << 20, AcquireTimeout: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sys.Close() })
		sess, err := sys.NewSession(libfs.Config{UID: 1})
		if err != nil {
			b.Fatal(err)
		}
		fs := flatfs.New(sess, flatfs.Options{GrowHeadroom: 1 << 30})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.Put(fmt.Sprintf("k%04d", i%256), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPI exercises the README quickstart path end to end.
func BenchmarkPublicAPI(b *testing.B) {
	sys, err := aerie.New(aerie.Options{ArenaSize: 128 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	fs, err := sys.NewFlatFS(1000, aerie.FlatFSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("benchmark payload")
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("key-%06d", i%1000)
		if err := fs.Put(key, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := fs.GetInto(key, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExtentSize measures the paper's suggested extent-layout
// optimization (§7.2.2: "an extent file layout could similarly improve
// performance of PXFS"): sequential writes into files built from 4 KB
// page extents vs. 64 KB extents.
func BenchmarkAblationExtentSize(b *testing.B) {
	for _, lg := range []uint32{12, 16} {
		lg := lg
		b.Run(fmt.Sprintf("extent=%dKB", 1<<(lg-10)), func(b *testing.B) {
			sys, err := core.New(core.Options{ArenaSize: 512 << 20, AcquireTimeout: time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { sys.Close() })
			sess, err := sys.NewSession(libfs.Config{UID: 1})
			if err != nil {
				b.Fatal(err)
			}
			fs := pxfs.New(sess, pxfs.Options{NameCache: true, ExtentLog: lg})
			buf := make([]byte, 128<<10)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := fs.Create(fmt.Sprintf("/f%06d", i%64), 0644)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.Write(buf); err != nil {
					b.Fatal(err)
				}
				_ = f.Close()
			}
		})
	}
}
