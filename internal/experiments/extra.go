package experiments

import (
	"fmt"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/filebench"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/scm"
)

// timeDuration keeps scale.go free of a direct time import cycle concern.
type timeDuration = time.Duration

// MProtect reproduces the §7.2.1 permission-change measurement: the cost of
// narrowing memory protection on a file whose pages have been referenced
// (and therefore sit in soft-TLB mappings that must be shot down).
func MProtect(cfg Config) error {
	cfg.defaults()
	pages := 256
	tg, err := newPXFSTarget(cfg.Costs, 64<<20, true)
	if err != nil {
		return err
	}
	defer tg.close()
	pfs := tg.fb.(filebench.PXFSAdapter).FS
	f, err := pfs.Create("/protected", 0644)
	if err != nil {
		return err
	}
	buf := make([]byte, scm.PageSize)
	for i := 0; i < pages; i++ {
		if _, err := f.WriteAt(buf, int64(i)*scm.PageSize); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := pfs.Sync(); err != nil {
		return err
	}
	// Reference every page so the shootdown has mapped entries to kill.
	g, err := pfs.Open("/protected", pxfs.O_RDONLY)
	if err != nil {
		return err
	}
	for i := 0; i < pages; i++ {
		if _, err := g.ReadAt(buf, int64(i)*scm.PageSize); err != nil {
			return err
		}
	}
	_ = g.Close()
	shootBefore := tg.sys.Mgr.Shootdowns.Load()
	start := time.Now()
	if err := pfs.Chmod("/protected", 0444, true); err != nil {
		return err
	}
	elapsed := time.Since(start)
	shot := tg.sys.Mgr.Shootdowns.Load() - shootBefore
	perPage := time.Duration(0)
	if shot > 0 {
		perPage = elapsed / time.Duration(shot)
	}
	fmt.Fprintf(cfg.Out, "Permission change (§7.2.1): %d pages, %d referenced pages shot down\n", pages, shot)
	fmt.Fprintf(cfg.Out, "  total %.1fµs, %.2fµs per referenced page (paper: 3.3µs/page)\n\n",
		float64(elapsed.Microseconds()), float64(perPage.Nanoseconds())/1000)
	return nil
}

// BatchSweep reproduces the §7.2.2 batching observation (the paper found an
// 8MB optimum): Fileserver throughput as the metadata batch limit varies,
// including the degenerate ship-every-op setting (the no-batching
// ablation).
func BatchSweep(cfg Config) error {
	cfg.defaults()
	iters := cfg.Iterations
	if iters == 0 {
		iters = 40
	}
	arena, _ := table2Arena(cfg)
	limits := []int{1, 64 << 10, 1 << 20, 8 << 20}
	labels := []string{"per-op (no batching)", "64KB", "1MB", "8MB"}
	p := filebench.Fileserver(cfg.Scale)

	fmt.Fprintf(cfg.Out, "Batch-size sweep (§7.2.2 ablation): Fileserver on PXFS\n\n")
	fmt.Fprintf(cfg.Out, "%-22s%14s%14s\n", "Batch limit", "ops/s", "mean op µs")
	for i, lim := range limits {
		res, err := batchPoint(cfg, arena, lim, p, iters)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-22s%14.0f%14.2f\n", labels[i], res.Throughput,
			float64(res.MeanOpLatency.Nanoseconds())/1000)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// batchPoint runs p on a fresh machine whose client ships at batch limit
// lim, and releases the machine.
func batchPoint(cfg Config, arena uint64, lim int, p filebench.Profile, iters int) (filebench.Result, error) {
	sys, err := core.New(core.Options{ArenaSize: arena, Costs: cfg.Costs, AcquireTimeout: 60 * time.Second})
	if err != nil {
		return filebench.Result{}, err
	}
	defer sys.Close()
	sess, err := sys.NewSession(libfs.Config{UID: 1000, BatchLimit: lim})
	if err != nil {
		return filebench.Result{}, err
	}
	defer sess.Close()
	fb := filebench.PXFSAdapter{FS: pxfs.New(sess, pxfs.Options{NameCache: true})}
	if err := filebench.Setup(fb, p); err != nil {
		return filebench.Result{}, err
	}
	return filebench.Run(fb, p, filebench.RunOpts{Iterations: iters})
}

// timeMS keeps scale.go's duration arithmetic terse.
const timeMS = time.Millisecond
