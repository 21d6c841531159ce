package experiments

import (
	"fmt"
	"time"

	"github.com/aerie-fs/aerie/internal/filebench"
)

// workloadSet builds the three FileBench profiles at the configured scale.
func workloadSet(cfg Config) []filebench.Profile {
	return []filebench.Profile{
		filebench.Fileserver(cfg.Scale),
		filebench.Webserver(cfg.Scale),
		filebench.Webproxy(cfg.Scale * 2), // paper uses 1k files vs 10k
	}
}

func table2Arena(cfg Config) (uint64, uint64) {
	// Fileserver at scale s: ~10000*s files * ~160KB mean occupancy.
	arena := uint64(float64(10000*160*1024) * cfg.Scale * 4)
	if arena < 256<<20 {
		arena = 256 << 20
	}
	return arena, arena / 4096
}

// Table2 reproduces the §7.2.2 application workloads: average (and 95th
// percentile) latency per workload operation for Fileserver, Webserver, and
// Webproxy on PXFS, PXFS with no name cache, RamFS, ext3, and ext4.
func Table2(cfg Config) error {
	cfg.defaults()
	iters := cfg.Iterations
	if iters == 0 {
		iters = 60
	}
	arena, diskBlocks := table2Arena(cfg)
	profiles := workloadSet(cfg)

	type cell struct{ mean, p95 time.Duration }
	results := map[string]map[string]cell{}
	var names []string

	for _, p := range profiles {
		results[p.Name] = map[string]cell{}
	}
	targets, err := fsTargets(cfg, arena, diskBlocks, true)
	if err != nil {
		return err
	}
	defer closeAll(targets)
	for _, tg := range targets {
		names = append(names, tg.name)
		for _, p := range profiles {
			if err := filebench.Setup(tg.fb, p); err != nil {
				return fmt.Errorf("%s/%s setup: %w", tg.name, p.Name, err)
			}
			res, err := filebench.Run(tg.fb, p, filebench.RunOpts{Iterations: iters})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", tg.name, p.Name, err)
			}
			results[p.Name][tg.name] = cell{res.MeanOpLatency, res.P95OpLatency}
		}
	}

	fmt.Fprintf(cfg.Out, "Table 2: average latency per workload operation, µs (95th percentile in parens)\n")
	fmt.Fprintf(cfg.Out, "(scale %.2f: fileserver/webserver %d files, webproxy %d files)\n\n",
		cfg.Scale, profiles[0].NFiles, profiles[2].NFiles)
	fmt.Fprintf(cfg.Out, "%-12s", "Workload")
	for _, n := range names {
		fmt.Fprintf(cfg.Out, "%20s", n)
	}
	fmt.Fprintln(cfg.Out)
	for _, p := range profiles {
		fmt.Fprintf(cfg.Out, "%-12s", p.Name)
		for _, n := range names {
			c := results[p.Name][n]
			fmt.Fprintf(cfg.Out, "%12.1f (%5.1f)",
				float64(c.mean.Nanoseconds())/1000, float64(c.p95.Nanoseconds())/1000)
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
