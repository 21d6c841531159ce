package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/filebench"
	"github.com/aerie-fs/aerie/internal/scalesim"
)

// captureTrace runs a workload single-threaded on a target and returns the
// recorded per-op phase traces (see DESIGN.md: this host has one CPU, so
// thread scaling is regenerated by replaying these traces in the
// event-driven simulator).
func captureTrace(tg *target, p filebench.Profile, iters int) ([]costmodel.OpTrace, error) {
	tracer := tg.tracer
	if tracer == nil {
		tracer = costmodel.NewTracer() // kernel targets: ops are fully local
	}
	// A warmup pass (untraced) populates pools, lock caches, and the name
	// cache so the captured trace reflects steady state rather than
	// one-time costs that would otherwise replay on every simulated op.
	if tg.kv != nil {
		if err := filebench.SetupKV(tg.kv, p); err != nil {
			return nil, err
		}
		if _, err := filebench.RunKV(tg.kv, p, filebench.RunOpts{Iterations: iters, Seed: 99}); err != nil {
			return nil, err
		}
		tracer.Reset()
		if _, err := filebench.RunKV(tg.kv, p, filebench.RunOpts{Iterations: iters, Tracer: tracer}); err != nil {
			return nil, err
		}
	} else {
		if err := filebench.Setup(tg.fb, p); err != nil {
			return nil, err
		}
		if _, err := filebench.Run(tg.fb, p, filebench.RunOpts{Iterations: iters, Seed: 99}); err != nil {
			return nil, err
		}
		tracer.Reset()
		if _, err := filebench.Run(tg.fb, p, filebench.RunOpts{Iterations: iters, Tracer: tracer}); err != nil {
			return nil, err
		}
	}
	return filterOutliers(tracer.Ops()), nil
}

// filterOutliers drops ops whose total time exceeds 20x the median: rare
// wall-clock artifacts (garbage-collector stalls, one-time cache misses)
// that are not steady-state behavior and would otherwise replay on every
// simulated cycle, dominating the virtual timeline.
func filterOutliers(ops []costmodel.OpTrace) []costmodel.OpTrace {
	if len(ops) < 8 {
		return ops
	}
	totals := make([]int64, len(ops))
	for i, op := range ops {
		totals[i] = int64(op.Total)
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	cut := 20 * totals[len(totals)/2]
	out := ops[:0]
	for _, op := range ops {
		if int64(op.Total) <= cut {
			out = append(out, op)
		}
	}
	return out
}

// Figure5 regenerates the §7.2.3 thread-scaling curves: workload throughput
// for 1–10 threads on PXFS, PXFS-NNC, RamFS, ext3, ext4, plus FlatFS on
// Webproxy. Kernel file systems carry no shared-resource phases in their
// traces (the real kernels parallelize internally), so they scale with the
// simulator's thread count; the Aerie file systems carry their measured
// lock and TFS service phases, which is where the paper's contention
// effects (the Webproxy single-directory lock, TFS occupancy) come from.
func Figure5(cfg Config) error {
	cfg.defaults()
	iters := cfg.Iterations
	if iters == 0 {
		iters = 40
	}
	arena, diskBlocks := table2Arena(cfg)
	threadCounts := []int{1, 2, 4, 6, 8, 10}
	profiles := workloadSet(cfg)

	fmt.Fprintf(cfg.Out, "Figure 5: throughput (workload ops/s) vs threads, from measured phase traces\n\n")
	for _, p := range profiles {
		targets, err := fsTargets(cfg, arena, diskBlocks, true)
		if err != nil {
			return err
		}
		if p.Name == "webproxy" {
			ft, err := newFlatTarget(cfg.Costs, arena)
			if err != nil {
				closeAll(targets)
				return err
			}
			targets = append(targets, ft)
		}
		err = figure5Profile(cfg, p, targets, iters, threadCounts)
		closeAll(targets)
		if err != nil {
			return err
		}
	}
	return nil
}

// figure5Profile prints one profile's block of Figure 5.
func figure5Profile(cfg Config, p filebench.Profile, targets []*target, iters int, threadCounts []int) error {
	fmt.Fprintf(cfg.Out, "%s:\n%-12s", p.Name, "threads")
	for _, n := range threadCounts {
		fmt.Fprintf(cfg.Out, "%10d", n)
	}
	fmt.Fprintln(cfg.Out)
	for _, tg := range targets {
		ops, err := captureTrace(tg, p, iters)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", tg.name, p.Name, err)
		}
		results := scalesim.Sweep(ops, threadCounts, scalesim.Config{Duration: 100 * timeMS})
		fmt.Fprintf(cfg.Out, "%-12s", tg.name)
		for _, r := range results {
			fmt.Fprintf(cfg.Out, "%10.0f", r.Throughput)
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// namespaceTrace prefixes lock resources with a client tag so separate
// simulated client processes (each in its own directory, §7.2.3) contend
// only on the shared TFS.
func namespaceTrace(ops []costmodel.OpTrace, client int) []costmodel.OpTrace {
	out := make([]costmodel.OpTrace, len(ops))
	for i, op := range ops {
		cp := op
		cp.Phases = make([]costmodel.Phase, len(op.Phases))
		for j, ph := range op.Phases {
			if strings.HasPrefix(ph.Resource, "lock:") {
				ph.Resource = fmt.Sprintf("c%d/%s", client, ph.Resource)
			}
			cp.Phases[j] = ph
		}
		out[i] = cp
	}
	return out
}

// Table3 regenerates the §7.2.3 multiprogrammed-throughput table:
// aggregate throughput of 1–6 client processes running (a) Fileserver
// instances, (b) Fileserver + Webproxy on PXFS, (c) Fileserver on PXFS +
// Webproxy on FlatFS. Clients run in separate directories; only the TFS is
// shared.
func Table3(cfg Config) error {
	cfg.defaults()
	iters := cfg.Iterations
	if iters == 0 {
		iters = 40
	}
	arena, _ := table2Arena(cfg)
	clientCounts := []int{1, 2, 4, 6}

	// capture records p's trace on tg and releases tg.
	capture := func(tg *target, p filebench.Profile) ([]costmodel.OpTrace, error) {
		defer tg.close()
		return captureTrace(tg, p, iters)
	}
	px, err := newPXFSTarget(cfg.Costs, arena, true)
	if err != nil {
		return err
	}
	fsTrace, err := capture(px, filebench.Fileserver(cfg.Scale))
	if err != nil {
		return err
	}
	px2, err := newPXFSTarget(cfg.Costs, arena, true)
	if err != nil {
		return err
	}
	wpTrace, err := capture(px2, filebench.Webproxy(cfg.Scale*2))
	if err != nil {
		return err
	}
	ft, err := newFlatTarget(cfg.Costs, arena)
	if err != nil {
		return err
	}
	wpFlatTrace, err := capture(ft, filebench.Webproxy(cfg.Scale*2))
	if err != nil {
		return err
	}

	mixes := []struct {
		name   string
		traces func(n int) [][]costmodel.OpTrace
	}{
		{"Fileserver (FS)", func(n int) [][]costmodel.OpTrace {
			var out [][]costmodel.OpTrace
			for c := 0; c < n; c++ {
				out = append(out, namespaceTrace(fsTrace, c))
			}
			return out
		}},
		{"FS+Webproxy (WP)", func(n int) [][]costmodel.OpTrace {
			var out [][]costmodel.OpTrace
			for c := 0; c < n; c++ {
				src := fsTrace
				if c%2 == 1 {
					src = wpTrace
				}
				out = append(out, namespaceTrace(src, c))
			}
			return out
		}},
		{"FS+WP (FlatFS)", func(n int) [][]costmodel.OpTrace {
			var out [][]costmodel.OpTrace
			for c := 0; c < n; c++ {
				src := fsTrace
				if c%2 == 1 {
					src = wpFlatTrace
				}
				out = append(out, namespaceTrace(src, c))
			}
			return out
		}},
	}

	fmt.Fprintf(cfg.Out, "Table 3: multiprogrammed throughput (ops/s) vs client processes\n\n")
	fmt.Fprintf(cfg.Out, "%-20s", "Benchmark")
	for _, n := range clientCounts {
		fmt.Fprintf(cfg.Out, "%12d", n)
	}
	fmt.Fprintln(cfg.Out)
	for _, mix := range mixes {
		fmt.Fprintf(cfg.Out, "%-20s", mix.name)
		for _, n := range clientCounts {
			if mix.name != "Fileserver (FS)" && n == 1 {
				fmt.Fprintf(cfg.Out, "%12s", "N/A")
				continue
			}
			r := scalesim.SimulateTraces(mix.traces(n), scalesim.Config{Duration: 100 * timeMS, TFSThreads: 6})
			fmt.Fprintf(cfg.Out, "%12.0f", r.Throughput)
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// Figure6 regenerates the §7.4 write-latency sensitivity study: throughput
// as the injected SCM write latency grows from 0 to 10µs per cache line
// (kernel file systems pay a corresponding per-block delay through the RAM
// disk driver). The paper's observation — the PXFS-vs-ext4 gap narrows as
// writes slow, and FlatFS's interface advantage shrinks — comes from the
// software cost becoming relatively smaller.
func Figure6(cfg Config) error {
	cfg.defaults()
	iters := cfg.Iterations
	if iters == 0 {
		iters = 30
	}
	arena, diskBlocks := table2Arena(cfg)
	latencies := []int64{0, 100, 1000, 10000} // ns per 64B line

	type series struct {
		name string
		vals []float64
	}
	rows := []*series{
		{name: "Fileserver-PXFS"}, {name: "Fileserver-ext4"},
		{name: "Webproxy-PXFS"}, {name: "Webproxy-ext4"}, {name: "Webproxy-FlatFS"},
	}

	for _, lat := range latencies {
		costs := cfg.Costs
		costs.SCMWriteLine = durNS(lat)
		// Kernel file systems pay per block; a 4KB block write costs a
		// burst of line writes (device-internal parallelism amortizes
		// the rest — see EXPERIMENTS.md).
		costs.BlockWrite = cfg.Costs.BlockWrite + durNS(8*lat)

		// runFS measures p on a fresh target (a key-value run on FlatFS)
		// and releases it, so no point's arenas outlive it.
		runFS := func(mk func() (*target, error), p filebench.Profile) (float64, error) {
			tg, err := mk()
			if err != nil {
				return 0, err
			}
			defer tg.close()
			setup := func() error { return filebench.Setup(tg.fb, p) }
			run := func(o filebench.RunOpts) (filebench.Result, error) { return filebench.Run(tg.fb, p, o) }
			if tg.kv != nil {
				setup = func() error { return filebench.SetupKV(tg.kv, p) }
				run = func(o filebench.RunOpts) (filebench.Result, error) { return filebench.RunKV(tg.kv, p, o) }
			}
			if err := setup(); err != nil {
				return 0, err
			}
			// Warmup pass: steady-state caches and pools.
			if _, err := run(filebench.RunOpts{Iterations: iters, Seed: 99}); err != nil {
				return 0, err
			}
			res, err := run(filebench.RunOpts{Iterations: iters})
			if err != nil {
				return 0, err
			}
			return res.Throughput, nil
		}
		fsProf := filebench.Fileserver(cfg.Scale)
		wpProf := filebench.Webproxy(cfg.Scale * 2)

		v, err := runFS(func() (*target, error) { return newPXFSTarget(costs, arena, true) }, fsProf)
		if err != nil {
			return err
		}
		rows[0].vals = append(rows[0].vals, v)
		v, err = runFS(func() (*target, error) { return newKernelTarget("ext4", costs, diskBlocks) }, fsProf)
		if err != nil {
			return err
		}
		rows[1].vals = append(rows[1].vals, v)
		v, err = runFS(func() (*target, error) { return newPXFSTarget(costs, arena, true) }, wpProf)
		if err != nil {
			return err
		}
		rows[2].vals = append(rows[2].vals, v)
		v, err = runFS(func() (*target, error) { return newKernelTarget("ext4", costs, diskBlocks) }, wpProf)
		if err != nil {
			return err
		}
		rows[3].vals = append(rows[3].vals, v)
		v, err = runFS(func() (*target, error) { return newFlatTarget(costs, arena) }, wpProf)
		if err != nil {
			return err
		}
		rows[4].vals = append(rows[4].vals, v)
	}

	fmt.Fprintf(cfg.Out, "Figure 6: throughput (ops/s) vs added SCM write latency\n\n")
	fmt.Fprintf(cfg.Out, "%-18s", "Series")
	for _, lat := range latencies {
		fmt.Fprintf(cfg.Out, "%12s", fmt.Sprintf("+%dns", lat))
	}
	fmt.Fprintln(cfg.Out)
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-18s", r.name)
		for _, v := range r.vals {
			fmt.Fprintf(cfg.Out, "%12.0f", v)
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

func durNS(ns int64) timeDuration { return timeDuration(ns) }
