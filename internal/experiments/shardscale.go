package experiments

import (
	"fmt"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/filebench"
	"github.com/aerie-fs/aerie/internal/scalesim"
)

// ShardScale is the sharded trusted set's Table 3 / Figure 5 analogue:
// aggregate throughput of 64–1024 simulated Fileserver client processes
// (each in its own directory, so only the trusted service is shared)
// against {1, 2, 4, 8} TFS shards. In the simulator a thread's "tfs"
// phases route to its home shard's service point — the analogue of
// namespace placement spreading client working directories — and every
// shard carries its own TFSThreads-deep capacity, just as each real shard
// runs its own journal, allocator, and group-commit leader. The classic
// single service saturates once ~TFSThreads clients keep it busy; adding
// shards moves that knee right and the multiprogrammed throughput ceiling
// up roughly with the shard count once the service is the bottleneck.
func ShardScale(cfg Config) error {
	cfg.defaults()
	iters := cfg.Iterations
	if iters == 0 {
		iters = 40
	}
	arena, _ := table2Arena(cfg)
	clientCounts := []int{64, 128, 256, 512, 1024}
	shardCounts := []int{1, 2, 4, 8}

	px, err := newPXFSTarget(cfg.Costs, arena, true)
	if err != nil {
		return err
	}
	fsTrace, err := captureTrace(px, filebench.Fileserver(cfg.Scale), iters)
	if err != nil {
		return err
	}

	fmt.Fprintf(cfg.Out, "Shard scaling: multiprogrammed Fileserver throughput (ops/s) vs clients, from measured phase traces\n\n")
	fmt.Fprintf(cfg.Out, "%-10s", "shards")
	for _, n := range clientCounts {
		fmt.Fprintf(cfg.Out, "%12d", n)
	}
	fmt.Fprintln(cfg.Out)
	for _, shards := range shardCounts {
		fmt.Fprintf(cfg.Out, "%-10d", shards)
		for _, n := range clientCounts {
			r := shardScalePoint(fsTrace, n, shards)
			fmt.Fprintf(cfg.Out, "%12.0f", r.Throughput)
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// shardScalePoint simulates one (clients, shards) cell: n client processes
// replaying the trace with private lock resources and a shards-way
// partitioned trusted service.
func shardScalePoint(trace []costmodel.OpTrace, clients, shards int) scalesim.Result {
	traces := make([][]costmodel.OpTrace, 0, clients)
	for c := 0; c < clients; c++ {
		traces = append(traces, namespaceTrace(trace, c))
	}
	return scalesim.SimulateTraces(traces, scalesim.Config{
		Duration:   100 * timeMS,
		TFSThreads: 6,
		Shards:     shards,
	})
}
