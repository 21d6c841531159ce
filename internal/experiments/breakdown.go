package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/filebench"
	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

// Breakdown attributes each FileBench workload's time to exclusive layers,
// in the spirit of the paper's Figure 1 (where does a VFS operation go?)
// turned on Aerie itself: how much of an op is the client library, the RPC
// transport, lock waits, journal commits, TFS work, and charged SCM
// latency. It runs the three Table 2 workloads single-threaded on a machine
// with a live observability sink and derives the split from the per-layer
// metrics, so the rows sum to the measured operation time.
//
// The layers are exclusive (each nanosecond is counted once):
//
//	client  = op total - rpc.call time - client-side SCM charges
//	rpc     = rpc.call - rpc.dispatch (transport + simulated crossings)
//	lock    = lock.wait inside the service
//	journal = journal.commit minus the SCM charges inside commit
//	tfs     = rpc.dispatch - lock - journal - server-side SCM charges
//	scm     = all charged SCM latency (client flushes + server journal/
//	          checkpoint writes)
//
// Lease renewals are pushed out of the window with a long lease, and the
// sink is reset after setup, so the numbers cover only workload operations.
type LayerCost struct {
	Layer string  `json:"layer"`
	NS    int64   `json:"ns"`
	Pct   float64 `json:"pct"`
}

// WorkloadBreakdown is one workload's per-layer split plus the activity
// counters that explain it.
type WorkloadBreakdown struct {
	Workload string `json:"workload"`
	FS       string `json:"fs"`
	Ops      int64  `json:"ops"`
	TotalNS  int64  `json:"total_ns"`
	MeanOpNS int64  `json:"mean_op_ns"`
	// Layers is always the six rows in fixed order: client, rpc, lock,
	// journal, tfs, scm.
	Layers []LayerCost `json:"layers"`
	// Counters is a fixed, ordered selection of activity counters.
	Counters []obs.CounterSnap `json:"counters"`
}

// BreakdownReport is the full -breakdown output. Its JSON encoding is
// deterministic: structs and slices only, no map iteration anywhere.
type BreakdownReport struct {
	Scale      float64             `json:"scale"`
	Iterations int                 `json:"iterations"`
	Workloads  []WorkloadBreakdown `json:"workloads"`
}

// breakdownLayers is the fixed row order of every per-workload table.
var breakdownLayers = []string{"client", "rpc", "lock", "journal", "tfs", "scm"}

// breakdownCounters is the fixed set of activity counters included with
// each workload, in report order.
var breakdownCounters = []string{
	"rpc.calls",
	"rpc.crossings",
	"lock.acquires",
	"lock.contended",
	"lock.clerk.local_hits",
	"lock.clerk.global_calls",
	"journal.records",
	"journal.checkpoints",
	"scm.lines_flushed",
	"scm.fences",
}

// computeLayers derives the exclusive per-layer split from a snapshot.
// total is the operation-histogram sum the split must add up to. Small
// negative residuals (timer granularity, attribution boundaries) are
// clamped to zero with the difference absorbed by the client row, so rows
// never go negative and still sum to total whenever total itself is sane.
func computeLayers(total int64, snap obs.Snapshot) []LayerCost {
	rpcCall := snap.HistSum("rpc.call")
	dispatch := snap.HistSum("rpc.dispatch")
	lockWait := snap.HistSum("lock.wait")
	commit := snap.HistSum("journal.commit")
	commitSCM := snap.Counter("journal.commit.scm_ns")
	scmAll := snap.Counter("scm.charged_ns")
	scmClient := snap.Counter("scm.client.charged_ns")
	scmServer := scmAll - scmClient

	vals := map[string]int64{
		"client":  total - rpcCall - scmClient,
		"rpc":     rpcCall - dispatch,
		"lock":    lockWait,
		"journal": commit - commitSCM,
		"tfs":     dispatch - lockWait - commit - (scmServer - commitSCM),
		"scm":     scmAll,
	}
	// Clamp negatives into the client row (attribution noise), then clamp
	// the client row itself.
	for _, l := range breakdownLayers[1:] {
		if vals[l] < 0 {
			vals["client"] += vals[l]
			vals[l] = 0
		}
	}
	if vals["client"] < 0 {
		vals["client"] = 0
	}
	rows := make([]LayerCost, 0, len(breakdownLayers))
	for _, l := range breakdownLayers {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(vals[l]) / float64(total)
		}
		rows = append(rows, LayerCost{Layer: l, NS: vals[l], Pct: pct})
	}
	return rows
}

// selectCounters copies the fixed counter set out of a snapshot, keeping
// report order independent of the sink's internal map.
func selectCounters(snap obs.Snapshot) []obs.CounterSnap {
	out := make([]obs.CounterSnap, 0, len(breakdownCounters))
	for _, name := range breakdownCounters {
		out = append(out, obs.CounterSnap{Name: name, Value: snap.Counter(name)})
	}
	return out
}

// breakdownWorkload packages one measured run into a report entry.
func breakdownWorkload(workload, fsName, opHist string, sink *obs.Sink) WorkloadBreakdown {
	snap := sink.Snapshot()
	oph, _ := snap.Histogram(opHist)
	wb := WorkloadBreakdown{
		Workload: workload,
		FS:       fsName,
		Ops:      oph.Count,
		TotalNS:  oph.SumNS,
		MeanOpNS: oph.MeanNS,
		Layers:   computeLayers(oph.SumNS, snap),
		Counters: selectCounters(snap),
	}
	return wb
}

// breakdownRun measures one workload on a fresh machine wired for
// attribution — a live sink and a lease long enough that no renewals land
// inside the measurement window. start builds the workload on the mounted
// client and returns its measured run; the sink is reset between the two,
// and the machine is released once the breakdown is taken.
func breakdownRun(cfg Config, arena uint64, workload, fsName, opHist string,
	start func(*libfs.Session) (func() error, error)) (WorkloadBreakdown, error) {
	sink := obs.New()
	sys, err := core.New(core.Options{
		ArenaSize:      arena,
		Costs:          cfg.Costs,
		Lease:          10 * time.Minute,
		AcquireTimeout: 60 * time.Second,
		Obs:            sink,
	})
	if err != nil {
		return WorkloadBreakdown{}, err
	}
	defer sys.Close()
	sess, err := sys.NewSession(libfs.Config{UID: 1000, BatchLimit: 256 << 10})
	if err != nil {
		return WorkloadBreakdown{}, err
	}
	defer sess.Close()
	run, err := start(sess)
	if err != nil {
		return WorkloadBreakdown{}, fmt.Errorf("%s setup: %w", workload, err)
	}
	// Drop setup-phase noise; everything after this is workload.
	sink.Reset()
	if err := run(); err != nil {
		return WorkloadBreakdown{}, fmt.Errorf("%s: %w", workload, err)
	}
	return breakdownWorkload(workload, fsName, opHist, sink), nil
}

// RunBreakdown measures the three FileBench workloads and returns the
// per-layer report: fileserver and webserver on PXFS, webproxy on FlatFS
// (its flat single-directory namespace is FlatFS's home turf).
func RunBreakdown(cfg Config) (*BreakdownReport, error) {
	cfg.defaults()
	iters := cfg.Iterations
	if iters == 0 {
		iters = 60
	}
	arena, _ := table2Arena(cfg)
	report := &BreakdownReport{Scale: cfg.Scale, Iterations: iters}
	opts := filebench.RunOpts{Threads: 1, Iterations: iters}

	for _, p := range []filebench.Profile{
		filebench.Fileserver(cfg.Scale),
		filebench.Webserver(cfg.Scale),
	} {
		wb, err := breakdownRun(cfg, arena, p.Name, "PXFS", "pxfs.op", func(sess *libfs.Session) (func() error, error) {
			fb := filebench.PXFSAdapter{FS: pxfs.New(sess, pxfs.Options{NameCache: true})}
			if err := filebench.Setup(fb, p); err != nil {
				return nil, err
			}
			return func() error {
				_, err := filebench.Run(fb, p, opts)
				return err
			}, nil
		})
		if err != nil {
			return nil, err
		}
		report.Workloads = append(report.Workloads, wb)
	}

	wp := filebench.Webproxy(cfg.Scale * 2)
	wb, err := breakdownRun(cfg, arena, wp.Name, "FlatFS", "flatfs.op", func(sess *libfs.Session) (func() error, error) {
		kv := filebench.FlatKV{FS: flatfs.New(sess, flatfs.Options{})}
		if err := filebench.SetupKV(kv, wp); err != nil {
			return nil, err
		}
		return func() error {
			_, err := filebench.RunKV(kv, wp, opts)
			return err
		}, nil
	})
	if err != nil {
		return nil, err
	}
	report.Workloads = append(report.Workloads, wb)
	return report, nil
}

// WriteText renders the report as aligned tables, one per workload.
func (r *BreakdownReport) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "Per-layer latency breakdown (scale %.2f, %d iterations, single thread)\n",
		r.Scale, r.Iterations)
	fmt.Fprintf(w, "Each row is exclusive time; rows sum to the measured op total.\n")
	for _, wb := range r.Workloads {
		fmt.Fprintf(w, "\n%s on %s: %d ops, mean %s/op\n",
			wb.Workload, wb.FS, wb.Ops, obs.FormatNS(wb.MeanOpNS))
		fmt.Fprintf(w, "  %-8s %14s %14s %7s\n", "layer", "total", "per-op", "share")
		for _, lc := range wb.Layers {
			perOp := int64(0)
			if wb.Ops > 0 {
				perOp = lc.NS / wb.Ops
			}
			fmt.Fprintf(w, "  %-8s %14s %14s %6.1f%%\n",
				lc.Layer, obs.FormatNS(lc.NS), obs.FormatNS(perOp), lc.Pct)
		}
		fmt.Fprintf(w, "  activity:")
		for i, c := range wb.Counters {
			if i > 0 && i%3 == 0 {
				fmt.Fprintf(w, "\n           ")
			}
			fmt.Fprintf(w, " %s=%d", c.Name, c.Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteJSON renders the report as deterministic indented JSON.
func (r *BreakdownReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Breakdown runs the measurement and prints the text tables (cmd/aerie-bench
// -breakdown; pass -json for the machine-readable form).
func Breakdown(cfg Config) error {
	cfg.defaults()
	rep, err := RunBreakdown(cfg)
	if err != nil {
		return err
	}
	return rep.WriteText(cfg.Out)
}

// BreakdownJSON runs the measurement and prints JSON only.
func BreakdownJSON(cfg Config) error {
	cfg.defaults()
	rep, err := RunBreakdown(cfg)
	if err != nil {
		return err
	}
	return rep.WriteJSON(cfg.Out)
}
