// Command benchmark is the repository's benchmark: five named workloads
// driven at the real boundary (mmap volume, loopback TCP, no injected
// costs), every end-to-end and per-layer metric printed by name with its
// unit, and every output checked. See README.md in this directory.
//
//	go run ./benchmark                        the five workloads, untraced
//	go run ./benchmark -trace 1               … and a traced run of each
//	go run ./benchmark -workload read_fit     one workload; the last line of
//	                                          output is the driver's JSON
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		cfg       = runConfig{scale: 1, setups: 5}
		trace     = flag.Int("trace", 0, "1: traced run (per-layer metrics); 0: untraced (end-to-end metrics)")
		runs      = flag.Int("runs", 0, "runs per workload (default 1; 3 per side for -selfcheck); -compare reports a spread when both files hold at least 4")
		compare   = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice on this build, sides taking turns, and fail if any end-to-end metric differs by more than its bound")
	)
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload and print the driver's JSON line last")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (2 is the documented hold-out seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "timed seconds per run")
	flag.StringVar(&cfg.resultPath, "result", "", "single workload: also write the full result, nulls and counts included, to this file")
	flag.StringVar(&cfg.workDir, "workdir", filepath.Join("benchmark", ".work"), "scratch directory for volume, trace and result files")
	flag.Parse()
	cfg.trace = *trace != 0

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare old.json new.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *selfcheck:
		err = selfCheck(&cfg, max(*runs, 3))
	case cfg.workload != "":
		err = runOne(&cfg)
	default:
		err = runSuite(&cfg, max(*runs, 1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// driverLine is the last line of a single-workload run, the form the
// driver parses: exactly these keys, every metric a number.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine carries exactly the metrics BENCHMARK.json names for this kind
// of run: end_to_end for an untraced run (the timings stay out of it),
// per_layer for a traced one. A null is sent as 0.
func (res *runResult) driverLine() driverLine {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	l := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]driverMetric, len(defs))}
	for _, d := range defs {
		dm := driverMetric{Unit: d.Unit}
		if v := res.Metrics[d.Name].Value; v != nil {
			dm.Value = *v
		}
		l.Metrics[d.Name] = dm
	}
	return l
}

// runOne runs one workload in this process. A failed verification still
// prints the line (correct=false, failed>0) and then exits non-zero.
func runOne(cfg *runConfig) error {
	if why := notComparable(cfg.workload, volumeFS(cfg.workDir)); why != "" {
		fmt.Fprintln(os.Stderr, "benchmark: WARNING:", why)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if cfg.resultPath != "" {
		raw, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.resultPath, raw, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// print writes the run's metrics by name, one per line, with units.
func (res *runResult) print(w *os.File) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s  seed=%d  %s  ops=%d  rounds=%d×%d/client\n", res.Workload, res.Seed, mode, res.Ops, res.Rounds, res.RoundOps)
	fmt.Fprintf(w, "  %-38s %14.6g %s  (%d failed of %d attempted)\n", "fail_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
	defs := untraced
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if m := res.Metrics[d.Name]; m.Value == nil {
			fmt.Fprintf(w, "  %-38s %14s %s\n", d.Name, "null", m.Unit)
		} else {
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.Name, *m.Value, m.Unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}
