package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// benchmark driver uses for its spread check.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median; known only
// from four or more runs.
func spread(v []float64) (float64, bool) {
	if len(v) < 4 {
		return 0, false
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v), true
}

type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
	unbounded  verdict = "-" // a timing: shown with its spread, judged by nobody here
)

// judge compares one metric on one workload. worse is how far the new
// median moved in the metric's bad direction, as a share of the base;
// spread is the wider of the two sides' interquartile spreads, -1 when
// neither side has the four runs it takes to know one.
func judge(d metricDef, base, cur []float64) (worse, widest float64, v verdict) {
	b, c := median(base), median(cur)
	worse = (c - b) / b
	if d.Better == "higher" {
		worse = -worse
	}
	widest = -1
	for _, side := range [][]float64{base, cur} {
		if sp, known := spread(side); known && sp > widest {
			widest = sp
		}
	}
	switch {
	case d.Bound == 0:
		return worse, widest, unbounded
	case widest > d.Bound:
		return worse, widest, unresolved
	case worse > d.Bound:
		return worse, widest, regressed
	}
	return worse, widest, ok
}

func loadResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func compareFiles(w io.Writer, oldPath, newPath string) error {
	base, err := loadResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadResult(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s (commit %s, seed %d)\nnew  %s (commit %s, seed %d)\n\n",
		oldPath, base.Env.Commit, base.Seed, newPath, cur.Env.Commit, cur.Seed)
	if bad := compareResults(w, base, cur, false); bad > 0 {
		return fmt.Errorf("%d regressed", bad)
	}
	return nil
}

// compareResults prints one row per workload × metric of an untraced run and
// returns how many regressed. Only the metrics with a bound can regress; the
// timings are printed with the spread a reader needs to judge them. With
// symmetric set (the self-check), a move past the bound in either direction
// counts: two runs of one build must agree, not merely not get worse.
func compareResults(w io.Writer, base, cur *resultFile, symmetric bool) (bad int) {
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "spread", "bound", "verdict")
	for _, bw := range base.Workloads {
		cw := cur.workload(bw.Name)
		if cw == nil {
			fmt.Fprintf(w, "%-16s missing from the new file\n", bw.Name)
			bad++
			continue
		}
		if why := bw.NotComparable + cw.NotComparable; why != "" {
			fmt.Fprintf(w, "%-16s not compared: %s\n", bw.Name, why)
			continue
		}
		for _, d := range untraced {
			b, c := bw.values(d.Name), cw.values(d.Name)
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-16s %-20s missing\n", bw.Name, d.Name)
				bad++
				continue
			}
			worse, widest, v := judge(d, b, c)
			if symmetric && v == ok && -worse > d.Bound {
				v = regressed
			}
			if v == regressed {
				bad++
			}
			sp, bound := "?", "none"
			if widest >= 0 {
				sp = fmt.Sprintf("%.1f%%", 100*widest)
			}
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+8.1f%% %7s %7s  %s\n",
				bw.Name, d.Name, median(b), median(c), 100*worse, sp, bound, v)
		}
		// A failure ratio has no tolerance: any rise is a regression.
		bf, cf := bw.failRatio(), cw.failRatio()
		v := ok
		if cf > bf {
			v = regressed
			bad++
		}
		fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %9s %7s %7s  %s\n", bw.Name, "fail_ratio", bf, cf, "", "", "any", v)
	}
	return bad
}

// selfCheck runs the untraced suite twice on the same build — runs per side,
// the two sides taking turns run by run so that a slow spell of the machine
// lands on both — and fails if the sides' medians of a bounded metric
// disagree by more than its bound.
func selfCheck(cfg *runConfig, runs int) error {
	cfg.trace = false
	env := readEnv(cfg.workDir)
	var sides [2]resultFile
	for _, w := range workloads {
		wr := [2]workloadResult{}
		for r := 0; r < runs; r++ {
			for i := range sides {
				fmt.Printf("=== self-check side %d, run %d ===\n", i+1, r+1)
				res, err := child(cfg, w, false, os.Stdout)
				if err != nil {
					return err
				}
				wr[i].Untraced = append(wr[i].Untraced, *res)
			}
		}
		for i := range sides {
			wr[i].Name = w.name
			sides[i].Env, sides[i].Seed, sides[i].Seconds = env, cfg.seed, cfg.seconds
			sides[i].Workloads = append(sides[i].Workloads, wr[i])
		}
	}
	fmt.Println()
	if bad := compareResults(os.Stdout, &sides[0], &sides[1], true); bad > 0 {
		return fmt.Errorf("self-check: %d metrics differ by more than their bound between two sets of runs of the same build", bad)
	}
	fmt.Println("self-check passed: every bounded end-to-end metric repeats within its bound")
	return nil
}
