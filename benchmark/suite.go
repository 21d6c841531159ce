package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// resultFile is what a suite run writes and -compare reads.
type resultFile struct {
	Env       envRecord        `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name string `json:"name"`
	// NotComparable, when set, says why this workload's numbers on this
	// machine must not be compared with another machine's.
	NotComparable string      `json:"not_comparable,omitempty"`
	Untraced      []runResult `json:"untraced"`
	Traced        []runResult `json:"traced,omitempty"`
}

func (wr *workloadResult) values(metric string) []float64 {
	var out []float64
	for _, r := range wr.Untraced {
		if m, ok := r.Metrics[metric]; ok && m.Value != nil {
			out = append(out, *m.Value)
		}
	}
	return out
}

func (wr *workloadResult) failRatio() float64 {
	var failed, attempted int64
	for _, r := range wr.Untraced {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

func (rf *resultFile) workload(name string) *workloadResult {
	for i := range rf.Workloads {
		if rf.Workloads[i].Name == name {
			return &rf.Workloads[i]
		}
	}
	return nil
}

// child re-executes this binary for one run of one workload, so every
// workload is measured in a process of its own (its CPU time, allocation
// counts and peak RSS are the workload's and nothing else's). The child's
// report is echoed; its full result comes back through a file.
func child(cfg *runConfig, w *workload, trace bool, out io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	resPath := filepath.Join(cfg.workDir, fmt.Sprintf("run-%s-%d.json", w.name, os.Getpid()))
	defer os.Remove(resPath)
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", t, "-workdir", cfg.workDir, "-result", resPath)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	for _, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "{") { // the driver's line is for the driver
			fmt.Fprintln(out, line)
		}
	}
	raw, err := os.ReadFile(resPath)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// suite runs every workload `runs` times untraced and, when asked, once
// traced. End-to-end numbers only ever come from the untraced runs.
func suite(cfg *runConfig, runs int, out io.Writer) (*resultFile, error) {
	rf := &resultFile{Env: readEnv(cfg.workDir), Seed: cfg.seed, Seconds: cfg.seconds}
	fmt.Fprintf(out, "commit %s  %s  nproc=%d GOMAXPROCS=%d  kernel %s  volume dir on %s  seed=%d\n\n",
		rf.Env.Commit, rf.Env.GoVersion, rf.Env.NProc, rf.Env.GOMAXPROCS, rf.Env.Kernel, rf.Env.VolumeFS, cfg.seed)
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, NotComparable: notComparable(w.name, rf.Env.VolumeFS)}
		if wr.NotComparable != "" {
			fmt.Fprintln(out, "NOT COMPARABLE:", wr.NotComparable)
		}
		for i := 0; i < runs; i++ {
			res, err := child(cfg, w, false, out)
			if err != nil {
				return nil, err
			}
			wr.Untraced = append(wr.Untraced, *res)
		}
		if cfg.trace {
			res, err := child(cfg, w, true, out)
			if err != nil {
				return nil, err
			}
			wr.Traced = append(wr.Traced, *res)
		}
		fmt.Fprintln(out)
		rf.Workloads = append(rf.Workloads, wr)
	}
	return rf, nil
}

// runSuite runs the suite and writes its result file, the input of -compare,
// to result-seed<N>.json in the work directory.
func runSuite(cfg *runConfig, runs int) error {
	rf, err := suite(cfg, runs, os.Stdout)
	if err != nil {
		return err
	}
	outPath := filepath.Join(cfg.workDir, fmt.Sprintf("result-seed%d.json", cfg.seed))
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", outPath)
	for _, wr := range rf.Workloads {
		for _, r := range append(wr.Untraced, wr.Traced...) {
			if !r.Correct {
				return fmt.Errorf("%s: %d of %d checks failed", r.Workload, r.Failed, r.Attempted)
			}
		}
	}
	return nil
}
