// Package agesweep is the long-haul aging harness: it subjects one volume to
// sustained allocate/free churn — the log-structured append+rotate profile
// shredding extents while the fsync-heavy varmail profile grinds metadata —
// and tracks two slow-degradation signals across rounds:
//
//   - Allocator fragmentation: after each churn round the buddy allocator's
//     free lists are sampled (alloc.FragStats). The fragmentation index is
//     1 − LargestFree/FreeBytes, so a healthy allocator that keeps coalescing
//     stays near 0 while one that shatters drifts toward 1 and eventually
//     fails large allocations despite ample total free space.
//   - Read-path slowdown: a fixed set of probe files written before any
//     churn is re-read after every round. Their layout never changes, so any
//     latency drift is the volume aging around them — scattered metadata,
//     longer lookup chains, degraded locality.
//
// Every round also re-proves the robustness invariants the exhaustion sweep
// establishes once: the journal is idle at quiescence and Fsck finds zero
// leaked blocks without repair. Aging must not become leaking.
//
// The sweep returns the full per-round trajectory (BENCH_aging.json records
// a snapshot; `make bench-aging` reproduces it) plus CheckBounds, which the
// short-mode CI test (`make tier2-aging`) uses to pin an absolute
// fragmentation ceiling and a generous read-slowdown ratio.
package agesweep

import (
	"fmt"
	"io"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/filebench"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

// Config controls a sweep.
type Config struct {
	// Rounds of churn (each round runs both profiles, then samples).
	Rounds int
	// Iters is the filebench iteration count per profile per round.
	Iters int
	// Threads per filebench run.
	Threads int
	// Scale shrinks the profile working sets (filebench scale).
	Scale float64
	// ArenaMB sizes the volume.
	ArenaMB int
	// Seed feeds workload randomness; rounds derive distinct seeds.
	Seed int64
	// Logf, when set, receives per-round progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
	if c.Iters <= 0 {
		c.Iters = 30
	}
	if c.Threads <= 0 {
		c.Threads = 2
	}
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.ArenaMB <= 0 {
		c.ArenaMB = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RoundStat is one sample of the aging trajectory.
type RoundStat struct {
	Round int `json:"round"` // 0 = pre-churn baseline
	// Allocator shape after the round's churn settled.
	FreeBytes   uint64  `json:"free_bytes"`
	LargestFree uint64  `json:"largest_free"`
	Fragments   uint64  `json:"fragments"`
	FragIndex   float64 `json:"frag_index"`
	// Mean whole-file probe read latency, ns per open/read/close pass.
	ReadNsPerOp int64 `json:"read_ns_per_op"`
	// Churn volume this round (workload ops across both profiles).
	ChurnOps int64 `json:"churn_ops"`
}

// Result is the sweep's trajectory plus the invariant failures it found.
type Result struct {
	ArenaMB int         `json:"arena_mb"`
	Rounds  []RoundStat `json:"rounds"`
	fails   []string
}

// Failures lists every invariant violation observed during the sweep
// (stranded journal batches, leaked blocks, unreadable probe files).
func (r *Result) Failures() []string { return r.fails }

// FinalFragIndex is the fragmentation index after the last churn round.
func (r *Result) FinalFragIndex() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	return r.Rounds[len(r.Rounds)-1].FragIndex
}

// ReadSlowdown is the last round's probe read latency over the pre-churn
// baseline. 1.0 means no aging; the CI bound is deliberately generous
// because absolute latencies on shared runners are noisy.
func (r *Result) ReadSlowdown() float64 {
	if len(r.Rounds) < 2 || r.Rounds[0].ReadNsPerOp <= 0 {
		return 1
	}
	return float64(r.Rounds[len(r.Rounds)-1].ReadNsPerOp) / float64(r.Rounds[0].ReadNsPerOp)
}

// CheckBounds applies the CI acceptance bounds to the trajectory: the
// fragmentation index must stay at or below maxFragIndex on every round, the
// final read slowdown at or below maxSlowdown, and no invariant failure may
// have occurred. It returns human-readable violations, empty when clean.
func (r *Result) CheckBounds(maxFragIndex, maxSlowdown float64) []string {
	var v []string
	v = append(v, r.fails...)
	for _, rs := range r.Rounds {
		if rs.FragIndex > maxFragIndex {
			v = append(v, fmt.Sprintf("round %d: frag index %.3f exceeds bound %.3f (largest free %d of %d free bytes)",
				rs.Round, rs.FragIndex, maxFragIndex, rs.LargestFree, rs.FreeBytes))
		}
	}
	if sd := r.ReadSlowdown(); sd > maxSlowdown {
		v = append(v, fmt.Sprintf("probe read slowdown %.2fx exceeds bound %.2fx (baseline %dns, final %dns)",
			sd, maxSlowdown, r.Rounds[0].ReadNsPerOp, r.Rounds[len(r.Rounds)-1].ReadNsPerOp))
	}
	return v
}

const (
	probeFiles = 8
	probeSize  = 64 << 10
	probeReads = 4 // passes per probe per measurement; best pass wins
)

func probeName(i int) string { return fmt.Sprintf("/bench/probe%02d", i) }

// Run executes the sweep on a fresh volume.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sys, err := core.New(core.Options{
		ArenaSize:      uint64(cfg.ArenaMB) << 20,
		AcquireTimeout: 60 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	sess, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	fsys := filebench.PXFSAdapter{FS: pxfs.New(sess, pxfs.Options{NameCache: true})}

	churn := filebench.LogRotate(cfg.Scale)
	meta := filebench.Varmail(cfg.Scale)
	if err := filebench.Setup(fsys, meta); err != nil {
		return nil, fmt.Errorf("agesweep: varmail setup: %w", err)
	}
	if err := filebench.Setup(fsys, churn); err != nil {
		return nil, fmt.Errorf("agesweep: logrotate setup: %w", err)
	}
	// The probe set: fixed files whose layout never changes after this
	// point. Their read latency isolates aging of the volume around them.
	buf := make([]byte, probeSize)
	for i := range buf {
		buf[i] = byte(i*131 + 17)
	}
	for i := 0; i < probeFiles; i++ {
		f, err := fsys.Create(probeName(i))
		if err != nil {
			return nil, fmt.Errorf("agesweep: probe create: %w", err)
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return nil, fmt.Errorf("agesweep: probe write: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("agesweep: probe close: %w", err)
		}
	}
	if err := fsys.Sync(); err != nil {
		return nil, fmt.Errorf("agesweep: probe sync: %w", err)
	}

	res := &Result{ArenaMB: cfg.ArenaMB}
	sample := func(round int, churnOps int64) {
		st := sys.Set.Shard(0).FragStats()
		ns, err := measureProbes(fsys, buf)
		if err != nil {
			res.fails = append(res.fails, fmt.Sprintf("round %d: probe read: %v", round, err))
		}
		if !sys.Set.JournalIdle() {
			res.fails = append(res.fails, fmt.Sprintf("round %d: journal not idle at quiescence", round))
		}
		rep, err := sys.Set.Fsck(false)
		if err != nil {
			res.fails = append(res.fails, fmt.Sprintf("round %d: fsck: %v", round, err))
		} else if rep.LeakedBlocks != 0 {
			res.fails = append(res.fails, fmt.Sprintf("round %d: fsck leaked %d blocks", round, rep.LeakedBlocks))
		}
		res.Rounds = append(res.Rounds, RoundStat{
			Round: round, FreeBytes: st.FreeBytes, LargestFree: st.LargestFree,
			Fragments: st.Fragments, FragIndex: st.Index,
			ReadNsPerOp: ns, ChurnOps: churnOps,
		})
		logf("agesweep round %d: frag=%.3f fragments=%d largest=%dKiB read=%dns ops=%d",
			round, st.Index, st.Fragments, st.LargestFree>>10, ns, churnOps)
	}
	sample(0, 0) // pre-churn baseline

	for round := 1; round <= cfg.Rounds; round++ {
		var ops int64
		cr, err := filebench.Run(fsys, churn, filebench.RunOpts{
			Threads: cfg.Threads, Iterations: cfg.Iters,
			Seed: cfg.Seed + int64(round)*7919,
		})
		if err != nil {
			return res, fmt.Errorf("agesweep: round %d logrotate: %w", round, err)
		}
		ops += cr.Ops
		mr, err := filebench.Run(fsys, meta, filebench.RunOpts{
			Threads: cfg.Threads, Iterations: cfg.Iters,
			Seed: cfg.Seed + int64(round)*104729,
		})
		if err != nil {
			return res, fmt.Errorf("agesweep: round %d varmail: %w", round, err)
		}
		ops += mr.Ops
		if err := fsys.Sync(); err != nil {
			return res, fmt.Errorf("agesweep: round %d sync: %w", round, err)
		}
		sample(round, ops)
	}
	return res, nil
}

// measureProbes reads every probe file whole probeReads times and returns
// the fastest full-pass latency in ns per file — min over passes filters
// scheduler noise, which on shared runners dwarfs the signal.
func measureProbes(fsys filebench.FS, buf []byte) (int64, error) {
	best := int64(0)
	for pass := 0; pass < probeReads; pass++ {
		t0 := time.Now()
		for i := 0; i < probeFiles; i++ {
			if err := readWhole(fsys, probeName(i), buf); err != nil {
				return 0, err
			}
		}
		ns := time.Since(t0).Nanoseconds() / probeFiles
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

func readWhole(fsys filebench.FS, path string, buf []byte) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	for {
		n, err := f.Read(buf)
		if err == io.EOF || (err == nil && n == 0) {
			break
		}
		if err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
