package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // measured time: whole rounds run until this much has been timed
	trace    bool
	scale    float64 // op-count and population scale; 1 except in the smoke test
	setups   int     // fewest untraced set-ups per run; setup_s is the median of all
	workDir  string
	// resultPath, when set, receives the run's full runResult as JSON.
	resultPath string

	// Test hooks. applyDelay sleeps inside the tap on every ApplyLog* call;
	// breakModel makes the verifier expect bytes the writers never wrote.
	applyDelay time.Duration
	breakModel bool

	content, expect *content // see contents
}

// minRounds is the fewest rounds a run measures. Space and memory are taken
// from these rounds alone, so they describe the same amount of work on a
// fast build and a slow one: both creep with every further round.
const minRounds = 3

// Set-ups repeat, past the fewest asked for, until setupBudget has gone into
// them or maxSetups are done: a 30 ms set-up needs many more samples than a
// 1 s one before its median settles.
const (
	setupBudget = 3 * time.Second
	maxSetups   = 25
)

// contents returns what workers write and what verification demands, built
// once per run: generating the block is the benchmark's cost, not set-up.
func (cfg *runConfig) contents() (write, expect *content) {
	if cfg.content == nil {
		cfg.content = newContent(cfg.seed)
		cfg.expect = cfg.content
		if cfg.breakModel {
			cfg.expect = newContent(cfg.seed + 1)
		}
	}
	return cfg.content, cfg.expect
}

// instance is one built machine with its populated namespace and workers.
type instance struct {
	cfg      *runConfig
	wl       *workload
	m        *machine
	content  *content // what workers write
	expect   *content // what verification demands; differs only under breakModel
	workers  []worker
	px       []*pxClient // the PXFS clients among them
	recs     []recorder  // one per worker, reused every round
	tally    tally
	usedBase uint64 // Statfs used bytes of the freshly formatted volume

	// Abandon-and-reopen timings (mail_sync_vol).
	openNS, fsckNS int64
}

// tally counts checks attempted and failed: an op that returns an error, a
// read that differs from the model and a failed end-of-run check all count.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	notes             []string
}

func (in *instance) count(err error) {
	in.tally.attempted.Add(1)
	if err != nil {
		in.fail("%v", err)
	}
}

func (in *instance) fail(format string, args ...any) {
	in.tally.failed.Add(1)
	in.tally.mu.Lock()
	if len(in.tally.notes) < 5 {
		in.tally.notes = append(in.tally.notes, fmt.Sprintf(format, args...))
	}
	in.tally.mu.Unlock()
}

// rng is client i's op stream for this seed.
func (in *instance) rng(client int) *rand.Rand {
	return rand.New(rand.NewSource(in.cfg.seed*1000003 + int64(client) + 1))
}

func (in *instance) used() uint64 {
	st, err := in.m.sys.Set.Statfs()
	if err != nil {
		in.fail("statfs: %v", err)
		return 0
	}
	return st.TotalBytes - st.FreeBytes
}

// setup is everything a user waits for before the first op: core.New, the
// mounts, population, and a warm-up of 5 % of a round.
func setup(cfg *runConfig, wl *workload, tr *tracer) (*instance, error) {
	m, err := newMachine(cfg, wl.spec, tr)
	if err != nil {
		return nil, err
	}
	in := &instance{cfg: cfg, wl: wl, m: m}
	in.content, in.expect = cfg.contents()
	in.usedBase = in.used()
	if err := wl.build(in); err != nil {
		in.close()
		return nil, fmt.Errorf("%s: populate: %w", wl.name, err)
	}
	in.recs = make([]recorder, len(in.workers))
	in.round(in.roundOps()/20+1, false)
	return in, nil
}

func (in *instance) roundOps() int { return in.scaled(in.wl.roundOps, 32) }

func (in *instance) close() { in.m.close() }

// recorder holds one worker's latency samples for the round in progress.
type recorder struct{ lat []int64 }

func (r *recorder) begin(ct *clientTrace) time.Time {
	ct.beginOp()
	return time.Now()
}

func (r *recorder) end(ct *clientTrace, t0 time.Time) {
	d := time.Since(t0)
	ct.endOp(t0, d)
	r.lat = append(r.lat, d.Nanoseconds())
}

// reset empties the recorder and makes room for n samples, so that no
// append allocates inside the timed part.
func (r *recorder) reset(n int) {
	if cap(r.lat) < n {
		r.lat = make([]int64, 0, n)
	}
	r.lat = r.lat[:0]
}

// roundStat is what one timed round cost. Memory and CPU are read just
// outside the timed part, so script generation and audits are not in them.
type roundStat struct {
	ops        int64
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	spaceAmp   float64
	p50, p99   float64 // µs, over this round's ops
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// round runs one round of ops per worker on every worker at once. Spans are
// recorded only when traced is set (and the run has a tracer): the warm-up
// round leaves none.
func (in *instance) round(ops int, traced bool) roundStat {
	for i, w := range in.workers {
		w.prepare(ops)
		in.recs[i].reset(ops + ops/256 + 8)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	if tr := in.m.tr; tr != nil && traced {
		tr.on.Store(true)
	}
	t0 := time.Now()
	if len(in.workers) == 1 {
		in.workers[0].execute(&in.recs[0])
	} else {
		var wg sync.WaitGroup
		for i, w := range in.workers {
			wg.Add(1)
			go func(w worker, rec *recorder) {
				defer wg.Done()
				w.execute(rec)
			}(w, &in.recs[i])
		}
		wg.Wait()
	}
	st := roundStat{wall: time.Since(t0)}
	if tr := in.m.tr; tr != nil {
		tr.on.Store(false)
	}
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	var live int64
	var lat []int64
	for i, w := range in.workers {
		lat = append(lat, in.recs[i].lat...)
		live += w.audit()
	}
	st.ops = int64(len(lat))
	slices.Sort(lat)
	st.p50, st.p99 = pct(lat, 0.50), pct(lat, 0.99)
	if live > 0 {
		st.spaceAmp = float64(in.used()-in.usedBase) / float64(live)
	}
	return st
}

// segment is a run of consecutive rounds on one instance.
type segment struct {
	rounds []roundStat
	wall   time.Duration
	ops    int64
	rssMiB float64 // VmHWM when round minRounds ended
}

// measure runs whole rounds until seconds of timed work have accumulated
// (at least minRounds), until the workload's cap on rounds, or until a
// traced run's span buffer is nearly full.
func (in *instance) measure(seconds float64) *segment {
	seg := &segment{}
	capped := func() bool { return in.wl.maxRounds > 0 && len(seg.rounds) >= in.wl.maxRounds }
	for len(seg.rounds) < minRounds || (seg.wall.Seconds() < seconds && !capped()) {
		if tr := in.m.tr; tr != nil && len(seg.rounds) > 0 {
			perRound := int(tr.n.Load()) / len(seg.rounds)
			if tr.room() < perRound+perRound/2 {
				break
			}
		}
		st := in.round(in.roundOps(), true)
		seg.rounds = append(seg.rounds, st)
		seg.wall += st.wall
		seg.ops += st.ops
		if len(seg.rounds) == minRounds {
			seg.rssMiB = rssPeakMiB()
		}
	}
	return seg
}

// over is the median over rounds of f: a slow or fast phase of the machine
// moves a few rounds, not the round in the middle.
func (seg *segment) over(f func(r *roundStat) float64) float64 {
	v := make([]float64, len(seg.rounds))
	for i := range seg.rounds {
		v[i] = f(&seg.rounds[i])
	}
	return median(v)
}

func (seg *segment) opsPerSec() float64 {
	return seg.over(func(r *roundStat) float64 { return float64(r.ops) / r.wall.Seconds() })
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pct is the q-quantile (0..1) of sorted nanosecond samples, in µs.
func pct(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

// rssPeakMiB is the process's VmHWM.
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// metricValue is one reported number. A nil Value is a count the program
// does not keep on this workload (printed as null, sent to the driver as 0).
type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Ops       int64                  `json:"ops"` // latency samples behind op_p50_us / op_p99_us
	Rounds    int                    `json:"rounds"`
	RoundOps  int                    `json:"round_ops"` // per client
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
}

func num(v float64) *float64 { return &v }

func (res *runResult) set(defs []metricDef, values map[string]*float64) {
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// absorb adds an instance's checks to the result; seg, when given, is the
// segment the reported metrics come from.
func (res *runResult) absorb(in *instance, seg *segment) {
	res.Attempted += in.tally.attempted.Load()
	res.Failed += in.tally.failed.Load()
	res.Notes = append(res.Notes, in.tally.notes...)
	if seg != nil {
		res.Ops, res.Rounds, res.RoundOps = seg.ops, len(seg.rounds), in.roundOps()
	}
}

// runWorkload is one run of one workload: untraced for the end-to-end
// metrics, traced (plus the layer probes) for the per-layer ones.
func runWorkload(cfg *runConfig) (*runResult, error) {
	wl := findWorkload(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace}
	var err error
	if cfg.trace {
		var values map[string]*float64
		if values, err = runTraced(cfg, wl, res); err == nil {
			if err = runProbes(cfg, values); err == nil {
				res.set(perLayer, values)
			}
		}
	} else {
		err = runUntraced(cfg, wl, res)
	}
	res.Correct = res.Failed == 0
	return res, err
}

// runUntraced sets up, measures, verifies and tears down, then repeats the
// set-up alone; setup_s is the median of them all. The repeats come last so
// that rss_peak_mb is the peak of one machine, not of however much of its
// predecessors the collector had yet to free.
func runUntraced(cfg *runConfig, wl *workload, res *runResult) error {
	var (
		setupTimes []float64
		total      time.Duration
		seg        *segment
	)
	budget := time.Duration(float64(setupBudget) * cfg.scale)
	for i := 0; i < cfg.setups || (total < budget && i < maxSetups); i++ {
		t0 := time.Now()
		in, err := setup(cfg, wl, nil)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		total += d
		setupTimes = append(setupTimes, d.Seconds())
		if i == 0 {
			seg = in.measure(cfg.seconds)
			wl.verify(in)
			res.absorb(in, seg)
		}
		in.close()
		debug.FreeOSMemory()
	}
	values := timingValues(seg)
	for name, v := range endToEndValues(seg, median(setupTimes)) {
		values[name] = v
	}
	res.set(untraced, values)
	return nil
}

// runTraced measures a short untraced segment first, so trace_overhead
// compares two segments of one process, then rebuilds the machine with the
// tap and the obs sink in place, measures again with spans on, and derives
// the per-layer rows. End-to-end numbers are never taken from here.
func runTraced(cfg *runConfig, wl *workload, res *runResult) (map[string]*float64, error) {
	in, err := setup(cfg, wl, nil)
	if err != nil {
		return nil, err
	}
	base := in.measure(cfg.seconds / 3)
	wl.verify(in)
	res.absorb(in, nil)
	in.close()
	in = nil
	debug.FreeOSMemory()

	tr := newTracer(cfg.applyDelay)
	if in, err = setup(cfg, wl, tr); err != nil {
		return nil, err
	}
	defer in.close()
	snap0 := in.m.sink.Snapshot()
	seg := in.measure(cfg.seconds * 2 / 3)
	snap1 := in.m.sink.Snapshot()
	t0 := time.Now()
	_, ferr := in.m.sys.Set.Fsck(false)
	fsckMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	in.count(ferr)
	hits, misses := in.nameCache()
	wl.verify(in)
	res.absorb(in, seg)
	if err := tr.writeSpans(filepath.Join(cfg.workDir, "trace-"+wl.name+".json"), wl.name, cfg.seed); err != nil {
		return nil, err
	}
	values := layerValues(&layerInput{
		tr: tr, seg: seg, base: base, before: snap0, after: snap1, clients: len(in.workers),
		cacheHits: hits, cacheMisses: misses, openNS: in.openNS, fsckNS: in.fsckNS,
	})
	values["tfs.probe.fsck_ms"] = num(fsckMS)
	return values, nil
}

// nameCache sums the PXFS clients' path-cache counters.
func (in *instance) nameCache() (hits, misses int64) {
	for _, c := range in.px {
		hits += c.fs.CacheHits
		misses += c.fs.CacheMisses
	}
	return hits, misses
}

// timingValues are the unbounded timings of a segment, each the median over
// its rounds.
func timingValues(seg *segment) map[string]*float64 {
	return map[string]*float64{
		"ops_per_s": num(seg.opsPerSec()),
		"op_p50_us": num(seg.over(func(r *roundStat) float64 { return r.p50 })),
		"op_p99_us": num(seg.over(func(r *roundStat) float64 { return r.p99 })),
		"cpu_ms_per_kop": num(seg.over(func(r *roundStat) float64 {
			return float64(r.cpu.Nanoseconds()) / 1e6 / float64(r.ops) * 1e3
		})),
	}
}

func endToEndValues(seg *segment, setupS float64) map[string]*float64 {
	var mallocs, bytes uint64
	for _, r := range seg.rounds {
		mallocs += r.mallocs
		bytes += r.allocBytes
	}
	// What is live differs from round to round with the sizes drawn, so the
	// ratio is averaged over the rounds every run has.
	var amp float64
	for _, r := range seg.rounds[:minRounds] {
		amp += r.spaceAmp / minRounds
	}
	ops := float64(seg.ops)
	return map[string]*float64{
		"allocs_per_op":      num(float64(mallocs) / ops),
		"alloc_bytes_per_op": num(float64(bytes) / ops),
		"space_amp":          num(amp),
		"rss_peak_mb":        num(seg.rssMiB),
		"setup_s":            num(setupS),
	}
}
