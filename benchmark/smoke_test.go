package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/rpc"
)

// tiny is a run at 1 % of the op counts and populations: three short rounds,
// one set-up.
func tiny(t *testing.T, workload string) *runConfig {
	t.Helper()
	return &runConfig{workload: workload, seed: 1, scale: 0.01, setups: 1, workDir: t.TempDir()}
}

type benchmarkJSON struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// checkEmitted demands that a run's line for the driver carries exactly the
// metrics BENCHMARK.json names — each once (the metrics map cannot hold a
// name twice), with the declared unit — and that BENCHMARK.json agrees with
// the program's table.
func checkEmitted(t *testing.T, res *runResult, declared, table []metricDef) {
	t.Helper()
	if len(declared) != len(table) {
		t.Fatalf("BENCHMARK.json names %d metrics, the program's table %d", len(declared), len(table))
	}
	line := res.driverLine()
	for i, d := range declared {
		if d != table[i] {
			t.Errorf("BENCHMARK.json has %+v where the program's table has %+v", d, table[i])
		}
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("%s: %s not reported", res.Workload, d.Name)
		}
		m, ok := line.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: %s not in the driver's line", res.Workload, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s emitted in %q, declared %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
	}
	if len(line.Metrics) != len(declared) {
		t.Errorf("%s: driver line carries %d metrics, %d declared", res.Workload, len(line.Metrics), len(declared))
	}
}

func TestWorkloadsCompleteAndEmitEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bj.Workloads[i].Name != wl.name || bj.Workloads[i].Why != wl.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, bj.Workloads[i].Name, wl.name)
		}
		res, err := runWorkload(tiny(t, wl.name))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", wl.name, res.Failed, res.Attempted, res.Notes)
		}
		checkEmitted(t, res, bj.EndToEnd, endToEnd)
		for _, d := range untraced {
			if v := res.Metrics[d.Name].Value; v == nil || *v <= 0 {
				t.Errorf("%s: %s = %v; an untraced run's metrics are never null or zero", wl.name, d.Name, v)
			}
		}
	}
}

// One traced run, probes included, must report every per-layer row.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	cfg := tiny(t, "mail_sync_vol")
	cfg.trace = true
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d of %d checks failed: %v", res.Failed, res.Attempted, res.Notes)
	}
	checkEmitted(t, res, bj.PerLayer, perLayer)
	for _, name := range []string{"trace_overhead", "e2e.ops_per_s", "e2e.op_p99_us", "pxfs.sync_us_p50", "tfs.apply_us_p50", "scm.msync_calls_per_op", "core.open_ms", "scm.probe.vol_fence_us"} {
		if v := res.Metrics[name].Value; v == nil || *v <= 0 {
			t.Errorf("%s = %v on mail_sync_vol, want a positive number", name, v)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.workDir, "trace-mail_sync_vol.json")); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// The verifier must be able to fail: with a model that expects bytes nobody
// wrote, every workload that reads data back reports failures.
func TestWrongModelFails(t *testing.T) {
	for _, name := range []string{"mail_sync_vol", "stream_pipe_tcp", "read_fit", "kv_shared"} {
		cfg := tiny(t, name)
		cfg.breakModel = true
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: a wrong content model went unnoticed (%d checks)", name, res.Attempted)
		}
	}
}

// The tap must keep rpc.IdempotentCaller, or libfs silently loses its
// park-and-re-ship path: a request replayed under one ID runs once.
func TestTapKeepsIdempotentCaller(t *testing.T) {
	srv := rpc.NewServer()
	calls := 0
	srv.Register(methodEcho, func(_ uint64, req []byte) ([]byte, error) {
		calls++
		return req, nil
	})
	var rc rpc.Client = newTap(rpc.DialInProc(srv, nil, nil, nil), newTracer(0).client(0))
	ic, ok := rc.(rpc.IdempotentCaller)
	if !ok {
		t.Fatal("tap does not implement rpc.IdempotentCaller")
	}
	id := ic.NextReqID()
	for i := 0; i < 2; i++ {
		if _, err := ic.CallWithReqID(methodEcho, id, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Errorf("handler ran %d times for one request ID, want 1", calls)
	}
}

// The instrumentation is itself tested: a 2 ms delay injected at the tap on
// ApplyLog* must show up in the trusted-service row and in the client call
// that waits for it, and nowhere on a workload that never crosses.
func TestInjectedDelayLandsInTheRightRows(t *testing.T) {
	const delay = 2 * time.Millisecond
	rows := func(workload string, d time.Duration) map[string]*float64 {
		cfg := tiny(t, workload)
		cfg.applyDelay = d
		values, err := runTraced(cfg, findWorkload(workload), &runResult{})
		if err != nil {
			t.Fatal(err)
		}
		return values
	}
	rise := func(a, b map[string]*float64, name string) float64 {
		if a[name] == nil || b[name] == nil {
			t.Fatalf("%s not reported", name)
		}
		return (*b[name] - *a[name]) / 1e3 // µs → ms
	}
	mail0, mail1 := rows("mail_sync_vol", 0), rows("mail_sync_vol", delay)
	for _, name := range []string{"tfs.apply_us_p50", "pxfs.sync_us_p50"} {
		if r := rise(mail0, mail1, name); r < 1.5 || r > 4 {
			t.Errorf("mail_sync_vol %s rose by %.2f ms under a 2 ms apply delay, want ≈ 2 ms", name, r)
		}
	}
	read0, read1 := rows("read_fit", 0), rows("read_fit", delay)
	if r := rise(read0, read1, "pxfs.read_us_p50"); r > 0.05 || r < -0.05 {
		t.Errorf("read_fit pxfs.read_us_p50 moved by %.3f ms under an apply delay it never meets", r)
	}
}
