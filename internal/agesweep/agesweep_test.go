package agesweep

import (
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

// Short-mode aging bounds for CI (`make tier2-aging`): a few churn rounds
// must keep the allocator's fragmentation index under an absolute ceiling
// and the fixed-probe read path within a generous slowdown ratio. The
// ratio is deliberately loose — shared runners are noisy — but a read path
// that degrades an order of magnitude after minutes of churn is a real
// aging bug, not noise.
const (
	shortMaxFragIndex = 0.75
	shortMaxSlowdown  = 10.0
)

func TestAgingShort(t *testing.T) {
	cfg := Config{Rounds: 3, Iters: 15, Threads: 2, Logf: t.Logf}
	if testing.Short() {
		cfg.Rounds = 2
		cfg.Iters = 8
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds+1 {
		t.Fatalf("trajectory has %d samples, want %d (baseline + %d rounds)",
			len(res.Rounds), cfg.Rounds+1, cfg.Rounds)
	}
	for _, rs := range res.Rounds {
		if rs.ReadNsPerOp <= 0 {
			t.Fatalf("round %d: degenerate probe latency %d", rs.Round, rs.ReadNsPerOp)
		}
		if rs.Round > 0 && rs.ChurnOps == 0 {
			t.Fatalf("round %d: no churn ops recorded", rs.Round)
		}
	}
	if v := res.CheckBounds(shortMaxFragIndex, shortMaxSlowdown); len(v) != 0 {
		for _, s := range v {
			t.Error(s)
		}
	}
}

// The bounds checker itself must catch violations — a harness whose
// acceptance test cannot fail proves nothing.
func TestCheckBoundsCatchesViolations(t *testing.T) {
	r := &Result{Rounds: []RoundStat{
		{Round: 0, ReadNsPerOp: 100, FragIndex: 0.1},
		{Round: 1, ReadNsPerOp: 5000, FragIndex: 0.95},
	}}
	v := r.CheckBounds(0.75, 10.0)
	if len(v) != 2 {
		t.Fatalf("want frag + slowdown violations, got %v", v)
	}
	r.fails = append(r.fails, "round 1: fsck leaked 3 blocks")
	if v := r.CheckBounds(1.0, 100.0); len(v) != 1 {
		t.Fatalf("invariant failures must surface through CheckBounds, got %v", v)
	}
}

// TestUnlinkBufferedAppendsNoLeak is the regression test for the leak the
// aging harness first exposed: growing a file by appends and unlinking it
// before the window flushes puts the attaches and the remove in one batch,
// and the unlink's plan-time extent walk cannot see extents the same batch
// attaches — every appended extent (and the tree nodes grown for them)
// leaked. The planner now defers the walk to apply time (jFreeObj) whenever
// the batch also changed the object's extent set.
func TestUnlinkBufferedAppendsNoLeak(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, AcquireTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fs := pxfs.New(sess, pxfs.Options{NameCache: true})
	buf := make([]byte, 64<<10)
	f, err := fs.Create("/log", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		f, err := fs.OpenFile("/log", pxfs.O_RDWR|pxfs.O_APPEND, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// No Sync: the appends are still buffered when the unlink ships, so
	// attaches and remove ride the same batch.
	if err := fs.Unlink("/log"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Set.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks != 0 {
		t.Fatalf("unlink of append-grown file leaked %d blocks", rep.LeakedBlocks)
	}
}
