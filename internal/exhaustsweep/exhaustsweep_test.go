package exhaustsweep

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/linearize"
	"github.com/aerie-fs/aerie/internal/sweep"
)

// run is both passes under one seed, which honors AERIE_SEED so a failing
// sweep replays exactly; every failure report names the seed it ran under.
func run(t *testing.T, defSeed int64, steps, ordinals int) {
	seed := linearize.Seed(defSeed)
	t.Logf("sweep seed %d (replay with AERIE_SEED=%d)", seed, seed)
	files, fails := NaturalFill(seed)
	t.Logf("natural fill committed %d files, %d failures", files, len(fails))
	for _, f := range fails {
		t.Errorf("seed %d: fill violation: %s", seed, f)
	}
	if files == 0 {
		t.Errorf("seed %d: natural fill committed no files", seed)
	}
	sc := Mutations(seed, steps)
	sc.Ordinals = ordinals
	sweep.Check(t, sc, Exhaustion)
}

// TestSweepQuick is the tier-1 smoke: the natural fill plus one ordinal per
// injected point.
func TestSweepQuick(t *testing.T) { run(t, 1, 10, 1) }

// TestSweepFull is the tier-2 run (make tier2-exhaust sweeps every
// ordinal): denser sampling across every injected point.
func TestSweepFull(t *testing.T) {
	if testing.Short() {
		t.Skip("tier-2 sweep; run via make tier2-exhaust")
	}
	run(t, 7, 24, 6)
}
