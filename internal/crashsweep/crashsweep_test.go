package crashsweep

import (
	"testing"

	"github.com/aerie-fs/aerie/internal/linearize"
	"github.com/aerie-fs/aerie/internal/sweep"
)

// linearSeed honors AERIE_SEED, which the Kill executor's children inherit,
// so parent and child regenerate the same scripts.
func linearSeed() int64 { return linearize.Seed(2026) }

// TestSweepChild is the Kill executor's entry point into this binary.
func TestSweepChild(t *testing.T) {
	sweep.Child(t, ProcPublish(), LinearScripts(linearSeed()), Shard2PC())
}

// TestSweepAllPoints is the acceptance test for the crash-recovery
// hardening: every fault point the workload or recovery exercises is
// crashed into at sampled ordinals, and every recovered volume must pass
// Fsck(repair) with zero unrepaired inconsistencies, show zero leaked
// blocks on recheck, and still serve a fresh client. make tier2-crash
// sweeps every ordinal.
func TestSweepAllPoints(t *testing.T) {
	res := sweep.Check(t, MutationMix(1, 24), sweep.Crash{})

	// The sweep must actually enumerate the cross-layer points the
	// injector is threaded through; an empty baseline for any of these
	// means a layer came unwired.
	mustSee := []string{
		"scm.flush",
		"journal.append",
		"journal.commit",
		"journal.commit.publish",
		"journal.replay.record",
		"tfs.apply.postcommit",
		"tfs.apply.checkpoint",
		"tfs.recover",
		"rpc.call",
		"rpc.reply",
		"libfs.logop",
		"libfs.flush.preship",
	}
	for _, want := range mustSee {
		if res.Hits[want] == 0 {
			t.Errorf("fault point %s never enumerated — layer unwired?", want)
		} else if res.Fired(want) == 0 {
			t.Errorf("fault point %s enumerated but no crash ever fired there", want)
		}
	}
}

// TestProcessKill9Sweep: a child process is kill -9'd mid-write-burst at
// sampled ordinals of each swept fault point, and the parent must recover
// the volume file the corpse left behind — dirty flag observed,
// Fsck(repair) clean with zero remaining leaks, every client's published
// window a strict prefix with intact contents, and a fresh client able to
// write. make tier2-persist widens it to the full point set.
func TestProcessKill9Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills many child processes")
	}
	sweep.Check(t, ProcPublish(), sweep.Kill{Dir: t.TempDir()})
}

// TestLinearCrashPrefixSweep kill -9's a child running the randomized
// concurrent write workload at sampled ordinals of each swept point, then
// requires the surviving volume to recover (dirty flag, clean repair) to a
// state that is a prefix-consistent linearization of every client's script.
func TestLinearCrashPrefixSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills many child processes")
	}
	seed := linearSeed()
	t.Logf("linear crash sweep seed %d (replay with AERIE_SEED=%d)", seed, seed)
	sweep.Check(t, LinearScripts(seed), sweep.Kill{Dir: t.TempDir()})
}

// TestShard2PCKill9Sweep is the sharding crash-consistency acceptance test:
// a child is kill -9'd inside a cross-shard rename at each 2PC crash window,
// and the reopened volume must show the orphaned prepare resolved to
// exactly one outcome — abort before the coordinator's fenced commit,
// completion after it — with both shards' namespaces intact around it.
// make tier2-shard kills at every transaction ordinal.
func TestShard2PCKill9Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	sc := Shard2PC()
	res := sweep.Check(t, sc, sweep.Kill{Dir: t.TempDir()})
	for _, p := range sc.Points {
		if res.Hits[p] != twopcSteps {
			t.Errorf("baseline hit %s %d times, want %d (one per cross-shard rename)", p, res.Hits[p], twopcSteps)
		}
	}
}
