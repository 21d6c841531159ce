package conformance

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/linearize"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

func newConcurrentSystem(t *testing.T, volumePath string) *core.System {
	t.Helper()
	sys, err := core.New(core.Options{
		ArenaSize:      128 << 20,
		VolumePath:     volumePath,
		AcquireTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// checkHistory runs the checker and fails the test on a violation or an
// undecided search.
func checkHistory(t *testing.T, h linearize.History, seed int64) linearize.Result {
	t.Helper()
	res := linearize.Check(h, linearize.CheckConfig{})
	if !res.Decided {
		t.Fatalf("seed %d: checker undecided after %d nodes", seed, res.Nodes)
	}
	if !res.Ok {
		t.Fatalf("seed %d: history not linearizable:\n%s", seed, res.Failure)
	}
	return res
}

// liveGen is the generator configuration for live Aerie runs: no deletes
// or renames (cross-client unlink-while-open reclaims storage out from
// under a concurrent writer's open handle — TFS open-file tracking is
// client-local; see linearize.GenConfig.NoDeletes).
func liveGen(seed int64, clients, ops int) linearize.GenConfig {
	return linearize.GenConfig{
		Seed:         seed,
		Clients:      clients,
		OpsPerClient: ops,
		NoDeletes:    true,
	}
}

// TestConcurrentLinearizable is the tentpole clean run: 8 concurrent PXFS
// clients, 500 operations each, pipelined sessions (4-deep window, one-op
// batches) against one volatile machine. The recorded history must be
// linearizable — every reordering the window/group-commit machinery
// performs has to stay invisible behind the locks.
func TestConcurrentLinearizable(t *testing.T) {
	seed := linearize.Seed(42)
	t.Logf("concurrent run seed %d (replay with AERIE_SEED=%d)", seed, seed)
	sys := newConcurrentSystem(t, "")
	scripts := linearize.GenerateScripts(liveGen(seed, 8, 500))
	h, err := RunConcurrent(sys, ConcurrentConfig{Scripts: scripts})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if got, want := len(h.Entries), 8*500; got != want {
		t.Fatalf("recorded %d entries, want %d", got, want)
	}
	res := checkHistory(t, h, seed)
	t.Logf("linearized %d ops in %d partitions, %d nodes", len(h.Entries), res.Partitions, res.Nodes)
}

// TestConcurrentVolumeLinearizable runs the concurrent workload against a
// VolumePath-backed (mmap-persistent) machine, then closes it and reopens
// the volume file: the history must be linearizable and the closed volume
// must come back clean with the data intact.
func TestConcurrentVolumeLinearizable(t *testing.T) {
	seed := linearize.Seed(7)
	t.Logf("concurrent volume run seed %d (replay with AERIE_SEED=%d)", seed, seed)
	vol := filepath.Join(t.TempDir(), "concurrent.aerie")
	sys, err := core.New(core.Options{
		ArenaSize:      64 << 20,
		VolumePath:     vol,
		AcquireTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.Degraded(); err != nil {
		sys.Close()
		t.Fatalf("volume degraded to volatile: %v", err)
	}
	scripts := linearize.GenerateScripts(liveGen(seed, 4, 150))
	h, err := RunConcurrent(sys, ConcurrentConfig{Scripts: scripts})
	if err != nil {
		sys.Close()
		t.Fatalf("seed %d: %v", seed, err)
	}
	checkHistory(t, h, seed)

	// Snapshot every script path through a quiesced session, close the
	// volume cleanly, reopen it, and demand the identical snapshot: what a
	// clean shutdown persisted is exactly what recovery must serve.
	pathSet := map[string]bool{}
	for _, e := range h.Entries {
		pathSet[e.Op.Path] = true
	}
	before := snapshotPaths(t, sys, pathSet)
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := core.Open(vol, core.Options{AcquireTimeout: 60 * time.Second})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Vol.WasDirty() {
		t.Fatal("cleanly closed volume reopened dirty")
	}
	after := snapshotPaths(t, re, pathSet)
	files := 0
	for p, want := range before {
		if got, ok := after[p]; !ok || got != want {
			t.Errorf("reopened volume: %s changed across close/reopen (%d -> %d bytes)",
				p, len(want), len(after[p]))
		}
		if _, ok := after[p]; ok {
			files++
		}
	}
	if len(after) != len(before) {
		t.Errorf("reopened volume: %d paths survived, want %d", len(after), len(before))
	}
	if files == 0 {
		t.Fatal("no surviving files to verify")
	}
	t.Logf("verified %d files byte-identical across close/reopen", files)
}

// snapshotPaths reads every path through a fresh session; missing paths
// are simply absent from the returned map.
func snapshotPaths(t *testing.T, sys *core.System, paths map[string]bool) map[string]string {
	t.Helper()
	sess, err := sys.NewSession(libfs.Config{UID: 2000})
	if err != nil {
		t.Fatalf("snapshot session: %v", err)
	}
	defer sess.Close()
	client := PXClient{FS: pxfs.New(sess, pxfs.Options{})}
	out := map[string]string{}
	for p := range paths {
		data, err := client.Read(p)
		if err != nil {
			if errors.Is(err, linearize.ErrNotExist) {
				continue
			}
			t.Fatalf("snapshot read %s: %v", p, err)
		}
		out[p] = string(data)
	}
	return out
}

const mutLivePath = "/m/f"

func mutPut(data string) linearize.Op {
	return linearize.Op{Kind: linearize.KPut, Path: mutLivePath, Data: []byte(data)}
}

func mutRead() linearize.Op { return linearize.Op{Kind: linearize.KRead, Path: mutLivePath} }

func mutBar() linearize.Op { return linearize.Op{Kind: linearize.KBarrier} }

// runLiveMutation runs the scripts twice on fresh machines: once clean
// (must pass) and once with client 1's (or 0's, for single-client scripts)
// FS wrapped by the mutation under test (must fail). Returns the mutated
// run's checker result.
func runLiveMutation(t *testing.T, scripts [][]linearize.Op, target int,
	wrap func(fs linearize.ClientFS, rec *linearize.Recorder) linearize.ClientFS) linearize.Result {
	t.Helper()

	clean := newConcurrentSystem(t, "")
	h, err := RunConcurrent(clean, ConcurrentConfig{Scripts: scripts})
	if err != nil {
		t.Fatalf("clean control run: %v", err)
	}
	if res := linearize.Check(h, linearize.CheckConfig{}); !res.Ok || !res.Decided {
		t.Fatalf("clean control run flagged: ok=%v decided=%v %v", res.Ok, res.Decided, res.Failure)
	}

	sys := newConcurrentSystem(t, "")
	mh, err := RunConcurrent(sys, ConcurrentConfig{
		Scripts: scripts,
		Wrap: func(k int, fs linearize.ClientFS, rec *linearize.Recorder) linearize.ClientFS {
			if k == target {
				return wrap(fs, rec)
			}
			return fs
		},
	})
	if err != nil {
		t.Fatalf("mutated run: %v", err)
	}
	res := linearize.Check(mh, linearize.CheckConfig{})
	if !res.Decided {
		t.Fatal("mutated run: checker undecided")
	}
	if res.Ok {
		t.Fatal("mutated run: checker accepted a corrupted history")
	}
	t.Logf("violation detected:\n%s", res.Failure)
	return res
}

// The four injected-mutation kinds, each against a live Aerie machine: the
// same barrier-scripted scenarios the linearize package proves against its
// reference store, here driven end-to-end through PXFS sessions.

func TestConcurrentStaleReadDetected(t *testing.T) {
	scripts := [][]linearize.Op{
		{mutPut("v0-stale"), mutBar(), mutPut("v1-fresh"), mutBar()},
		{mutBar(), mutBar(), mutRead()},
	}
	var mut *linearize.StaleRead
	runLiveMutation(t, scripts, 1, func(fs linearize.ClientFS, rec *linearize.Recorder) linearize.ClientFS {
		mut = linearize.NewStaleRead(fs, rec, mutLivePath)
		return mut
	})
	if mut.Fired == 0 {
		t.Fatal("stale-read mutation never fired")
	}
}

func TestConcurrentLostWriteDetected(t *testing.T) {
	scripts := [][]linearize.Op{
		{mutPut("v0-kept"), mutBar(), mutPut("v1-lost"), mutBar()},
		{mutBar(), mutBar(), mutRead()},
	}
	var mut *linearize.LostWrite
	runLiveMutation(t, scripts, 0, func(fs linearize.ClientFS, rec *linearize.Recorder) linearize.ClientFS {
		mut = linearize.NewLostWrite(fs, mutLivePath, 1)
		return mut
	})
	if !mut.Fired {
		t.Fatal("lost-write mutation never fired")
	}
}

func TestConcurrentDeferredWriteDetected(t *testing.T) {
	scripts := [][]linearize.Op{
		{mutPut("v0-old"), mutBar(), mutPut("v1-deferred"), mutBar(), mutBar(), mutRead()},
		{mutBar(), mutBar(), mutRead(), mutBar()},
	}
	var mut *linearize.DeferredWrite
	runLiveMutation(t, scripts, 0, func(fs linearize.ClientFS, rec *linearize.Recorder) linearize.ClientFS {
		mut = linearize.NewDeferredWrite(fs, mutLivePath, 1)
		return mut
	})
	if !mut.Fired {
		t.Fatal("deferred-write mutation never fired")
	}
}

func TestConcurrentDupAppendDetected(t *testing.T) {
	scripts := [][]linearize.Op{{
		mutPut("base."),
		{Kind: linearize.KAppend, Path: mutLivePath, Data: []byte("tail")},
		mutRead(),
	}}
	var mut *linearize.DupAppend
	runLiveMutation(t, scripts, 0, func(fs linearize.ClientFS, rec *linearize.Recorder) linearize.ClientFS {
		mut = linearize.NewDupAppend(fs, mutLivePath, 0)
		return mut
	})
	if !mut.Fired {
		t.Fatal("dup-append mutation never fired")
	}
}

// TestConcurrentWindowReorderDetected corrupts the recorded windows rather
// than the client: an honest live run whose history is rewritten so a
// read's window precedes the put whose value it observed.
func TestConcurrentWindowReorderDetected(t *testing.T) {
	sys := newConcurrentSystem(t, "")
	scripts := [][]linearize.Op{{mutPut("first-value"), mutPut("second-value"), mutRead()}}
	h, err := RunConcurrent(sys, ConcurrentConfig{Scripts: scripts})
	if err != nil {
		t.Fatal(err)
	}
	if res := linearize.Check(h, linearize.CheckConfig{}); !res.Ok || !res.Decided {
		t.Fatalf("honest run flagged: %v", res.Failure)
	}
	mutated, ok := linearize.MutateWindowReorder(h)
	if !ok {
		t.Fatal("no (read, put) pair qualified for window reordering")
	}
	res := linearize.Check(mutated, linearize.CheckConfig{})
	if !res.Decided || res.Ok {
		t.Fatalf("window-reordered history accepted: ok=%v decided=%v", res.Ok, res.Decided)
	}
	t.Logf("violation detected:\n%s", res.Failure)
}
