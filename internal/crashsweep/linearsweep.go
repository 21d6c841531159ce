package crashsweep

// Linearizing crash scenario: ProcPublish proves that a SIGKILLed process
// leaves each client's fixed publish sequence as a strict prefix; this one
// runs the randomized linearize workload and asks the stronger question —
// is the surviving volume state a prefix-consistent linearization of the
// scripts the dead clients were executing? The child runs seed-deterministic
// write-only scripts (linearize.GenerateCrashScripts, disjoint per-client
// namespaces) through pipelined PXFS sessions; the parent regenerates the
// same scripts from the same seed, so nothing crosses the kill, and hands
// each client's surviving contents to linearize.CheckCrashPrefix, which
// accepts exactly "some prefix fully applied, at most the frontier op
// caught mid-batch".

import (
	"errors"
	"fmt"
	"sort"

	"github.com/aerie-fs/aerie/internal/conformance"
	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/linearize"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/sweep"
)

const (
	linearClients = 3
	linearSteps   = 24
)

// LinearScripts is the randomized concurrent write workload under seed.
func LinearScripts(seed int64) sweep.Scenario {
	scripts := linearize.GenerateCrashScripts(linearize.GenConfig{
		Seed:         seed,
		Clients:      linearClients,
		OpsPerClient: linearSteps,
	})
	return sweep.Scenario{
		Name:    "linear-scripts",
		Options: core.Options{ArenaSize: 16 << 20},
		// Deliberately the pipeline's spine rather than ProcPublish's set:
		// this scenario pays a prefix check per kill, and these four points
		// bracket every stage a window batch passes through — raw flush,
		// journal commit, the group-commit fence, and the start of apply.
		Points:   []string{"scm.flush", "journal.commit", "tfs.groupcommit.fence", "tfs.apply.postcommit"},
		Ordinals: 2,
		// Concurrent scheduling makes per-point hit counts drift between
		// the baseline and the kill runs, so the tail ordinals of the
		// baseline are often never reached. Sample from the first half of
		// the baseline's hits: still a mid-run kill, but robust to drift.
		Horizon: func(hits uint64) uint64 { return hits/2 + 1 },
		// The per-client directories are published before arming: a kill
		// during setup would only reprove what ProcPublish covers, and the
		// prefix check wants the concurrent script bodies.
		Setup: func(m *sweep.Machine) error {
			sess, err := m.Mount(libfs.Config{UID: 999})
			if err != nil {
				return err
			}
			fs := pxfs.New(sess, pxfs.Options{})
			for k := 0; k < linearClients; k++ {
				if err := fs.Mkdir(fmt.Sprintf("/lz%d", k), 0o755); err != nil {
					return fmt.Errorf("mkdir /lz%d: %w", k, err)
				}
			}
			return sess.Close()
		},
		Workload: func(m *sweep.Machine) error {
			return runClients(linearClients, func(k int) error { return linearClient(m, k, scripts[k]) })
		},
		Oracle: func(m *sweep.Machine, _ sweep.Fault) []string { return verifyLinearPrefix(m, scripts) },
	}
}

// linearClient executes one script through a pipelined session. The ops
// are fire-and-forget mutations: the prefix check needs only the volume
// they leave behind, not recorded outcomes.
func linearClient(m *sweep.Machine, k int, script []linearize.Op) error {
	sess, err := m.Mount(libfs.Config{UID: uint32(1000 + k), BatchLimit: 1, Window: 4})
	if err != nil {
		return err
	}
	fs := conformance.PXClient{FS: pxfs.New(sess, pxfs.Options{NameCache: true})}
	for step, op := range script {
		var err error
		switch op.Kind {
		case linearize.KPut:
			err = fs.Put(op.Path, op.Data)
		case linearize.KAppend:
			err = fs.Append(op.Path, op.Data)
		case linearize.KTruncate:
			err = fs.Truncate(op.Path, op.Size)
		default:
			err = fmt.Errorf("op kind %v has no place in a crash script", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("client %d step %d %s: %w", k, step, op, err)
		}
	}
	return sess.Close()
}

// verifyLinearPrefix reads back every path each script touches and requires
// each client's surviving state to be a prefix-consistent linearization of
// its script.
func verifyLinearPrefix(m *sweep.Machine, scripts [][]linearize.Op) []string {
	px, err := m.MountPXFS(libfs.Config{UID: 2000}, pxfs.Options{})
	if err != nil {
		return []string{fmt.Sprintf("verify mount: %v", err)}
	}
	fs := conformance.PXClient{FS: px}
	var fails []string
	for k, script := range scripts {
		paths := map[string]bool{}
		for _, op := range script {
			paths[op.Path] = true
		}
		sorted := make([]string, 0, len(paths))
		for p := range paths {
			sorted = append(sorted, p)
		}
		sort.Strings(sorted)
		observed := linearize.State{}
		for _, p := range sorted {
			data, err := fs.Read(p)
			switch {
			case err == nil:
				observed[p] = string(data)
			case errors.Is(err, linearize.ErrNotExist):
			default:
				fails = append(fails, fmt.Sprintf("client %d read %s: %v", k, p, err))
			}
		}
		if rep := linearize.CheckCrashPrefix(script, observed); !rep.Ok {
			fails = append(fails, fmt.Sprintf(
				"client %d state is no prefix of its script: %s", k, rep.Detail))
		}
	}
	return fails
}
