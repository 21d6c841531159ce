package crashsweep

// Cross-shard two-phase-commit crash scenario: ProcPublish proves
// single-shard batches survive kill -9; this one aims the same executor at
// the 2PC windows of a sharded trusted set. The child builds a TWO-shard
// machine on a volume file, picks a source and a destination directory on
// different shards, and per step publishes a file then renames it across
// the shard boundary — the operation that runs as a prepare/decide/resolve
// mini-transaction. A SIGKILL armed at one of the protocol's fault points
// kills the child inside a chosen transaction. The parent reopens the
// corpse's volume — which runs the orphan-resolution rule — and asserts
// the victim transaction resolved to exactly ONE outcome, and to the RIGHT
// one: a kill after prepare but before the coordinator's fenced commit must
// abort (the file is still at its source name), a kill any time after that
// commit must complete (the file is at its destination), and in no case may
// the file be at both names, at neither, or torn.

import (
	"fmt"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/sweep"
)

const (
	// twopcSteps is the number of publish+cross-shard-rename rounds.
	twopcSteps = 8
	// twopcDirCount candidate directories are spread by the placement hash;
	// with two shards a pair on different shards is all but guaranteed.
	twopcDirCount = 8
)

// Shard2PC is the publish+cross-shard-rename workload. Its points are the
// protocol's crash windows, in order: after every prepare is durable
// (recovery must abort), after the coordinator's fenced commit (recovery
// must complete), and after the coordinator applied but before the
// participants resolve (recovery must complete). A single sequential client
// makes the Nth hit of any of them belong to step N-1's rename,
// deterministically — a kill that never fires means the arming is broken.
func Shard2PC() sweep.Scenario {
	return sweep.Scenario{
		Name:          "shard-2pc",
		Options:       core.Options{ArenaSize: 32 << 20, Shards: 2},
		Points:        []string{"tfs.2pc.prepare", "tfs.2pc.commit", "tfs.2pc.resolve"},
		Ordinals:      2,
		Deterministic: true,
		Setup: func(m *sweep.Machine) error {
			sess, err := m.Mount(libfs.Config{UID: 1000})
			if err != nil {
				return err
			}
			fs := pxfs.New(sess, pxfs.Options{})
			for i := 0; i < twopcDirCount; i++ {
				if err := fs.Mkdir(twopcDir(i), 0o755); err != nil {
					return fmt.Errorf("mkdir %s: %w", twopcDir(i), err)
				}
			}
			return sess.Close()
		},
		Workload: twopcRounds,
		Oracle:   verifyShard2PC,
	}
}

func twopcDir(i int) string { return fmt.Sprintf("/t%d", i) }

func twopcName(dir string, step int) string {
	return fmt.Sprintf("%s/x%02d", dir, step)
}

// twopcContent is the deterministic 1 KiB payload of step i's file. The
// file is fully synced before its rename, so survivors must match
// byte-for-byte regardless of where the kill landed.
func twopcContent(step int) []byte {
	b := make([]byte, 1024)
	for j := range b {
		b[j] = byte((step*37 + j*3 + 11) % 249)
	}
	return b
}

// twopcMount mounts a client and returns the first candidate pair of
// directories on different shards. Both the child and the parent derive
// the pair the same way, so the parent knows which names to check without a
// side channel.
func twopcMount(m *sweep.Machine, uid uint32) (fs *pxfs.FS, src, dst string, err error) {
	sess, err := m.Mount(libfs.Config{UID: uid})
	if err != nil {
		return nil, "", "", err
	}
	fs = pxfs.New(sess, pxfs.Options{})
	first, err := fs.Stat(twopcDir(0))
	if err != nil {
		return nil, "", "", fmt.Errorf("stat %s: %w", twopcDir(0), err)
	}
	home := sess.ShardOf(first.OID)
	for i := 1; i < twopcDirCount; i++ {
		fi, err := fs.Stat(twopcDir(i))
		if err != nil {
			return nil, "", "", fmt.Errorf("stat %s: %w", twopcDir(i), err)
		}
		if sess.ShardOf(fi.OID) != home {
			return fs, twopcDir(0), twopcDir(i), nil
		}
	}
	return nil, "", "", fmt.Errorf("all %d candidate dirs landed on shard %d", twopcDirCount, home)
}

func twopcRounds(m *sweep.Machine) error {
	fs, srcDir, dstDir, err := twopcMount(m, 1000)
	if err != nil {
		return err
	}
	for i := 0; i < twopcSteps; i++ {
		if err := sweep.WriteFile(fs, twopcName(srcDir, i), twopcContent(i)); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		// The publish is durably applied before the rename, so the rename
		// is the only in-flight operation when the kill fires.
		if err := fs.Sync(); err != nil {
			return fmt.Errorf("step %d sync: %w", i, err)
		}
		if err := fs.Rename(twopcName(srcDir, i), twopcName(dstDir, i)); err != nil {
			return fmt.Errorf("step %d rename: %w", i, err)
		}
	}
	return nil
}

// verifyShard2PC is the one-outcome rule: on the reopened set (per-shard
// replay and cross-shard orphan resolution have run) the victim transaction
// landed on the one outcome its kill point dictates and everything around
// it is intact.
func verifyShard2PC(m *sweep.Machine, at sweep.Fault) []string {
	var fails []string
	if got := m.Sys.Set.Shards(); got != 2 {
		fails = append(fails, fmt.Sprintf("reopened volume has %d shards, want 2", got))
	}
	fs, srcDir, dstDir, err := twopcMount(m, 2000)
	if err != nil {
		return append(fails, fmt.Sprintf("re-deriving dir pair: %v", err))
	}
	victim := twopcSteps // fault-free: every step's transaction completed
	if at.Point != "" {
		victim = int(at.Ordinal) - 1 // single sequential client: ordinal N = step N-1
	}
	for i := 0; i < twopcSteps; i++ {
		atSrc := statOK(fs, twopcName(srcDir, i))
		atDst := statOK(fs, twopcName(dstDir, i))
		where, name := "nowhere", ""
		switch {
		case atSrc && atDst:
			where = "both"
		case atSrc:
			where, name = "src", twopcName(srcDir, i)
		case atDst:
			where, name = "dst", twopcName(dstDir, i)
		}
		var want string
		switch {
		case i < victim:
			want = "dst" // this step's transaction completed before the kill
		case i > victim:
			want = "nowhere" // the kill preceded this step's create
		case at.Point == "tfs.2pc.prepare":
			// Prepares durable, coordinator never committed: recovery must
			// write abort tombstones and the rename never happened.
			want = "src"
		default:
			// tfs.2pc.commit / tfs.2pc.resolve: the coordinator's fenced
			// commit is durable, so recovery must complete the rename.
			want = "dst"
		}
		if where != want {
			fails = append(fails, fmt.Sprintf(
				"step %d (victim %d, point %s): file at %s, want %s", i, victim, at.Point, where, want))
		} else if name != "" {
			// The payload was synced before its rename, so there is no
			// legitimate short read.
			if msg := sweep.CheckFile(fs, name, twopcContent(i), true); msg != "" {
				fails = append(fails, msg)
			}
		}
	}
	// Live probe of the 2PC path itself: a fresh cross-shard rename must
	// work on the recovered set.
	return append(fails, probe2PC(fs, srcDir, dstDir)...)
}

func statOK(fs *pxfs.FS, name string) bool {
	_, err := fs.Stat(name)
	return err == nil
}

func probe2PC(fs *pxfs.FS, srcDir, dstDir string) []string {
	const payload = "alive across shards"
	src, dst := srcDir+"/probe2pc", dstDir+"/probe2pc"
	if err := sweep.WriteFile(fs, src, []byte(payload)); err != nil {
		return []string{fmt.Sprintf("probe: %v", err)}
	}
	if err := fs.Sync(); err != nil {
		return []string{fmt.Sprintf("probe sync: %v", err)}
	}
	if err := fs.Rename(src, dst); err != nil {
		return []string{fmt.Sprintf("probe cross-shard rename: %v", err)}
	}
	var fails []string
	if msg := sweep.CheckFile(fs, dst, []byte(payload), true); msg != "" {
		fails = append(fails, "probe at destination: "+msg)
	}
	if statOK(fs, src) {
		fails = append(fails, "probe file present at BOTH names after rename")
	}
	return fails
}
