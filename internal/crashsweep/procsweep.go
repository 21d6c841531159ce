package crashsweep

// Process-level crash scenario: the in-process sweeps simulate death
// (panic-unwind plus a discarded volatile image); under the Kill executor
// this is the real thing. A child process builds a machine on an
// mmap-backed volume file, runs a pipelined multi-client workload with a
// SIGKILL armed at a chosen fault point ordinal, and dies mid-write-burst
// with no unwinding at all. The parent reopens the same file and requires
// each client's published window to survive as a strict prefix with intact
// contents.

import (
	"fmt"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/sweep"
)

const (
	procClients = 2  // concurrent writer sessions
	procSteps   = 12 // files each client publishes
)

// procQuick is the tier-1 point set: the SCM flush path, the journal
// commit, and the whole group-commit/parallel-apply pipeline of the
// windowed write path.
var procQuick = []string{
	"scm.flush",
	"journal.commit",
	"tfs.groupcommit.coalesce",
	"tfs.groupcommit.fence",
	"tfs.apply.parallel",
	"tfs.apply.checkpoint",
}

// procFull extends it to every other store-side and client-side point the
// workload exercises.
var procFull = append([]string{
	"scm.stream",
	"scm.bflush",
	"alloc.alloc",
	"journal.append",
	"journal.commit.publish",
	"journal.commit.published",
	"journal.checkpoint",
	"tfs.apply.action",
	"tfs.apply.postcommit",
	"tfs.prealloc.postcommit",
	"libfs.logop",
	"libfs.write",
	"libfs.flush.preship",
	"libfs.flush.postship",
	"rpc.call",
	"rpc.reply",
}, procQuick...)

// ProcPublish is the fixed publish sequence: each of two clients makes its
// own directory and publishes twelve deterministic 1 KiB files into it
// through a pipelined session. Two concurrent clients make ordinals drift
// between runs; an unreached kill is a clean completion, not a failure.
func ProcPublish() sweep.Scenario {
	return sweep.Scenario{
		Name:     "proc-publish",
		Options:  core.Options{ArenaSize: 16 << 20},
		Points:   procFull,
		Quick:    procQuick,
		Ordinals: 2,
		Workload: func(m *sweep.Machine) error {
			return runClients(procClients, func(k int) error { return procClient(m, k) })
		},
		Oracle: verifyProcPrefix,
	}
}

// procContent is the deterministic 1 KiB payload of client k's step i file;
// the parent recomputes it to check surviving files byte-for-byte.
func procContent(client, step int) []byte {
	b := make([]byte, 1024)
	for j := range b {
		b[j] = byte((client*131 + step*7 + j) % 251)
	}
	return b
}

func procDir(client int) string { return fmt.Sprintf("/c%d", client) }
func procName(client, step int) string {
	return fmt.Sprintf("/c%d/p%02d", client, step)
}

// procClient runs one writer (Window 4, one-op batches). Each
// create+write+close is its own sequence of window batches, so the
// surviving names after a kill identify exactly which prefix of the
// client's window applied.
func procClient(m *sweep.Machine, k int) error {
	fs, err := m.MountPXFS(libfs.Config{UID: uint32(1000 + k), BatchLimit: 1, Window: 4}, pxfs.Options{})
	if err != nil {
		return err
	}
	if err := fs.Mkdir(procDir(k), 0o755); err != nil {
		return fmt.Errorf("client %d mkdir: %w", k, err)
	}
	for i := 0; i < procSteps; i++ {
		if err := sweep.WriteFile(fs, procName(k, i), procContent(k, i)); err != nil {
			return fmt.Errorf("client %d step %d: %w", k, i, err)
		}
	}
	return fs.Sync()
}

// verifyProcPrefix is the prefix rule: every client's published files form
// a strict prefix of its step sequence with intact contents. The highest
// surviving file of a client may be incomplete — its content stores could
// still have been in flight when the insert published — but any file below
// the frontier must match byte-for-byte.
func verifyProcPrefix(m *sweep.Machine, _ sweep.Fault) []string {
	fs, err := m.MountPXFS(libfs.Config{UID: 2000}, pxfs.Options{})
	if err != nil {
		return []string{fmt.Sprintf("verify mount: %v", err)}
	}
	var fails []string
	for k := 0; k < procClients; k++ {
		if _, err := fs.Stat(procDir(k)); err != nil {
			// The kill can land before this client's mkdir published;
			// nothing of the client survived, which is a valid prefix.
			continue
		}
		visible := make([]bool, procSteps)
		highest := -1
		for i := 0; i < procSteps; i++ {
			_, err := fs.Stat(procName(k, i))
			switch {
			case err == nil:
				visible[i] = true
				highest = i
			case isNotExist(err):
			default:
				fails = append(fails, fmt.Sprintf("client %d stat p%02d: %v", k, i, err))
			}
		}
		hole := -1
		for i := 0; i < procSteps; i++ {
			if !visible[i] {
				if hole < 0 {
					hole = i
				}
				continue
			}
			if hole >= 0 {
				fails = append(fails, fmt.Sprintf(
					"client %d not prefix-consistent: p%02d survived but p%02d lost", k, i, hole))
			}
			// The name publishes at create time, before the content ships,
			// so only the frontier file may legitimately be short: every
			// earlier file's writes were sequenced before a later publish.
			if msg := sweep.CheckFile(fs, procName(k, i), procContent(k, i), i != highest); msg != "" {
				fails = append(fails, msg)
			}
		}
	}
	return fails
}
