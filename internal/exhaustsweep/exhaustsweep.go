// Package exhaustsweep holds the resource-exhaustion scenarios, the sibling
// of crashsweep: where crashsweep proves every crash point recovers, this
// package proves every allocation and journal-append failure degrades
// gracefully. Two passes:
//
//   - Natural fill: a machine with a deliberately tiny arena and journal is
//     filled until it reports out-of-space. Every failure on the way must be
//     typed (errors.Is fsproto.ErrNoSpace / ErrBatchTooLarge / ErrBusy —
//     never a transport error or an untyped validation reject), committed
//     files must still read back exactly, the journal must be idle (no
//     committed-but-unapplied batch stranded), and Fsck must find zero
//     leaked blocks without repairing anything. Deleting files must then
//     free space and let the workload make forward progress — the
//     delete-to-recover path a full volume depends on.
//
//   - Injected sweep: the sweep engine's Inject executor runs the Mutations
//     scenario on a comfortable machine once per sampled ordinal of every
//     exhaustion fault point ("alloc.alloc", "alloc.reserve",
//     "journal.append") with the matching error injected exactly there. The
//     workload must either absorb the failure and complete, or fail typed;
//     either way the volume must verify clean.
//
// The invariant under test is the reservation design's contract: a space
// failure is only ever reported *before* a batch commits, so there is no
// such thing as a partially applied batch — Fsck never finds half-applied
// state, and recovery never replays into a full allocator.
package exhaustsweep

import (
	"errors"
	"fmt"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/journal"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/sweep"
)

// Exhaustion is the executor of the injected pass: the points it sweeps,
// with the error each one injects, and what counts as a typed failure.
var Exhaustion = sweep.Inject{
	Errors: map[string]error{
		"alloc.alloc":    alloc.ErrNoSpace,
		"alloc.reserve":  alloc.ErrNoSpace,
		"journal.append": journal.ErrFull,
	},
	Typed: typedExhaustion,
}

// typedExhaustion reports whether err is one of the sanctioned exhaustion
// outcomes — and in particular NOT a transport classification: an ENOSPC
// must never look like "TFS unreachable" (which would requeue forever).
func typedExhaustion(err error) bool {
	if !fsproto.IsExhaustion(err) {
		return false
	}
	return !errors.Is(err, libfs.ErrTFSUnreachable) && !errors.Is(err, rpc.ErrUnreachable)
}

func mount(m *sweep.Machine) (*pxfs.FS, error) {
	return m.MountPXFS(libfs.Config{
		UID:        1000,
		BatchLimit: 1 << 20,
		PoolRefill: 8,
		// The harness wants the typed shed surfaced, not absorbed by
		// minutes of client-side patience.
		BusyRetries: 2,
	}, pxfs.Options{NameCache: true})
}

// Mutations is the injected pass's scenario: enough creates, overwrites,
// unlinks, and syncs on a roomy machine to hit every exhaustion point
// repeatedly.
func Mutations(seed int64, steps int) sweep.Scenario {
	return sweep.Scenario{
		Name:    "exhaust-mutations",
		Options: core.Options{ArenaSize: 32 << 20},
		Workload: func(m *sweep.Machine) error {
			fs, err := mount(m)
			if err != nil {
				return err
			}
			if err := fs.Mkdir("/d", 0o755); err != nil {
				return fmt.Errorf("mkdir: %w", err)
			}
			for step := 0; step < steps; step++ {
				name := fmt.Sprintf("/d/f%02d", (int(seed)+step*5)%7)
				switch step % 4 {
				case 0, 1:
					if err := writeFile(fs, name, fillContent(seed, step)); err != nil {
						return fmt.Errorf("step %d write: %w", step, err)
					}
				case 2:
					if err := fs.Unlink(name); err != nil && !errors.Is(err, pxfs.ErrNotExist) {
						return fmt.Errorf("step %d unlink: %w", step, err)
					}
				case 3:
					if err := fs.Sync(); err != nil {
						return fmt.Errorf("step %d sync: %w", step, err)
					}
				}
			}
			if err := fs.Sync(); err != nil {
				return fmt.Errorf("final sync: %w", err)
			}
			return nil
		},
	}
}

// fillContent is the deterministic payload of fill file i.
func fillContent(seed int64, i int) []byte {
	data := make([]byte, 32<<10)
	for j := range data {
		data[j] = byte(int64(i)*131 + seed*31 + int64(j)*7)
	}
	return data
}

func fillName(i int) string { return fmt.Sprintf("/fill/f%04d", i) }

// NaturalFill runs the fill pass on a machine with an arena and journal
// small enough that a few hundred KiB of files exhaust them, and returns how
// many files it committed before the volume filled plus every violation.
// See the package comment for the assertions.
func NaturalFill(seed int64) (int, []string) {
	var fails []string
	m, err := sweep.Build(core.Options{ArenaSize: 8 << 20, JournalSize: 256 << 10}, "")
	if err != nil {
		return 0, []string{fmt.Sprintf("build: %v", err)}
	}
	defer m.Release()
	// No partial application: nothing committed but unapplied survives an
	// ENOSPC, and there are no leaked blocks without a repair.
	checkVolume := func(tag string) {
		for _, f := range sweep.Consistent(m, false) {
			fails = append(fails, tag+": "+f)
		}
	}
	fs, err := mount(m)
	if err != nil {
		return 0, []string{fmt.Sprintf("mount: %v", err)}
	}
	if err := fs.Mkdir("/fill", 0o755); err != nil {
		return 0, []string{fmt.Sprintf("mkdir: %v", err)}
	}

	// Fill until the volume reports exhaustion. Every file is written once
	// and synced, so files [0, committed) are durably exactly fillContent.
	committed := 0
	var fillErr error
	const maxFiles = 4096
	for i := 0; i < maxFiles; i++ {
		if fillErr = writeFile(fs, fillName(i), fillContent(seed, i)); fillErr != nil {
			break
		}
		committed = i + 1
	}
	switch {
	case fillErr == nil:
		return committed, []string{"fill never hit exhaustion: arena too large for the harness"}
	case !typedExhaustion(fillErr):
		fails = append(fails, fmt.Sprintf("fill failure not typed: %v", fillErr))
	}

	checkVolume("post-fill")

	// The session must have reconverged with committed state: every
	// committed file reads back exactly.
	for i := 0; i < committed; i++ {
		if msg := sweep.CheckFile(fs, fillName(i), fillContent(seed, i), true); msg != "" {
			fails = append(fails, "committed file after ENOSPC: "+msg)
			break
		}
	}

	// Graceful recovery: deletes must succeed on the full volume and free
	// enough space for new work.
	freeUpTo := committed / 2
	for i := 0; i < freeUpTo; i++ {
		if err := fs.Unlink(fillName(i)); err != nil {
			fails = append(fails, fmt.Sprintf("unlink %s on full volume: %v", fillName(i), err))
			return committed, fails
		}
	}
	if err := fs.Sync(); err != nil {
		fails = append(fails, fmt.Sprintf("sync of deletes on full volume: %v", err))
		return committed, fails
	}
	checkVolume("post-delete")

	// Forward progress after freeing space.
	if err := writeFile(fs, "/fill/after", fillContent(seed, 9999)); err != nil {
		fails = append(fails, fmt.Sprintf("no forward progress after deletes: %v", err))
	}
	return committed, fails
}

// writeFile writes name and syncs it, so the data is durably committed.
func writeFile(fs *pxfs.FS, name string, data []byte) error {
	if err := sweep.WriteFile(fs, name, data); err != nil {
		return err
	}
	return fs.Sync()
}
