// Package crashsweep holds the crash-recovery scenarios the sweep engine
// (internal/sweep) runs, and the oracles that are theirs alone:
//
//   - MutationMix, swept in-process at every fault point the workload and a
//     subsequent recovery exercise: every recovered volume must repair
//     completely and still serve a fresh client (the engine's own check).
//   - the Window-4 prefix publisher (window_test.go), swept in-process over
//     the group-commit points: the completion window survives as a prefix.
//   - ProcPublish, LinearScripts and Shard2PC, run in a child process that
//     is kill -9'd on a volume file: each client's fixed publish sequence
//     survives as a strict prefix, the randomized scripts' surviving state
//     is a prefix-consistent linearization, and a cross-shard rename caught
//     in its 2PC windows resolves to exactly one outcome.
package crashsweep

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/sweep"
)

// MutationMix is the deterministic single-client PXFS mix: creates,
// overwrites, unlinks, renames, chmods (with and without hardware
// protection), and periodic syncs, so every journal/apply/prealloc path is
// exercised. Its point set is whatever the baseline enumerates.
func MutationMix(seed int64, steps int) sweep.Scenario {
	return sweep.Scenario{
		Name:     "mutation-mix",
		Options:  core.Options{ArenaSize: 32 << 20},
		Ordinals: 2, // the first and the last hit
		Workload: func(m *sweep.Machine) error {
			fs, err := m.MountPXFS(libfs.Config{UID: 1000, BatchLimit: 32 << 10}, pxfs.Options{NameCache: true})
			if err != nil {
				return err
			}
			return mutationMix(fs, seed, steps)
		},
	}
}

func mutationMix(fs *pxfs.FS, seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	if err := fs.Mkdir("/d", 0o755); err != nil {
		return fmt.Errorf("mkdir: %w", err)
	}
	for step := 0; step < steps; step++ {
		name := fmt.Sprintf("/d/f%02d", rng.Intn(8))
		switch rng.Intn(6) {
		case 0, 1: // create or overwrite
			data := make([]byte, rng.Intn(8<<10)+1)
			rng.Read(data)
			if err := sweep.WriteFile(fs, name, data); err != nil {
				return fmt.Errorf("step %d %s: %w", step, name, err)
			}
		case 2: // unlink
			if err := fs.Unlink(name); err != nil && !isNotExist(err) {
				return fmt.Errorf("step %d unlink %s: %w", step, name, err)
			}
		case 3: // rename
			dst := fmt.Sprintf("/d/f%02d", rng.Intn(8))
			if dst != name {
				if err := fs.Rename(name, dst); err != nil && !isNotExist(err) {
					return fmt.Errorf("step %d rename %s: %w", step, name, err)
				}
			}
		case 4: // chmod, alternating hardware protection
			err := fs.Chmod(name, 0o600, step%2 == 0)
			if err != nil && !isNotExist(err) {
				return fmt.Errorf("step %d chmod %s: %w", step, name, err)
			}
		case 5: // sync mid-stream
			if err := fs.Sync(); err != nil {
				return fmt.Errorf("step %d sync: %w", step, err)
			}
		}
		if step%6 == 5 {
			if err := fs.Sync(); err != nil {
				return fmt.Errorf("step %d periodic sync: %w", step, err)
			}
		}
	}
	// The random picks above may never unlink or hardware-protect a file
	// that exists; one of each, so libfs.unlink and tfs.chmod.protect are
	// swept whatever the seed.
	if err := sweep.WriteFile(fs, "/d/last", []byte("last")); err != nil {
		return fmt.Errorf("last: %w", err)
	}
	if err := fs.Chmod("/d/last", 0o600, true); err != nil {
		return fmt.Errorf("chmod last: %w", err)
	}
	if err := fs.Unlink("/d/last"); err != nil {
		return fmt.Errorf("unlink last: %w", err)
	}
	if err := fs.Sync(); err != nil {
		return fmt.Errorf("final sync: %w", err)
	}
	return nil
}

// runClients runs fn(0..n-1) concurrently and returns the first error.
func runClients(n int, fn func(k int) error) error {
	errs := make(chan error, n)
	for k := 0; k < n; k++ {
		go func(k int) { errs <- fn(k) }(k)
	}
	var first error
	for k := 0; k < n; k++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func isNotExist(err error) bool {
	return errors.Is(err, pxfs.ErrNotExist)
}
