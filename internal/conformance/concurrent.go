package conformance

// Concurrent differential conformance: where RunDifferential replays one
// trace in lockstep and compares final states, this file drives N truly
// concurrent PXFS clients against one live Aerie machine, records every
// operation's invocation/response window, and hands the history to the
// linearize checker. The lockstep differ certifies the sequential
// semantics; this harness certifies that the distributed machinery under
// them — per-client batched logs, the K-deep completion window, group
// commit, commit-order apply, lock revocation with flush-on-release —
// composes into operations that still look atomic from the outside.

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/linearize"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

// PXClient adapts one PXFS client to the linearize operation vocabulary.
// Every method is a whole operation: open, act, close within the recorded
// window, so the open-to-close file locking (§6.1) is what makes each call
// atomic — exactly the property the checker puts on trial.
//
// Stat is deliberately absent: it reads inode headers lock-free off raw
// SCM (ReadBarrier plus a direct header load), which is a different,
// weaker contract — it may tear against another client's in-flight apply.
// The linearizable surface is the lock-mediated one.
type PXClient struct {
	FS *pxfs.FS
}

func pxErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, pxfs.ErrNotExist) {
		return linearize.ErrNotExist
	}
	return err
}

// Put creates or fully replaces path.
func (c PXClient) Put(path string, data []byte) error {
	f, err := c.FS.OpenFile(path, pxfs.O_RDWR|pxfs.O_CREATE|pxfs.O_TRUNC, 0o644)
	if err != nil {
		return pxErr(err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Append extends an existing path.
func (c PXClient) Append(path string, data []byte) error {
	f, err := c.FS.OpenFile(path, pxfs.O_RDWR|pxfs.O_APPEND, 0o644)
	if err != nil {
		return pxErr(err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read returns the full contents, sized under the same shared lock that
// covers the data read — no lock-free header peeking.
func (c PXClient) Read(path string) ([]byte, error) {
	f, err := c.FS.Open(path, pxfs.O_RDONLY)
	if err != nil {
		return nil, pxErr(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	if err != nil && !(errors.Is(err, io.EOF) && uint64(n) == size) {
		return nil, err
	}
	if uint64(n) != size {
		return nil, fmt.Errorf("short read: %d of %d bytes of %s", n, size, path)
	}
	return buf, nil
}

// Truncate resizes an existing path.
func (c PXClient) Truncate(path string, size int64) error {
	f, err := c.FS.OpenFile(path, pxfs.O_RDWR, 0o644)
	if err != nil {
		return pxErr(err)
	}
	if err := f.Truncate(uint64(size)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Delete unlinks path.
func (c PXClient) Delete(path string) error { return pxErr(c.FS.Unlink(path)) }

// Rename moves src to dst.
func (c PXClient) Rename(src, dst string) error { return pxErr(c.FS.Rename(src, dst)) }

// ConcurrentConfig parameterizes a live concurrent run.
type ConcurrentConfig struct {
	// Scripts is one operation script per client (see linearize.GenerateScripts).
	Scripts [][]linearize.Op
	// Window and BatchLimit shape each client session's write pipeline
	// (defaults 4 and 1: every logged op its own batch, several in flight —
	// the most reordering-prone configuration the machinery allows).
	Window     int
	BatchLimit int
	// Roots lists the directories the script paths live under (default:
	// derived from the scripts' path prefixes). They are created before the
	// clients start.
	Roots []string
	// Wrap, when set, substitutes client k's ClientFS — the hook the
	// injected-mutation tests use to corrupt exactly one client.
	Wrap func(k int, fs linearize.ClientFS, rec *linearize.Recorder) linearize.ClientFS
}

// scriptRoots derives the set of parent directories the scripts touch.
func scriptRoots(scripts [][]linearize.Op) []string {
	seen := map[string]bool{}
	var roots []string
	add := func(p string) {
		if i := strings.LastIndex(p, "/"); i > 0 {
			d := p[:i]
			if !seen[d] {
				seen[d] = true
				roots = append(roots, d)
			}
		}
	}
	for _, script := range scripts {
		for _, op := range script {
			if op.Kind == linearize.KBarrier {
				continue
			}
			add(op.Path)
			if op.Kind == linearize.KRename {
				add(op.Path2)
			}
		}
	}
	return roots
}

// RunConcurrent mounts one pipelined session per script on sys, runs the
// scripts concurrently, and returns the recorded history. The caller
// checks it (the split keeps mutation tests able to corrupt the history
// before checking). Sessions are closed before returning so every client's
// outstanding batches are flushed and the system is quiescent.
func RunConcurrent(sys *core.System, cfg ConcurrentConfig) (linearize.History, error) {
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	if cfg.BatchLimit == 0 {
		cfg.BatchLimit = 1
	}
	roots := cfg.Roots
	if roots == nil {
		roots = scriptRoots(cfg.Scripts)
	}

	// Set up the shared directories with a short-lived session; closing it
	// releases its directory grants, publishing the inserts before any
	// client resolves the paths.
	setup, err := sys.NewSession(libfs.Config{UID: 999})
	if err != nil {
		return linearize.History{}, fmt.Errorf("setup session: %w", err)
	}
	setupFS := pxfs.New(setup, pxfs.Options{})
	for _, root := range roots {
		if err := setupFS.Mkdir(root, 0o755); err != nil && !errors.Is(err, pxfs.ErrExist) {
			setup.Close()
			return linearize.History{}, fmt.Errorf("mkdir %s: %w", root, err)
		}
	}
	if err := setup.Close(); err != nil {
		return linearize.History{}, fmt.Errorf("setup close: %w", err)
	}

	rec := linearize.NewRecorder()
	clients := make([]linearize.ClientFS, len(cfg.Scripts))
	sessions := make([]*libfs.Session, len(cfg.Scripts))
	for k := range cfg.Scripts {
		// RenewEvery is left to NewSession's default (lease/3): a concurrent
		// run outlives the 2s lock-service lease, and a session that stops
		// renewing has its grants reaped and its prealloc state discarded
		// mid-run — a simulated crash, not the healthy client under test.
		sess, err := sys.NewSession(libfs.Config{
			UID:        uint32(1000 + k),
			Window:     cfg.Window,
			BatchLimit: cfg.BatchLimit,
		})
		if err != nil {
			return linearize.History{}, fmt.Errorf("client %d session: %w", k, err)
		}
		sessions[k] = sess
		var fs linearize.ClientFS = PXClient{FS: pxfs.New(sess, pxfs.Options{NameCache: true})}
		if cfg.Wrap != nil {
			fs = cfg.Wrap(k, fs, rec)
		}
		clients[k] = fs
	}

	h, runErr := linearize.Run(rec, clients, cfg.Scripts)
	for k, sess := range sessions {
		if err := sess.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("client %d close: %w", k, err)
		}
	}
	return h, runErr
}
