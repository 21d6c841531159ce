// Package aerie is a Go implementation of Aerie (Volos et al., EuroSys
// 2014): a decentralized file-system architecture that exposes storage-class
// memory directly to user-mode programs. A machine consists of an emulated
// SCM arena, the kernel SCM manager (allocation, mapping, page protection),
// and a trusted file-system service (metadata integrity, distributed locks,
// crash-consistent journaling); clients mount sessions that read data and
// metadata straight from memory and ship batched metadata updates to the
// service.
//
// Two file-system interfaces share one layout:
//
//   - PXFS, a POSIX-style hierarchical file system
//     (Open/Read/Write/Unlink/Rename/...), and
//   - FlatFS, a put/get/erase store for many small files in a flat
//     namespace, with fine-grained bucket locking.
//
// Quick start:
//
//	sys, _ := aerie.New(aerie.Options{ArenaSize: 64 << 20})
//	defer sys.Close()
//	fs, _ := sys.NewPXFS(1000, aerie.PXFSOptions{NameCache: true})
//	f, _ := fs.Create("/hello.txt", 0644)
//	f.Write([]byte("hi"))
//	f.Close()
//	fs.Sync()
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package aerie

import (
	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/tfs"
)

// StatfsInfo is the volume-wide space and object accounting returned by
// PXFS.Statfs / FlatFS.Statfs / Session.Statfs (statvfs/df).
type StatfsInfo = fsproto.StatfsReply

// Typed resource-exhaustion errors surfaced by Sync/FlushUpdates and the
// interface layers. Test with errors.Is.
var (
	// ErrNoSpace: the TFS could not reserve worst-case space for a batch
	// (or an allocation ran dry). The rejected batch's staged extents were
	// reclaimed and the session reconverged with committed state; freeing
	// space lets it continue.
	ErrNoSpace = fsproto.ErrNoSpace
	// ErrBatchTooLarge: a single indivisible logged group exceeds what the
	// journal can ever hold.
	ErrBatchTooLarge = fsproto.ErrBatchTooLarge
	// ErrBusy: the TFS shed the batch under load and in-call retries were
	// exhausted; the batch stays parked and a later Sync re-ships it.
	ErrBusy = fsproto.ErrBusy
	// ErrQuotaExceeded: the batch's worst-case space demand would push its
	// tenant past its configured quota. Distinct from ErrNoSpace — the
	// volume may have plenty of free space; deleting the tenant's own
	// files restores headroom.
	ErrQuotaExceeded = fsproto.ErrQuotaExceeded
)

// TenantConfig is one tenant's isolation policy (scheduling weight, space
// quota), set at boot via Options.Tenants or at runtime via
// Session.TenantCtl.
type TenantConfig = tfs.TenantConfig

// TenantUsage is one (tenant, shard) accounting row returned by
// Session.TenantStat: configured policy plus live used/reserved bytes and
// shed/reject counters.
type TenantUsage = fsproto.TenantUsage

// Typed volume-file errors surfaced by New (Options.VolumePath) and Open.
// Test with errors.Is.
var (
	// ErrMapFailed: the volume file could not be created, grown, or
	// mapped. New degrades to the volatile arena on this (see
	// System.Degraded); Open fails hard.
	ErrMapFailed = scm.ErrMapFailed
	// ErrBadVolume: the file is not an Aerie volume — bad magic, torn or
	// truncated, checksum mismatch, or impossible geometry.
	ErrBadVolume = scm.ErrBadVolume
	// ErrVersionMismatch: the volume's layout version is newer than this
	// build understands.
	ErrVersionMismatch = scm.ErrVersionMismatch
	// ErrDirtyVolume: the volume was not cleanly closed and the open
	// required a clean one.
	ErrDirtyVolume = scm.ErrDirtyVolume
)

// Options configures a machine (see core.Options for field docs).
type Options = core.Options

// Costs holds the injected hardware/OS latencies.
type Costs = costmodel.Costs

// OID is a storage-object identifier.
type OID = sobj.OID

// PXFS is the POSIX-style interface; File is an open PXFS file.
type (
	PXFS     = pxfs.FS
	File     = pxfs.File
	FileInfo = pxfs.FileInfo
	DirEntry = pxfs.DirEntry
	// PXFSOptions tunes a PXFS client (name cache on/off).
	PXFSOptions = pxfs.Options
)

// FlatFS is the specialized put/get/erase interface.
type (
	FlatFS = flatfs.FS
	// FlatFSOptions tunes a FlatFS client.
	FlatFSOptions = flatfs.Options
)

// Session is a mounted libFS client, usable by several interface layers at
// once (a PXFS and a FlatFS view may share one session).
type Session = libfs.Session

// SessionConfig tunes a client session (batch limit, pool size, tracer).
type SessionConfig = libfs.Config

// ObsSink is the per-layer observability sink (counters, latency
// histograms, trace ring). Create one with NewObs, pass it in
// Options.Obs, and read it back with System.Obs().Snapshot().
type ObsSink = obs.Sink

// ObsSnapshot is a deterministic point-in-time copy of a sink.
type ObsSnapshot = obs.Snapshot

// NewObs creates a live observability sink with the default trace-ring
// size.
func NewObs() *ObsSink { return obs.New() }

// PXFS open flags.
const (
	O_RDONLY = pxfs.O_RDONLY
	O_RDWR   = pxfs.O_RDWR
	O_CREATE = pxfs.O_CREATE
	O_TRUNC  = pxfs.O_TRUNC
	O_APPEND = pxfs.O_APPEND
)

// System is a running Aerie machine.
type System struct {
	*core.System
}

// New formats and boots a machine: SCM arena, SCM manager, one volume, the
// TFS with its lock service. The arena is memory mapped outside the Go heap,
// so Close releases it; the collector never will. With Options.VolumePath
// set, the arena is an mmap-backed file that survives process death; Close
// is then also the clean shutdown, and Open comes back.
func New(opts Options) (*System, error) {
	sys, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	return &System{System: sys}, nil
}

// Open mounts an existing volume file and recovers the machine inside it
// (journal replay included). Unlike New it never degrades to the volatile
// arena: a torn, truncated, foreign, or future-versioned file is a typed
// hard error.
func Open(path string, opts Options) (*System, error) {
	sys, err := core.Open(path, opts)
	if err != nil {
		return nil, err
	}
	return &System{System: sys}, nil
}

// NewPXFS mounts a client session for uid and attaches a PXFS view.
func (s *System) NewPXFS(uid uint32, opts PXFSOptions) (*PXFS, error) {
	sess, err := s.NewSession(SessionConfig{UID: uid})
	if err != nil {
		return nil, err
	}
	return pxfs.New(sess, opts), nil
}

// NewFlatFS mounts a client session for uid and attaches a FlatFS view.
func (s *System) NewFlatFS(uid uint32, opts FlatFSOptions) (*FlatFS, error) {
	sess, err := s.NewSession(SessionConfig{UID: uid})
	if err != nil {
		return nil, err
	}
	return flatfs.New(sess, opts), nil
}

// PXFSOn attaches a PXFS view to an existing session.
func PXFSOn(sess *Session, opts PXFSOptions) *PXFS { return pxfs.New(sess, opts) }

// FlatFSOn attaches a FlatFS view to an existing session.
func FlatFSOn(sess *Session, opts FlatFSOptions) *FlatFS { return flatfs.New(sess, opts) }
