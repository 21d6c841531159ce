// Package core assembles a complete Aerie machine: the emulated SCM arena,
// the kernel SCM manager, a partition formatted as an Aerie volume, the
// trusted file-system service with its lock service, and the RPC fabric
// clients mount through. It is the composition root used by the public
// aerie package, the test suites, and the benchmark harness.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/tfs"
)

// Options configures a System.
type Options struct {
	// ArenaSize is the emulated SCM size (default 256 MiB).
	ArenaSize uint64
	// Shards partitions the trusted service: the volume is split into this
	// many equal partitions, each run by its own TFS shard (own journal,
	// allocator, group-commit leader, lock domain), with deterministic
	// placement routing every object to its shard and cross-shard renames
	// running as two-phase transactions. Default 1. Open ignores this and rediscovers the shard
	// count from the partition table.
	Shards int
	// TrackPersistence enables crash simulation (slower; tests only).
	// Incompatible with VolumePath: the mapped file is the persistent image.
	TrackPersistence bool
	// VolumePath, when set, backs the arena with an mmap-backed volume file
	// so the machine survives real process death (kill -9) and restarts via
	// Open. If creating or mapping the file fails, New degrades to the
	// volatile arena: the machine still runs, Degraded() returns the typed
	// cause (errors.Is(..., scm.ErrMapFailed)), and the downgrade is logged
	// through Logf. Opening existing data never degrades — see Open.
	VolumePath string
	// Logf receives one-line operational notices (e.g. the volatile
	// downgrade). Nil discards them.
	Logf func(format string, args ...any)
	// Costs injects modeled latencies; zero value injects nothing.
	Costs costmodel.Costs
	// JournalSize for the volume redo log (default 4 MiB).
	JournalSize uint64
	// Lease and AcquireTimeout for the lock service.
	Lease          time.Duration
	AcquireTimeout time.Duration
	// MaxInflightBytes and RetryAfterHint tune the TFS's admission control
	// (see tfs.Config); zero keeps its defaults.
	MaxInflightBytes int64
	RetryAfterHint   time.Duration
	// Tenants is the boot-time multi-tenant policy: per-tenant scheduling
	// weight and space quota, applied to every shard (see tfs.Config.Tenants).
	// Unlisted tenants get weight 1 and no quota.
	Tenants map[uint32]tfs.TenantConfig
	// Tracer records client phase traces (single-threaded capture runs).
	Tracer *costmodel.Tracer
	// Faults, when non-nil, arms fault points across every layer of the
	// machine: the SCM arena, the TFS and its journal, the RPC fabric, and
	// (by default) client sessions. Nil in production.
	Faults *faultinject.Injector
	// Obs, when non-nil, wires per-layer observability through the whole
	// machine — SCM, RPC, lock service, journal, TFS — and is inherited
	// (by default) by client sessions. Nil keeps every hot path at its
	// uninstrumented cost.
	Obs *obs.Sink
}

// tfsUID is the trusted service's identity; it owns the partition.
const tfsUID = 0

// System is a running Aerie machine: Set is the trusted service, one shard
// per partition in Parts.
type System struct {
	Mem   *scm.Memory
	Mgr   *scmmgr.Manager
	Srv   *rpc.Server
	Set   *tfs.ShardSet
	Parts []scmmgr.PartitionID
	Costs *costmodel.Costs

	// Vol is the mmap-backed volume when the arena is persistent, nil when
	// volatile (the default, and the degradation fallback).
	Vol *scm.Volume

	opts     Options
	proc     *scmmgr.Process
	degraded error
}

// Degraded returns the typed error that forced this machine onto the
// volatile arena after VolumePath was requested, or nil when the machine is
// running as configured. The data-loss consequence is explicit: a degraded
// machine forgets everything at process exit.
func (sys *System) Degraded() error { return sys.degraded }

func (sys *System) logf(format string, args ...any) {
	if sys.opts.Logf != nil {
		sys.opts.Logf(format, args...)
	}
}

// New formats a fresh Aerie machine. With Options.VolumePath set, the arena
// is an mmap-backed volume file; a mapping failure downgrades to the
// volatile arena rather than failing the machine (the error stays visible
// through Degraded and Logf). There is no data to lose at format time, so
// the downgrade is safe; Open never does this.
func New(opts Options) (*System, error) {
	if opts.ArenaSize == 0 {
		opts.ArenaSize = 256 << 20
	}
	if opts.VolumePath != "" && opts.TrackPersistence {
		return nil, fmt.Errorf("core: TrackPersistence requires the volatile arena (VolumePath set)")
	}
	costs := opts.Costs
	sys := &System{Costs: &costs, opts: opts}
	if opts.VolumePath != "" {
		vol, err := scm.CreateVolume(opts.VolumePath, scm.VolumeOptions{
			ArenaSize: opts.ArenaSize,
			Costs:     sys.Costs,
			Faults:    opts.Faults,
			Obs:       opts.Obs,
		})
		if err != nil {
			if !errors.Is(err, scm.ErrMapFailed) {
				return nil, err
			}
			sys.degraded = err
			sys.logf("core: volume %s unavailable, running on the VOLATILE arena (data will not survive exit): %v",
				opts.VolumePath, err)
		} else {
			sys.Vol = vol
			sys.Mem = vol.Mem()
		}
	}
	if sys.Mem == nil {
		mem, err := scm.Map(scm.Config{
			Size:             opts.ArenaSize,
			Costs:            sys.Costs,
			TrackPersistence: opts.TrackPersistence,
			Faults:           opts.Faults,
			Obs:              opts.Obs,
		})
		if err != nil {
			return nil, err
		}
		sys.Mem = mem
	}
	fail := func(err error) (*System, error) {
		_ = sys.Close()
		return nil, err
	}
	mgr, err := scmmgr.FormatAndAttach(sys.Mem, sys.Costs)
	if err != nil {
		return fail(err)
	}
	sys.Mgr = mgr
	sys.proc = scmmgr.NewProcess(tfsUID)
	// The volume is the whole arena minus the manager region (first-fit
	// finds the gap), split into one equal partition per shard.
	region := opts.ArenaSize / 64
	if region < 64*1024 {
		region = 64 * 1024
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 1
	}
	partSize := (opts.ArenaSize - region - (opts.ArenaSize / 32)) / uint64(shards) // slack for rounding
	partSize = partSize / scm.PageSize * scm.PageSize
	for i := 0; i < shards; i++ {
		part, err := mgr.CreatePartition(partSize, tfsUID)
		if err != nil {
			return fail(err)
		}
		sys.Parts = append(sys.Parts, part)
		if err := tfs.FormatVolume(mgr, sys.proc, part, sys.tfsConfig()); err != nil {
			return fail(err)
		}
	}
	if err := sys.serve(); err != nil {
		return fail(err)
	}
	if opts.TrackPersistence {
		// Start crash experiments from a fully persistent image.
		sys.Mem.PersistAll()
	}
	return sys, nil
}

// Open mounts an existing volume file and recovers the machine inside it:
// map the file, validate and reattach the SCM manager, rediscover the TFS
// partition, and serve (which replays the redo journal). Unlike New, Open
// never degrades to the volatile arena — the file claims to hold user data,
// so every failure is a typed hard error (scm.ErrBadVolume,
// scm.ErrVersionMismatch, scm.ErrMapFailed, ...). The open's phases are
// timed into the obs counters core.open.{map,attach,recover}_ns.
func Open(path string, opts Options) (*System, error) {
	if opts.TrackPersistence {
		return nil, fmt.Errorf("core: TrackPersistence requires the volatile arena (volume open)")
	}
	costs := opts.Costs
	sys := &System{Costs: &costs, opts: opts}
	t0 := time.Now()
	vol, err := scm.OpenVolume(path, scm.VolumeOptions{
		Costs:  sys.Costs,
		Faults: opts.Faults,
		Obs:    opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	sys.Vol = vol
	sys.Mem = vol.Mem()
	if vol.WasDirty() {
		sys.logf("core: volume %s was not cleanly closed (generation %d); recovering",
			path, vol.Generation())
	}
	t1 := time.Now()
	mgr, err := scmmgr.Attach(sys.Mem, sys.Costs)
	if err != nil {
		vol.Close()
		return nil, fmt.Errorf("%w: %s: scm manager attach: %v", scm.ErrBadVolume, path, err)
	}
	sys.Mgr = mgr
	sys.proc = scmmgr.NewProcess(tfsUID)
	parts, err := mgr.Partitions()
	if err != nil {
		vol.Close()
		return nil, fmt.Errorf("%w: %s: partition table: %v", scm.ErrBadVolume, path, err)
	}
	// Every TFS-owned partition is a shard; slot order is creation order,
	// which fixes the shard numbering across restarts.
	for _, p := range parts {
		if p.Owner == tfsUID {
			sys.Parts = append(sys.Parts, p.ID)
		}
	}
	if len(sys.Parts) == 0 {
		vol.Close()
		return nil, fmt.Errorf("%w: %s: no TFS partition", scm.ErrBadVolume, path)
	}
	t2 := time.Now()
	if err := sys.serve(); err != nil {
		vol.Close()
		return nil, err
	}
	t3 := time.Now()
	opts.Obs.Counter("core.open.map_ns").Add(t1.Sub(t0).Nanoseconds())
	opts.Obs.Counter("core.open.attach_ns").Add(t2.Sub(t1).Nanoseconds())
	opts.Obs.Counter("core.open.recover_ns").Add(t3.Sub(t2).Nanoseconds())
	return sys, nil
}

// Close shuts the machine down cleanly: the lock service stops, then the
// arena is released — a persistent one msynced, marked clean and unmapped, a
// volatile one (and its shadow) unmapped. Sessions still mounted afterwards
// get typed errors (scm.ErrOutOfRange) from every access. Close is safe to
// call on a degraded machine and idempotent.
func (sys *System) Close() error {
	if sys.Set != nil {
		sys.Set.Locks.Shutdown()
	}
	return sys.Mem.Close()
}

func (sys *System) tfsConfig() tfs.Config {
	return tfs.Config{
		JournalSize:      sys.opts.JournalSize,
		Lease:            sys.opts.Lease,
		AcquireTimeout:   sys.opts.AcquireTimeout,
		MaxInflightBytes: sys.opts.MaxInflightBytes,
		RetryAfterHint:   sys.opts.RetryAfterHint,
		Tenants:          sys.opts.Tenants,
		Costs:            sys.Costs,
		Faults:           sys.opts.Faults,
		Obs:              sys.opts.Obs,
	}
}

func (sys *System) serve() error {
	sys.Srv = rpc.NewServer()
	sys.Srv.SetFaults(sys.opts.Faults)
	if sys.opts.Obs != nil {
		sys.Srv.SetObs(sys.opts.Obs)
	}
	set, err := tfs.ServeShards(sys.Srv, sys.Mgr, sys.proc, sys.Parts, sys.tfsConfig())
	if err != nil {
		return err
	}
	sys.Set = set
	return nil
}

// NewSession mounts a libFS client over the in-process transport. Lease
// renewal defaults to a third of the lock-service lease so cached grants
// of a healthy client never expire (§5.1).
func (sys *System) NewSession(cfg libfs.Config) (*libfs.Session, error) {
	if cfg.Costs == nil {
		cfg.Costs = sys.Costs
	}
	if cfg.Tracer == nil {
		cfg.Tracer = sys.opts.Tracer
	}
	if cfg.RenewEvery == 0 {
		lease := sys.opts.Lease
		if lease == 0 {
			lease = 2 * time.Second // the lock service's default
		}
		cfg.RenewEvery = lease / 3
	}
	if cfg.Faults == nil {
		cfg.Faults = sys.opts.Faults
	}
	if cfg.Obs == nil {
		cfg.Obs = sys.opts.Obs
	}
	return libfs.MountInProc(sys.Srv, sys.Mgr, cfg)
}

// Obs returns the machine's observability sink (nil when disabled).
func (sys *System) Obs() *obs.Sink { return sys.opts.Obs }

// CrashAndRecover simulates machine power loss: the volatile image is
// discarded, then the SCM manager re-attaches and the TFS recovers from
// its redo journal. All prior sessions are dead. Requires
// TrackPersistence.
func (sys *System) CrashAndRecover() error {
	sys.Set.Locks.Shutdown()
	sys.Mem.Crash()
	mgr, err := scmmgr.Attach(sys.Mem, sys.Costs)
	if err != nil {
		return err
	}
	sys.Mgr = mgr
	return sys.serve()
}

// RestartTFS simulates a TFS process restart without power loss (journal
// replay over intact memory, pre-allocation scavenging).
func (sys *System) RestartTFS() error {
	sys.Set.Locks.Shutdown()
	return sys.serve()
}

// ListenTCP additionally serves the machine's RPC fabric over loopback TCP
// for out-of-process clients (cmd/aerie-tfsd).
func (sys *System) ListenTCP(addr string) (*rpc.TCPListener, error) {
	return rpc.ListenTCP(sys.Srv, addr)
}
