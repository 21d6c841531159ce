package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/rpc"
)

const (
	// lease keeps renewals and expiries out of every measured window.
	lease          = 10 * time.Minute
	acquireTimeout = 60 * time.Second
)

// arenaSize is 512 MiB, except in reduced-scale runs (the smoke test), where
// formatting and zeroing that much per set-up would be most of the run.
func (cfg *runConfig) arenaSize() uint64 {
	if cfg.scale < 1 {
		return 64 << 20
	}
	return 512 << 20
}

// journalSize is each shard's redo-log region: 128 MiB, not the 4 MiB
// default, so that no workload wraps the ring within a run. At this commit a
// record that ends exactly on the ring's last byte leaves the cursor past
// the ring instead of at 0, and every later append fails with "log full"
// (README.md, "Limits"); how often a run lands there is a matter of luck per
// wrap, so the benchmark does not wrap. The service checkpoints after every
// group commit whatever the ring's size, so that cost is measured; only the
// pad record at the ring's end is not, and journal.probe.wrap_cycle_us times
// it at the layer. Reduced-scale runs keep the default.
func (cfg *runConfig) journalSize() uint64 {
	if cfg.scale < 1 {
		return 0
	}
	return 128 << 20
}

// machineSpec is what a workload asks of the machine it runs on.
type machineSpec struct {
	shards int
	volume bool // arena is a VolumePath file under the work directory
	tcp    bool // clients mount over loopback TCP, not the in-process transport
}

// machine is one Aerie system with its clients. No costs are injected
// anywhere: core.Options.Costs stays the zero value.
type machine struct {
	cfg     *runConfig
	spec    machineSpec
	sys     *core.System
	ln      *rpc.TCPListener
	volPath string
	sink    *obs.Sink // traced runs only, and only read for counts
	tr      *tracer   // traced runs only
	sess    []*libfs.Session
}

func (m *machine) options() core.Options {
	return core.Options{
		ArenaSize:      m.cfg.arenaSize(),
		JournalSize:    m.cfg.journalSize(),
		Shards:         m.spec.shards,
		VolumePath:     m.volPath,
		Lease:          lease,
		AcquireTimeout: acquireTimeout,
		Obs:            m.sink,
	}
}

func newMachine(cfg *runConfig, spec machineSpec, tr *tracer) (*machine, error) {
	m := &machine{cfg: cfg, spec: spec, tr: tr}
	if tr != nil {
		m.sink = obs.New()
	}
	if spec.volume {
		m.volPath = filepath.Join(cfg.workDir, fmt.Sprintf("vol-%s-%d.aerie", cfg.workload, os.Getpid()))
		_ = os.Remove(m.volPath) // a leftover from a killed run
	}
	sys, err := core.New(m.options())
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	if err := sys.Degraded(); err != nil {
		_ = sys.Close()
		return nil, fmt.Errorf("volume %s: %w", m.volPath, err)
	}
	m.sys = sys
	if spec.tcp {
		if m.ln, err = sys.ListenTCP("127.0.0.1:0"); err != nil {
			m.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
	}
	return m, nil
}

// mount adds a client. An untraced run uses the product's own wiring
// (System.NewSession / libfs.MountTCP); a traced run dials the same
// transport itself, wraps it in the tap, and wires revocation callbacks to
// the clerk exactly as MountInProc and MountTCP do.
func (m *machine) mount(lc libfs.Config) (*libfs.Session, *clientTrace, error) {
	lc.UID = uint32(1000 + len(m.sess))
	lc.RenewEvery = lease / 3
	var (
		s   *libfs.Session
		ct  *clientTrace
		err error
	)
	switch {
	case m.tr != nil:
		ct = m.tr.client(len(m.sess))
		s, err = m.mountTapped(lc, ct)
	case m.spec.tcp:
		s, err = libfs.MountTCP(m.ln.Addr(), m.sys.Mgr, lc)
	default:
		s, err = m.sys.NewSession(lc)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("mount client %d: %w", len(m.sess), err)
	}
	m.sess = append(m.sess, s)
	return s, ct, nil
}

func (m *machine) mountTapped(lc libfs.Config, ct *clientTrace) (*libfs.Session, error) {
	var (
		mu   sync.Mutex
		sess *libfs.Session
	)
	cb := func(method uint32, payload []byte) {
		if method == lockservice.CallbackRevoke && m.tr.on.Load() {
			ct.revocations.Add(1)
		}
		mu.Lock()
		s := sess
		mu.Unlock()
		if s != nil {
			s.Clerk.HandleCallback(method, payload)
		}
	}
	var rc rpc.Client
	if m.spec.tcp {
		c, err := rpc.DialTCP(m.ln.Addr(), cb)
		if err != nil {
			return nil, err
		}
		rc = c
	} else {
		rc = rpc.DialInProc(m.sys.Srv, cb, m.sys.Costs, nil)
	}
	lc.Costs = m.sys.Costs
	lc.Obs = m.sink
	s, err := libfs.Mount(newTap(rc, ct), m.sys.Mgr, lc)
	if err != nil {
		_ = rc.Close()
		return nil, err
	}
	mu.Lock()
	sess = s
	mu.Unlock()
	return s, nil
}

// abandon is the in-process stand-in for kill -9 on a volume machine:
// clients and listener go away, the lock service stops, and the mapping is
// dropped with the dirty flag still set. The volume file stays for reopen.
func (m *machine) abandon() {
	for _, s := range m.sess {
		s.Abandon()
	}
	m.sess = nil
	if m.ln != nil {
		_ = m.ln.Close()
		m.ln = nil
	}
	m.sys.Set.Locks.Shutdown()
	m.sys.Vol.Abandon()
	m.sys = nil
}

// reopen recovers the abandoned volume with core.Open.
func (m *machine) reopen() error {
	sys, err := core.Open(m.volPath, m.options())
	if err != nil {
		return fmt.Errorf("core.Open: %w", err)
	}
	m.sys = sys
	return nil
}

func (m *machine) close() {
	for _, s := range m.sess {
		_ = s.Close()
	}
	m.sess = nil
	if m.ln != nil {
		_ = m.ln.Close()
	}
	if m.sys != nil {
		_ = m.sys.Close()
	}
	if m.volPath != "" {
		_ = os.Remove(m.volPath)
	}
}
