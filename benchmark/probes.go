package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/journal"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// Layer probes call one layer's public functions in isolation, with inputs
// shaped like the workloads', so a change inside a layer shows in its own
// row before it shows (or fails to show) end to end. Each probe takes a few
// tens of milliseconds; a traced run executes all of them once.

// perCall runs fn in five batches of n calls (n shrinks with the run's
// scale) and returns the median batch's nanoseconds per call.
func (cfg *runConfig) perCall(n int, fn func()) float64 {
	if n = int(float64(n) * cfg.scale); n < 20 {
		n = 20
	}
	batches := make([]float64, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(batches)
}

// timedSpace wraps a scm.Space and accumulates the time spent inside it, so
// a probe can split a layer's own time from the SCM time beneath it.
type timedSpace struct {
	scm.Space
	ns int64
}

func (t *timedSpace) since(t0 time.Time) { t.ns += time.Since(t0).Nanoseconds() }

func (t *timedSpace) Read(addr uint64, p []byte) error {
	defer t.since(time.Now())
	return t.Space.Read(addr, p)
}

func (t *timedSpace) Write(addr uint64, p []byte) error {
	defer t.since(time.Now())
	return t.Space.Write(addr, p)
}

func (t *timedSpace) WriteStream(addr uint64, p []byte) error {
	defer t.since(time.Now())
	return t.Space.WriteStream(addr, p)
}

func (t *timedSpace) Flush(addr uint64, n int) error {
	defer t.since(time.Now())
	return t.Space.Flush(addr, n)
}

func (t *timedSpace) BFlush() {
	defer t.since(time.Now())
	t.Space.BFlush()
}

func (t *timedSpace) Fence() {
	defer t.since(time.Now())
	t.Space.Fence()
}

func (t *timedSpace) Atomic64(addr uint64, v uint64) error {
	defer t.since(time.Now())
	return t.Space.Atomic64(addr, v)
}

type probe struct {
	name string
	run  func(cfg *runConfig, v map[string]*float64) error
}

var probes = []probe{
	{"lockservice", probeLocks},
	{"rpc", probeRPC},
	{"fsproto", probeCodec},
	{"journal", probeJournal},
	{"alloc+sobj", probeObjects},
	{"scmmgr", probeMapping},
	{"scm", probeSCM},
	{"core", probeCore},
	{"flatfs", probeFlat},
}

func runProbes(cfg *runConfig, v map[string]*float64) error {
	for _, p := range probes {
		if err := p.run(cfg, v); err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

func probeLocks(cfg *runConfig, v map[string]*float64) error {
	svc := lockservice.New(lockservice.Config{Lease: lease})
	defer svc.Shutdown()
	var err error
	v["lockservice.probe.acquire_release_ns"] = num(cfg.perCall(20000, func() {
		if e := svc.Acquire(1, 42, lockservice.X, false); e != nil {
			err = e
		}
		if e := svc.Release(1, 42); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}

	// A clerk holding the global lock answers the next acquire locally.
	srv := rpc.NewServer()
	served := lockservice.Serve(srv, lockservice.Config{Lease: lease})
	defer served.Shutdown()
	clerk := lockservice.NewClerk(rpc.DialInProc(srv, nil, nil, nil), lockservice.ClerkConfig{})
	defer clerk.Close()
	v["lockservice.probe.clerk_hit_ns"] = num(cfg.perCall(50000, func() {
		if e := clerk.Acquire(42, lockservice.S, false); e != nil {
			err = e
		}
		clerk.Release(42, lockservice.S)
	}))
	return err
}

const methodEcho = 0x7001

func probeRPC(cfg *runConfig, v map[string]*float64) error {
	srv := rpc.NewServer()
	srv.Register(methodEcho, func(_ uint64, req []byte) ([]byte, error) { return req, nil })
	var err error
	call := func(c rpc.Client, req []byte) func() {
		return func() {
			if _, e := c.Call(methodEcho, req); e != nil {
				err = e
			}
		}
	}
	in := rpc.DialInProc(srv, nil, nil, nil)
	defer in.Close()
	v["rpc.probe.inproc_rtt_ns"] = num(cfg.perCall(50000, call(in, nil)))

	ln, e := rpc.ListenTCP(srv, "127.0.0.1:0")
	if e != nil {
		return e
	}
	defer ln.Close()
	tc, e := rpc.DialTCP(ln.Addr(), nil)
	if e != nil {
		return e
	}
	defer tc.Close()
	v["rpc.probe.tcp_rtt_us"] = num(cfg.perCall(2000, call(tc, nil)) / 1e3)
	v["rpc.probe.tcp_rtt_4k_us"] = num(cfg.perCall(2000, call(tc, make([]byte, 4096))) / 1e3)
	return err
}

// probeCodec seals and opens the batch one 4 KiB append ships: attach the
// staged extent, set the size — through all three nested headers.
func probeCodec(cfg *runConfig, v map[string]*float64) error {
	file, _ := sobj.MakeOID(1<<20, sobj.TypeMFile)
	ops := []fsproto.Op{
		{Code: fsproto.OpAttachExtent, Target: file, Val: 7, Val2: 2 << 20, CoverLock: file.Lock()},
		{Code: fsproto.OpSetSize, Target: file, Val: 8 * 4096, CoverLock: file.Lock()},
	}
	seal := func() []byte {
		return fsproto.EncodeShardFramed(fsproto.ShardHeader{Shard: 1, Epoch: 1},
			fsproto.EncodeTenantFramed(fsproto.TenantHeader{},
				fsproto.EncodeApplyLogSeq(fsproto.SeqHeader{Seq: 9, Epoch: 1}, fsproto.EncodeOps(ops))))
	}
	var sealed []byte
	v["fsproto.probe.seal_ns"] = num(cfg.perCall(50000, func() { sealed = seal() }))

	n := int(10000*cfg.scale) + 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		sealed = seal()
	}
	runtime.ReadMemStats(&m1)
	v["fsproto.probe.seal_allocs"] = num(float64(m1.Mallocs-m0.Mallocs) / float64(n))
	v["fsproto.probe.seal_bytes_ratio"] = num(float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n) / float64(len(fsproto.EncodeOps(ops))))

	var err error
	v["fsproto.probe.open_ns"] = num(cfg.perCall(50000, func() {
		_, p, e := fsproto.DecodeShardFramed(sealed)
		if e == nil {
			_, p, e = fsproto.DecodeTenantFramed(p)
		}
		if e == nil {
			_, p, e = fsproto.DecodeApplyLogSeq(p)
		}
		if e == nil {
			_, e = fsproto.DecodeOps(p)
		}
		if e != nil {
			err = e
		}
	}))
	return err
}

// probeJournal times what one small batch costs the redo log: four 256-byte
// records appended and committed, on the default 4 MiB ring. The checkpoint
// that keeps the ring from filling is outside the timed part.
//
// The second row times the whole cycle the trusted service runs per group
// commit — append, commit, checkpoint — on a 128 KiB ring that wraps about
// 160 times in the probe. The workloads' machines never wrap their ring (see
// journalSize), so this row is where a change to the wrap path shows. The
// ring holds 131 008 bytes, not a multiple of the 264-byte record: no record
// ends exactly on the ring's last byte.
func probeJournal(cfg *runConfig, v map[string]*float64) error {
	ts := &timedSpace{Space: scm.New(scm.Config{Size: 8 << 20})}
	jl, err := journal.Format(ts, 0, 4<<20)
	if err != nil {
		return err
	}
	rec := make([]byte, 256)
	batch := func(jl *journal.Log) error {
		for r := 0; r < 4; r++ {
			if err := jl.Append(rec); err != nil {
				return err
			}
		}
		return jl.Commit()
	}
	n := int(20000*cfg.scale) + 20
	var total int64
	ts.ns = 0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := batch(jl); err != nil {
			return err
		}
		total += time.Since(t0).Nanoseconds()
		inSCM := ts.ns
		if err := jl.Checkpoint(); err != nil {
			return err
		}
		ts.ns = inSCM
	}
	v["journal.probe.commit_us"] = num(float64(total) / float64(n) / 1e3)
	v["journal.probe.commit_scm_share"] = num(float64(ts.ns) / float64(total))

	small, err := journal.Format(scm.New(scm.Config{Size: 1 << 20}), 0, 128<<10)
	if err != nil {
		return err
	}
	v["journal.probe.wrap_cycle_us"] = num(cfg.perCall(4000, func() {
		e := batch(small)
		if e == nil {
			e = small.Checkpoint()
		}
		if e != nil {
			err = e
		}
	}) / 1e3)
	return err
}

func probeObjects(cfg *runConfig, v map[string]*float64) error {
	mem := scm.New(scm.Config{Size: 96 << 20})
	const heap = 64 << 20
	heapStart := (alloc.BitmapBytes(heap) + scm.PageSize - 1) / scm.PageSize * scm.PageSize
	bd, err := alloc.Format(mem, 0, heapStart, heap)
	if err != nil {
		return err
	}
	v["alloc.probe.alloc_free_ns"] = num(cfg.perCall(50000, func() {
		a, e := bd.Alloc(4096)
		if e == nil {
			e = bd.Free(a, 4096)
		}
		if e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}

	// A 1 024-entry collection: insert cost while it fills (growth
	// included), then lookups over what it holds.
	const entries = 1024
	keys := make([][]byte, entries)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("m%07d", i))
	}
	val, _ := sobj.MakeOID(1<<20, sobj.TypeMFile)
	var col *sobj.Collection
	fills := make([]float64, 5)
	for f := range fills {
		if col, err = sobj.CreateCollection(mem, bd, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		for _, k := range keys {
			if err := col.Insert(bd, k, val); err != nil {
				return err
			}
		}
		fills[f] = float64(time.Since(t0).Nanoseconds()) / entries
	}
	v["sobj.probe.col_insert_ns"] = num(median(fills))
	i := 0
	v["sobj.probe.col_lookup_ns"] = num(cfg.perCall(100000, func() {
		if _, e := col.Lookup(keys[i%entries]); e != nil {
			err = e
		}
		i++
	}))
	if err != nil {
		return err
	}

	// A 16 KiB radix mFile with page extents, as PXFS lays files out.
	mf, err := sobj.CreateMFile(mem, bd, 0o644, sobj.DefaultExtentLog)
	if err != nil {
		return err
	}
	for b := uint64(0); b < 4; b++ {
		ext, err := bd.Alloc(4096)
		if err != nil {
			return err
		}
		if err := mf.AttachExtent(bd, b, ext); err != nil {
			return err
		}
	}
	if err := mf.SetSize(16 << 10); err != nil {
		return err
	}
	buf := make([]byte, 16<<10)
	v["sobj.probe.mfile_read_16k_ns"] = num(cfg.perCall(50000, func() {
		if _, e := mf.ReadAt(buf, 0); e != nil {
			err = e
		}
	}))
	v["sobj.probe.mfile_write_4k_ns"] = num(cfg.perCall(50000, func() {
		if _, e := mf.WriteAt(buf[:4096], 4096); e != nil {
			err = e
		}
	}))
	return err
}

// probeMapping reads through a client mapping: pages whose soft-TLB entry
// is already present, then pages that each take a fault into the manager.
func probeMapping(cfg *runConfig, v map[string]*float64) error {
	mem := scm.New(scm.Config{Size: 192 << 20})
	mgr, err := scmmgr.FormatAndAttach(mem, nil)
	if err != nil {
		return err
	}
	const (
		gid   = 7
		pages = 32768 // 128 MiB partition
	)
	owner := scmmgr.NewProcess(0)
	part, err := mgr.CreatePartition(pages*scm.PageSize, 0)
	if err != nil {
		return err
	}
	info, err := mgr.Partition(part)
	if err != nil {
		return err
	}
	if err := mgr.CreateExtent(owner, part, info.Start, pages, scmmgr.MakeACL(gid, scmmgr.RightRead|scmmgr.RightWrite)); err != nil {
		return err
	}
	mp, err := mgr.Mount(scmmgr.NewProcess(1000, gid), part)
	if err != nil {
		return err
	}
	defer mgr.Unmount(mp)
	buf := make([]byte, scm.PageSize)
	read := func(page *uint64, span uint64) func() {
		return func() {
			if e := mp.Read(info.Start+(*page%span)*scm.PageSize, buf); e != nil {
				err = e
			}
			*page++
		}
	}
	var warm uint64
	for i := 0; i < 256; i++ {
		read(&warm, 256)()
	}
	v["scmmgr.probe.read_4k_ns"] = num(cfg.perCall(50000, read(&warm, 256)))
	cold := uint64(256) // every call lands on a page never touched before
	v["scmmgr.probe.first_touch_ns"] = num(cfg.perCall(5000, read(&cold, pages)))
	return err
}

// probeSCM times the persistence primitive itself — store, flush, fence —
// on the volatile arena and on a Volume, where the fence is an msync.
func probeSCM(cfg *runConfig, v map[string]*float64) error {
	var err error
	storeFence := func(m *scm.Memory, p []byte) func() {
		var addr uint64
		return func() {
			e := m.Write(addr, p)
			if e == nil {
				e = m.Flush(addr, len(p))
			}
			if e != nil {
				err = e
			}
			m.Fence()
			addr = (addr + scm.PageSize) % (8 << 20)
		}
	}
	word, page := make([]byte, 8), make([]byte, scm.PageSize)
	v["scm.probe.fence_ns"] = num(cfg.perCall(50000, storeFence(scm.New(scm.Config{Size: 16 << 20}), word)))

	path := filepath.Join(cfg.workDir, fmt.Sprintf("probe-%d.aerie", os.Getpid()))
	defer os.Remove(path)
	vol, e := scm.CreateVolume(path, scm.VolumeOptions{ArenaSize: 16 << 20})
	if e != nil {
		return e
	}
	defer vol.Close()
	v["scm.probe.vol_fence_us"] = num(cfg.perCall(100, storeFence(vol.Mem(), word)) / 1e3)
	v["scm.probe.vol_fence_4k_us"] = num(cfg.perCall(100, storeFence(vol.Mem(), page)) / 1e3)
	if err == nil {
		err = vol.SyncErr()
	}
	return err
}

func probeCore(cfg *runConfig, v map[string]*float64) error {
	boots := make([]float64, 3)
	for i := range boots {
		t0 := time.Now()
		sys, err := core.New(core.Options{ArenaSize: cfg.arenaSize(), Lease: lease})
		if err != nil {
			return err
		}
		boots[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err := sys.Close(); err != nil {
			return err
		}
	}
	sort.Float64s(boots)
	v["core.probe.new_ms"] = num(boots[1])
	return nil
}

// probeFlat covers the FlatFS call kv_shared cannot make at this commit:
// Erase followed by re-Put, on one client with nobody sharing the namespace
// (see README.md, "Limits").
func probeFlat(cfg *runConfig, v map[string]*float64) error {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, Lease: lease})
	if err != nil {
		return err
	}
	defer sys.Close()
	s, err := sys.NewSession(libfs.Config{UID: 1000})
	if err != nil {
		return err
	}
	defer s.Close()
	fs := flatfs.New(s, flatfs.Options{})
	const n = 256
	keys := make([]string, n)
	val := make([]byte, 2048)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
		if err := fs.Put(keys[i], val); err != nil {
			return err
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	i := 0
	v["flatfs.probe.erase_put_us"] = num(cfg.perCall(2048, func() {
		k := keys[i%n]
		e := fs.Erase(k)
		if e == nil {
			e = fs.Put(k, val)
		}
		if i++; e == nil && i%64 == 0 {
			e = fs.Sync()
		}
		if e != nil {
			err = e
		}
	}) / 1e3)
	return err
}
