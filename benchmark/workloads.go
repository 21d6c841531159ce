package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

// worker is one closed-loop client: it sends its next op only when the
// previous one has returned. prepare draws the next round's ops from the
// worker's seeded stream (untimed); execute runs them and records one
// latency per op (timed); audit checks what the round left behind and
// returns the user bytes this worker keeps live (untimed).
type worker interface {
	prepare(ops int)
	execute(rec *recorder)
	audit() (liveBytes int64)
}

// workload describes one named benchmark workload. Sizes are for scale 1;
// the smoke test runs the same code at scale 0.01.
type workload struct {
	name string
	why  string
	spec machineSpec
	// roundOps is the op count of one measured round, per client. A run is a
	// whole number of rounds; the warm-up is 5 % of one round.
	roundOps int
	// maxRounds, when set, ends a run early however fast the build: the
	// rounds one machine may run before its journal ring would wrap.
	maxRounds int
	// build mounts the clients, populates the namespace and returns the
	// workers. verify is the end-of-run check against the generator's model.
	build  func(in *instance) error
	verify func(in *instance)
}

var workloads = []*workload{
	{
		name:     "mail_sync_vol",
		why:      "durable mail delivery on a disk-backed mmap volume over loopback TCP: the only workload where msync, the journal and recovery do most of the work. Journal ring 128 MiB, not the default 4 MiB.",
		spec:     machineSpec{shards: 1, volume: true, tcp: true},
		roundOps: 1000,
		build:    buildMail,
		verify:   verifyMail,
	},
	{
		name:     "stream_pipe_tcp",
		why:      "2 pipelined appenders (Window=8) over loopback TCP, volatile arena: many tiny batches through ship queue, batch codec, RPC framing, group commit; SCM idle. Journal ring 128 MiB, not the default 4 MiB.",
		spec:     machineSpec{shards: 1, tcp: true},
		roundOps: streamCycle,
		// A round puts 0.8 MB of records in the ring (≈ 197 B per append,
		// two clients): 120 rounds leave a quarter of the 128 MiB free.
		maxRounds: 120,
		build:     buildStream,
		verify:    verifyStream,
	},
	{
		name:     "read_fit",
		why:      "the paper's headline path: open+read+close of cached 16 KiB files with no protection crossing, the workload most sensitive to per-op client overhead",
		spec:     machineSpec{shards: 1},
		roundOps: 100000,
		build:    buildRead,
		verify:   func(*instance) {}, // every read is checked as it happens
	},
	{
		name:     "kv_shared",
		why:      "two FlatFS clients on one namespace, Zipf keys, 80 % get / 20 % put: writes beside reads on shared buckets, lock hand-offs and revocations. Journal ring 128 MiB, not the default 4 MiB.",
		spec:     machineSpec{shards: 1},
		roundOps: 20000,
		build:    buildKV,
		verify:   verifyKV,
	},
	{
		name:     "meta_shard",
		why:      "two clients running create/rename/unlink/readdir/mkdir over two shards: half the renames cross shards and run as 2PC; the only real run of the shard set. Journal ring 128 MiB, not the default 4 MiB.",
		spec:     machineSpec{shards: 2},
		roundOps: 4000,
		build:    buildMeta,
		verify:   verifyMeta,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled shrinks a full-size count for reduced-scale runs, never below min.
func (in *instance) scaled(n, min int) int {
	n = int(float64(n) * in.cfg.scale)
	if n < min {
		n = min
	}
	return n
}

// ---- client wrappers: one child span around every call into a layer ----

type pxClient struct {
	fs *pxfs.FS
	s  *libfs.Session
	ct *clientTrace
}

func (in *instance) mountPX(lc libfs.Config, opts pxfs.Options) (*pxClient, error) {
	s, ct, err := in.m.mount(lc)
	if err != nil {
		return nil, err
	}
	c := &pxClient{fs: pxfs.New(s, opts), s: s, ct: ct}
	in.px = append(in.px, c)
	return c, nil
}

func (c *pxClient) create(p string) (*pxfs.File, error) {
	t := c.ct.now()
	f, err := c.fs.Create(p, 0o644)
	c.ct.child(spCreate, t)
	return f, err
}

func (c *pxClient) open(p string) (*pxfs.File, error) {
	t := c.ct.now()
	f, err := c.fs.Open(p, pxfs.O_RDONLY)
	c.ct.child(spOpen, t)
	return f, err
}

func (c *pxClient) read(f *pxfs.File, p []byte) (int, error) {
	t := c.ct.now()
	n, err := f.Read(p)
	c.ct.child(spRead, t)
	return n, err
}

func (c *pxClient) write(f *pxfs.File, p []byte) error {
	t := c.ct.now()
	n, err := f.Write(p)
	c.ct.child(spWrite, t)
	if err == nil && n != len(p) {
		err = fmt.Errorf("short write: %d of %d", n, len(p))
	}
	return err
}

func (c *pxClient) closeFile(f *pxfs.File) error {
	t := c.ct.now()
	err := f.Close()
	c.ct.child(spClose, t)
	return err
}

func (c *pxClient) unlink(p string) error {
	t := c.ct.now()
	err := c.fs.Unlink(p)
	c.ct.child(spUnlink, t)
	return err
}

func (c *pxClient) rename(src, dst string) error {
	t := c.ct.now()
	err := c.fs.Rename(src, dst)
	c.ct.child(spRename, t)
	return err
}

func (c *pxClient) sync() error {
	t := c.ct.now()
	err := c.fs.Sync()
	c.ct.child(spSync, t)
	return err
}

func (c *pxClient) stat(p string) (pxfs.FileInfo, error) {
	t := c.ct.now()
	fi, err := c.fs.Stat(p)
	c.ct.child(spStat, t)
	return fi, err
}

func (c *pxClient) readdir(p string) ([]pxfs.DirEntry, error) {
	t := c.ct.now()
	es, err := c.fs.ReadDir(p)
	c.ct.child(spReaddir, t)
	return es, err
}

func (c *pxClient) mkdir(p string) error {
	t := c.ct.now()
	err := c.fs.Mkdir(p, 0o755)
	c.ct.child(spMkdir, t)
	return err
}

func (c *pxClient) rmdir(p string) error {
	t := c.ct.now()
	err := c.fs.Rmdir(p)
	c.ct.child(spRmdir, t)
	return err
}

func (c *pxClient) rotate() error {
	t := c.ct.now()
	err := c.s.RotateBatch()
	c.ct.child(spRotate, t)
	return err
}

// readFull reads exactly len(p) bytes through the traced read.
func (c *pxClient) readFull(f *pxfs.File, p []byte) error {
	for got := 0; got < len(p); {
		n, err := c.read(f, p[got:])
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}

// putFile is create + write + close, the population and delivery primitive.
func (c *pxClient) putFile(p string, data []byte) error {
	f, err := c.create(p)
	if err != nil {
		return err
	}
	if err := c.write(f, data); err != nil {
		_ = c.closeFile(f)
		return err
	}
	return c.closeFile(f)
}

// populateSync is how many files or keys population writes between Syncs,
// keeping each shipped batch well inside the service's admission limits.
const populateSync = 256

// ---- mail_sync_vol ----

const (
	mailDirs = 64
	mailLag  = 64 // a message is unlinked this many deliveries after its own
	mailMin  = 4 << 10
	mailMax  = 16 << 10
)

type mailOp struct {
	id     uint64
	path   string
	unlink string
}

type mailWorker struct {
	in  *instance
	c   *pxClient
	seq uint64 // messages delivered so far; message ids are 0..seq-1
	ops []mailOp
}

func mailPath(id uint64) string { return fmt.Sprintf("/spool/d%02d/m%07d", id%mailDirs, id) }

func buildMail(in *instance) error {
	c, err := in.mountPX(libfs.Config{Window: 1}, pxfs.Options{NameCache: true})
	if err != nil {
		return err
	}
	if err := c.mkdir("/spool"); err != nil {
		return err
	}
	for d := 0; d < mailDirs; d++ {
		if err := c.mkdir(fmt.Sprintf("/spool/d%02d", d)); err != nil {
			return err
		}
	}
	if err := c.sync(); err != nil {
		return err
	}
	in.workers = []worker{&mailWorker{in: in, c: c}}
	return nil
}

func (w *mailWorker) prepare(ops int) {
	w.ops = w.ops[:0]
	for i := 0; i < ops; i++ {
		id := w.seq + uint64(i)
		op := mailOp{id: id, path: mailPath(id)}
		if id >= mailLag {
			op.unlink = mailPath(id - mailLag)
		}
		w.ops = append(w.ops, op)
	}
}

func (w *mailWorker) deliver(op *mailOp) error {
	ct := w.in.content
	if err := w.c.putFile(op.path, ct.bytes(op.id, 0, ct.size(op.id, 0, mailMin, mailMax))); err != nil {
		return err
	}
	// The message is acknowledged to its sender only once this returns.
	if err := w.c.sync(); err != nil {
		return err
	}
	if op.unlink != "" {
		return w.c.unlink(op.unlink)
	}
	return nil
}

func (w *mailWorker) execute(rec *recorder) {
	for i := range w.ops {
		t0 := rec.begin(w.c.ct)
		err := w.deliver(&w.ops[i])
		rec.end(w.c.ct, t0)
		w.in.count(err)
		w.seq++
	}
	// The last unlinks are acknowledged by the round's closing Sync.
	w.in.count(w.c.sync())
}

func (w *mailWorker) live() (first uint64) {
	if w.seq > mailLag {
		return w.seq - mailLag
	}
	return 0
}

func (w *mailWorker) audit() int64 {
	var n int64
	for id := w.live(); id < w.seq; id++ {
		n += int64(w.in.content.size(id, 0, mailMin, mailMax) + len(mailPath(id)))
	}
	return n
}

// verifyMail is the durability check: drop the mapping without a clean
// close, recover the volume file with core.Open, and demand every
// acknowledged message byte for byte, every acknowledged unlink, and a
// clean fsck.
func verifyMail(in *instance) {
	w := in.workers[0].(*mailWorker)
	in.m.abandon()
	t0 := time.Now()
	if err := in.m.reopen(); err != nil {
		in.fail("reopen: %v", err)
		return
	}
	in.openNS = time.Since(t0).Nanoseconds()
	t0 = time.Now()
	rep, err := in.m.sys.Set.Fsck(false)
	in.fsckNS = time.Since(t0).Nanoseconds()
	in.tally.attempted.Add(1)
	if err != nil || rep.LostBlocks != 0 || rep.LeakedBlocks != 0 {
		in.fail("fsck after reopen: %v %v", rep, err)
	}
	s := in.freshSession()
	if s == nil {
		return
	}
	defer s.Close()
	c := &pxClient{fs: pxfs.New(s, pxfs.Options{}), s: s}
	want := make([]map[string]uint64, mailDirs)
	for d := range want {
		want[d] = map[string]uint64{}
	}
	for id := w.live(); id < w.seq; id++ {
		want[id%mailDirs][fmt.Sprintf("m%07d", id)] = id
	}
	buf := make([]byte, mailMax)
	for d := 0; d < mailDirs; d++ {
		dir := fmt.Sprintf("/spool/d%02d", d)
		es, err := c.readdir(dir)
		in.tally.attempted.Add(1)
		if err != nil || len(es) != len(want[d]) {
			in.fail("%s after reopen: %d entries, want %d (%v)", dir, len(es), len(want[d]), err)
			continue
		}
		for _, e := range es {
			id, ok := want[d][e.Name]
			in.tally.attempted.Add(1)
			if !ok {
				in.fail("%s/%s survived its acknowledged unlink", dir, e.Name)
				continue
			}
			in.checkFile(c, dir+"/"+e.Name, buf, id, 0, in.content.size(id, 0, mailMin, mailMax))
		}
	}
}

// freshSession mounts a client that has seen none of the run, so an
// end-of-run check reads what the service holds and not a client's cache.
// A failed mount is recorded as a failed check and returns nil.
func (in *instance) freshSession() *libfs.Session {
	s, err := in.m.sys.NewSession(libfs.Config{UID: 2000})
	if err != nil {
		in.fail("verification mount: %v", err)
		return nil
	}
	return s
}

// checkFile reads path whole and compares it with (name, version).
func (in *instance) checkFile(c *pxClient, path string, buf []byte, name uint64, version uint32, size int) {
	f, err := c.open(path)
	if err != nil {
		in.fail("open %s: %v", path, err)
		return
	}
	defer c.closeFile(f)
	if fsz, err := f.Size(); err != nil || fsz != uint64(size) {
		in.fail("%s: size %d, want %d (%v)", path, fsz, size, err)
		return
	}
	if err := c.readFull(f, buf[:size]); err != nil {
		in.fail("read %s: %v", path, err)
		return
	}
	if !in.expect.check(buf[:size], name, version) {
		in.fail("%s: contents differ from the model", path)
	}
}

// ---- stream_pipe_tcp ----

const (
	streamCycle = 2048 // appends to one log: one round
	streamBlock = 4 << 10
)

// streamWorker appends to one log per round. A round opens by dropping the
// previous round's log and creating the next (one op), appends its blocks
// and closes with a Sync; the audit between rounds reads the whole log back,
// so no log is unlinked before every block of it has been checked.
type streamWorker struct {
	in       *instance
	c        *pxClient
	id       int
	path     string
	f        *pxfs.File
	cycle    uint32 // generation of the log file; part of every block's name
	appended int    // blocks in the current log
	ops      int
	buf      []byte

	blocksAppended, blocksChecked int64 // over the worker's life
}

func (w *streamWorker) name() uint64 { return uint64(w.id+1)<<40 | uint64(w.cycle) }

func buildStream(in *instance) error {
	for i := 0; i < 2; i++ {
		c, err := in.mountPX(libfs.Config{Window: 8}, pxfs.Options{NameCache: true})
		if err != nil {
			return err
		}
		// A directory per client: the appenders share the service, the
		// group-commit leader and the lock service, but no lock.
		dir := fmt.Sprintf("/logs%d", i)
		if err := c.mkdir(dir); err != nil {
			return err
		}
		w := &streamWorker{in: in, c: c, id: i, path: dir + "/stream.log", buf: make([]byte, streamBlock)}
		if w.f, err = c.create(w.path); err != nil {
			return err
		}
		if err := c.sync(); err != nil {
			return err
		}
		in.workers = append(in.workers, w)
	}
	return nil
}

func (w *streamWorker) prepare(ops int) { w.ops = ops }

// recycle drops the log, which the previous round's closing Sync made
// durable and its audit read back, and starts the next one.
func (w *streamWorker) recycle() error {
	if err := w.c.closeFile(w.f); err != nil {
		return err
	}
	if err := w.c.unlink(w.path); err != nil {
		return err
	}
	w.cycle++
	w.appended = 0
	f, err := w.c.create(w.path)
	if err != nil {
		return err
	}
	w.f = f
	return nil
}

func (w *streamWorker) appendBlock() error {
	if err := w.c.write(w.f, w.in.content.bytes(w.name(), uint32(w.appended), streamBlock)); err != nil {
		return err
	}
	w.appended++
	w.blocksAppended++
	return w.c.rotate()
}

func (w *streamWorker) execute(rec *recorder) {
	t0 := rec.begin(w.c.ct)
	err := w.recycle()
	rec.end(w.c.ct, t0)
	w.in.count(err)
	for i := 0; i < w.ops; i++ {
		t0 := rec.begin(w.c.ct)
		err := w.appendBlock()
		rec.end(w.c.ct, t0)
		w.in.count(err)
	}
	w.in.count(w.c.sync())
}

// audit reads the round's log back in full.
func (w *streamWorker) audit() int64 {
	w.in.tally.attempted.Add(1)
	size, err := w.f.Size()
	if err != nil || size != uint64(w.appended)*streamBlock {
		w.in.fail("%s: size %d after %d appends (%v)", w.path, size, w.appended, err)
		return 0
	}
	for k := 0; k < w.appended; k++ {
		if _, err := w.f.ReadAt(w.buf, int64(k)*streamBlock); err != nil {
			w.in.fail("%s: read block %d: %v", w.path, k, err)
			return 0
		}
		if !w.in.expect.check(w.buf, w.name(), uint32(k)) {
			w.in.fail("%s: block %d differs from the model", w.path, k)
			return 0
		}
		w.blocksChecked++
	}
	return int64(size) + int64(len(w.path))
}

// verifyStream demands that the audits read back every block the run
// appended: a log dropped unread would make them differ.
func verifyStream(in *instance) {
	for _, wk := range in.workers {
		w := wk.(*streamWorker)
		in.tally.attempted.Add(1)
		if w.blocksChecked != w.blocksAppended {
			in.fail("%s: %d blocks appended, %d read back", w.path, w.blocksAppended, w.blocksChecked)
		}
	}
}

// ---- read_fit ----

const (
	readFiles = 4096 // × 16 KiB in 64 directories; fits the 65 536-entry name cache
	readDirs  = 64
	readSize  = 16 << 10
)

type readWorker struct {
	in     *instance
	c      *pxClient
	rng    *rand.Rand
	paths  []string
	script []uint32
	buf    []byte
	n      int // ops done; every 8th is a Stat
}

func buildRead(in *instance) error {
	c, err := in.mountPX(libfs.Config{Window: 1}, pxfs.Options{NameCache: true})
	if err != nil {
		return err
	}
	w := &readWorker{in: in, c: c, rng: in.rng(0), buf: make([]byte, readSize)}
	files := in.scaled(readFiles, readDirs)
	for d := 0; d < readDirs; d++ {
		if err := c.mkdir(fmt.Sprintf("/d%02d", d)); err != nil {
			return err
		}
	}
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("/d%02d/f%04d", i%readDirs, i)
		if err := c.putFile(p, in.content.bytes(uint64(i), 0, readSize)); err != nil {
			return err
		}
		if i%populateSync == populateSync-1 {
			if err := c.sync(); err != nil {
				return err
			}
		}
		w.paths = append(w.paths, p)
	}
	if err := c.sync(); err != nil {
		return err
	}
	in.workers = []worker{w}
	return nil
}

func (w *readWorker) prepare(ops int) {
	w.script = w.script[:0]
	for i := 0; i < ops; i++ {
		w.script = append(w.script, uint32(w.rng.Intn(len(w.paths))))
	}
}

func (w *readWorker) readOne(i uint32) error {
	f, err := w.c.open(w.paths[i])
	if err != nil {
		return err
	}
	err = w.c.readFull(f, w.buf)
	if cerr := w.c.closeFile(f); err == nil {
		err = cerr
	}
	return err
}

var errMismatch = errors.New("contents differ from the model")

func (w *readWorker) execute(rec *recorder) {
	for _, i := range w.script {
		w.n++
		t0 := rec.begin(w.c.ct)
		var err error
		if w.n%8 == 0 {
			var fi pxfs.FileInfo
			if fi, err = w.c.stat(w.paths[i]); err == nil && fi.Size != readSize {
				err = fmt.Errorf("stat %s: size %d", w.paths[i], fi.Size)
			}
			rec.end(w.c.ct, t0)
		} else {
			err = w.readOne(i)
			rec.end(w.c.ct, t0)
			if err == nil && !w.in.expect.check(w.buf, uint64(i), 0) {
				err = fmt.Errorf("%s: %w", w.paths[i], errMismatch)
			}
		}
		w.in.count(err)
	}
	w.in.count(w.c.sync())
}

func (w *readWorker) audit() int64 {
	return int64(len(w.paths)) * (readSize + int64(len(w.paths[0])))
}

// ---- kv_shared ----

const (
	kvKeys   = 20000
	kvMin    = 1 << 10
	kvMax    = 4 << 10
	kvSyncAt = 256 // writes between Syncs
	kvTag    = 1 << 48
)

type kvOp struct {
	put bool
	key uint32
}

// kvModel is what both clients agree the store holds. Each key has one
// writer (the client whose number matches the key's parity), so its version
// is exact, and is read by the other client, which brackets its Get with two
// loads and accepts any version the writer could have made visible in
// between. A client never reads a key it writes: see README.md, "Limits".
type kvModel struct {
	keys    []string
	version []atomic.Uint32
}

func (m *kvModel) name(k uint32) uint64 { return kvTag | uint64(k) }

type kvWorker struct {
	in     *instance
	fs     *flatfs.FS
	ct     *clientTrace
	id     int
	rng    *rand.Rand
	zipf   *rand.Zipf
	model  *kvModel
	script []kvOp
	buf    []byte
	writes int
}

func buildKV(in *instance) error {
	n := in.scaled(kvKeys, 64) &^ 1
	model := &kvModel{keys: make([]string, n), version: make([]atomic.Uint32, n)}
	for k := range model.keys {
		model.keys[k] = fmt.Sprintf("key-%06d", k)
	}
	for i := 0; i < 2; i++ {
		s, ct, err := in.m.mount(libfs.Config{Window: 1})
		if err != nil {
			return err
		}
		rng := in.rng(i)
		w := &kvWorker{in: in, fs: flatfs.New(s, flatfs.Options{}), ct: ct, id: i, rng: rng,
			zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), model: model, buf: make([]byte, kvMax)}
		// Each client populates the keys it owns.
		for k := i; k < n; k += 2 {
			if err := w.put(uint32(k)); err != nil {
				return err
			}
		}
		if err := w.fs.Sync(); err != nil {
			return err
		}
		in.workers = append(in.workers, w)
	}
	return nil
}

// put writes key k's next version and publishes it to the model.
func (w *kvWorker) put(k uint32) error {
	ct, name := w.in.content, w.model.name(k)
	v := w.model.version[k].Load() + 1
	t := w.ct.now()
	err := w.fs.Put(w.model.keys[k], ct.bytes(name, v, ct.size(name, v, kvMin, kvMax)))
	w.ct.child(spPut, t)
	if err != nil {
		return err
	}
	w.model.version[k].Store(v)
	if w.writes++; w.writes%kvSyncAt == 0 {
		return w.fs.Sync()
	}
	return nil
}

func (w *kvWorker) prepare(ops int) {
	w.script = w.script[:0]
	for i := 0; i < ops; i++ {
		// The Zipf draw picks a pair of keys; a write goes to the one this
		// client owns, a read to the one the other client owns.
		op := kvOp{key: uint32(w.zipf.Uint64())&^1 | uint32(1-w.id)}
		if w.rng.Intn(100) >= 80 {
			op.put = true
			op.key ^= 1
		}
		w.script = append(w.script, op)
	}
}

func (w *kvWorker) get(k uint32) error {
	v0 := w.model.version[k].Load()
	t := w.ct.now()
	got, err := w.fs.GetInto(w.model.keys[k], w.buf)
	w.ct.child(spGet, t)
	if err != nil {
		return err
	}
	v1 := w.model.version[k].Load()
	name := w.model.name(k)
	for v := v0; v <= v1+1; v++ {
		if len(got) == w.in.expect.size(name, v, kvMin, kvMax) && w.in.expect.check(got, name, v) {
			return nil
		}
	}
	return fmt.Errorf("%s: %w (versions %d..%d)", w.model.keys[k], errMismatch, v0, v1+1)
}

func (w *kvWorker) execute(rec *recorder) {
	for _, op := range w.script {
		t0 := rec.begin(w.ct)
		var err error
		if op.put {
			err = w.put(op.key)
		} else {
			err = w.get(op.key)
		}
		rec.end(w.ct, t0)
		w.in.count(err)
	}
	w.in.count(w.fs.Sync())
}

func (w *kvWorker) audit() int64 {
	var n int64
	for k := w.id; k < len(w.model.keys); k += 2 {
		name := w.model.name(uint32(k))
		n += int64(w.in.content.size(name, w.model.version[k].Load(), kvMin, kvMax) + len(w.model.keys[k]))
	}
	return n
}

// verifyKV reads every key through a fresh client and demands the model's
// final version.
func verifyKV(in *instance) {
	s := in.freshSession()
	if s == nil {
		return
	}
	defer s.Close()
	model := in.workers[0].(*kvWorker).model
	v := &kvWorker{in: in, fs: flatfs.New(s, flatfs.Options{}), model: model, buf: make([]byte, kvMax)}
	for k := range model.keys {
		in.count(v.get(uint32(k)))
	}
}

// ---- meta_shard ----

const (
	metaFan      = 8    // /cN/aX/bY: 8 × 8 leaf directories per client
	metaLive     = 2000 // files a client keeps live, ± 10 %
	metaSubdirs  = 32   // third-level directories a client keeps
	metaSyncEach = 32
)

const (
	metaCreate = iota
	metaRename
	metaUnlink
	metaReaddir
	metaMkdir
	metaRmdir
)

type metaOp struct {
	kind   uint8
	a, b   string   // path, and rename destination
	expect []string // readdir: the sorted listing the model holds at this op
}

type metaFile struct {
	dir  int
	name string
}

type metaWorker struct {
	in      *instance
	c       *pxClient
	id      int
	rng     *rand.Rand
	dirs    []string              // leaf directory paths
	names   []map[string]struct{} // per leaf directory: what it holds
	files   []metaFile            // live files, for uniform picks
	subdirs []metaFile            // live third-level directories, oldest first
	next    int                   // name counter
	live    int                   // target live-file count
	script  []metaOp
	done    int
}

func buildMeta(in *instance) error {
	for i := 0; i < 2; i++ {
		c, err := in.mountPX(libfs.Config{Window: 1}, pxfs.Options{NameCache: true})
		if err != nil {
			return err
		}
		w := &metaWorker{in: in, c: c, id: i, rng: in.rng(i), live: in.scaled(metaLive, 64)}
		root := fmt.Sprintf("/c%d", i)
		if err := c.mkdir(root); err != nil {
			return err
		}
		for x := 0; x < metaFan; x++ {
			a := fmt.Sprintf("%s/a%d", root, x)
			if err := c.mkdir(a); err != nil {
				return err
			}
			for y := 0; y < metaFan; y++ {
				b := fmt.Sprintf("%s/b%d", a, y)
				if err := c.mkdir(b); err != nil {
					return err
				}
				w.dirs = append(w.dirs, b)
				w.names = append(w.names, map[string]struct{}{})
			}
		}
		// Populate to the live target with the generator's own creates.
		w.prepareKind(w.live, metaCreate)
		for j := range w.script {
			if err := w.do(&w.script[j]); err != nil {
				return err
			}
		}
		if err := c.sync(); err != nil {
			return err
		}
		in.workers = append(in.workers, w)
	}
	return nil
}

func (w *metaWorker) newName(prefix string) string {
	w.next++
	return fmt.Sprintf("%s%d", prefix, w.next)
}

// gen appends one op of the given kind and applies it to the model. The
// generator only emits ops that must succeed on the modelled namespace.
func (w *metaWorker) gen(kind int) {
	switch kind {
	case metaCreate:
		d := w.rng.Intn(len(w.dirs))
		n := w.newName("f")
		w.names[d][n] = struct{}{}
		w.files = append(w.files, metaFile{d, n})
		w.script = append(w.script, metaOp{kind: metaCreate, a: w.dirs[d] + "/" + n})
	case metaRename:
		i := w.rng.Intn(len(w.files))
		f := w.files[i]
		d := (f.dir + 1 + w.rng.Intn(len(w.dirs)-1)) % len(w.dirs) // always another directory
		n := w.newName("f")
		delete(w.names[f.dir], f.name)
		w.names[d][n] = struct{}{}
		w.files[i] = metaFile{d, n}
		w.script = append(w.script, metaOp{kind: metaRename, a: w.dirs[f.dir] + "/" + f.name, b: w.dirs[d] + "/" + n})
	case metaUnlink:
		i := w.rng.Intn(len(w.files))
		f := w.files[i]
		delete(w.names[f.dir], f.name)
		w.files[i] = w.files[len(w.files)-1]
		w.files = w.files[:len(w.files)-1]
		w.script = append(w.script, metaOp{kind: metaUnlink, a: w.dirs[f.dir] + "/" + f.name})
	case metaReaddir:
		d := w.rng.Intn(len(w.dirs))
		w.script = append(w.script, metaOp{kind: metaReaddir, a: w.dirs[d], expect: w.listing(d)})
	case metaMkdir:
		d := w.rng.Intn(len(w.dirs))
		n := w.newName("d")
		w.names[d][n] = struct{}{}
		w.subdirs = append(w.subdirs, metaFile{d, n})
		w.script = append(w.script, metaOp{kind: metaMkdir, a: w.dirs[d] + "/" + n})
	case metaRmdir:
		s := w.subdirs[0]
		w.subdirs = w.subdirs[1:]
		delete(w.names[s.dir], s.name)
		w.script = append(w.script, metaOp{kind: metaRmdir, a: w.dirs[s.dir] + "/" + s.name})
	}
}

func (w *metaWorker) listing(d int) []string {
	out := make([]string, 0, len(w.names[d]))
	for n := range w.names[d] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (w *metaWorker) prepareKind(ops, kind int) {
	w.script = w.script[:0]
	for i := 0; i < ops; i++ {
		w.gen(kind)
	}
}

// prepare draws the mix: 30 % create, 30 % rename, 25 % unlink, 5 % each
// readdir, mkdir, rmdir — steered so the live set stays within 10 % of its
// target and the third-level directories near theirs.
func (w *metaWorker) prepare(ops int) {
	w.script = w.script[:0]
	for i := 0; i < ops; i++ {
		r := w.rng.Intn(100)
		kind := metaCreate
		switch {
		case r < 30:
			kind = metaCreate
		case r < 60:
			kind = metaRename
		case r < 85:
			kind = metaUnlink
		case r < 90:
			kind = metaReaddir
		case r < 95:
			kind = metaMkdir
		default:
			kind = metaRmdir
		}
		switch {
		case kind == metaCreate && len(w.files) > w.live*11/10:
			kind = metaUnlink
		case kind == metaUnlink && len(w.files) < w.live*9/10:
			kind = metaCreate
		case kind == metaRmdir && len(w.subdirs) == 0:
			kind = metaMkdir
		case kind == metaMkdir && len(w.subdirs) >= metaSubdirs:
			kind = metaRmdir
		}
		w.gen(kind)
	}
}

func (w *metaWorker) do(op *metaOp) error {
	switch op.kind {
	case metaCreate:
		f, err := w.c.create(op.a)
		if err != nil {
			return err
		}
		return w.c.closeFile(f)
	case metaRename:
		return w.c.rename(op.a, op.b)
	case metaUnlink:
		return w.c.unlink(op.a)
	case metaMkdir:
		return w.c.mkdir(op.a)
	case metaRmdir:
		return w.c.rmdir(op.a)
	}
	es, err := w.c.readdir(op.a)
	if err != nil {
		return err
	}
	return sameListing(op.a, es, op.expect)
}

func sameListing(dir string, got []pxfs.DirEntry, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("readdir %s: %d entries, model has %d: %w", dir, len(got), len(want), errMismatch)
	}
	for i := range got { // both sorted by name
		if got[i].Name != want[i] {
			return fmt.Errorf("readdir %s: entry %q, model has %q: %w", dir, got[i].Name, want[i], errMismatch)
		}
	}
	return nil
}

func (w *metaWorker) execute(rec *recorder) {
	for i := range w.script {
		t0 := rec.begin(w.c.ct)
		err := w.do(&w.script[i])
		if w.done++; err == nil && w.done%metaSyncEach == 0 {
			err = w.c.sync()
		}
		rec.end(w.c.ct, t0)
		w.in.count(err)
	}
	w.in.count(w.c.sync())
}

// audit counts names as this workload's user bytes: its files are empty.
func (w *metaWorker) audit() int64 {
	var n int64
	for d := range w.names {
		n += int64(len(w.dirs[d]))
		for name := range w.names[d] {
			n += int64(len(name))
		}
	}
	return n
}

// verifyMeta lists every leaf directory through a fresh client and compares
// the namespace the service holds with the generator's model.
func verifyMeta(in *instance) {
	s := in.freshSession()
	if s == nil {
		return
	}
	defer s.Close()
	c := &pxClient{fs: pxfs.New(s, pxfs.Options{}), s: s}
	for _, wk := range in.workers {
		w := wk.(*metaWorker)
		for d := range w.dirs {
			es, err := c.readdir(w.dirs[d])
			if err == nil {
				err = sameListing(w.dirs[d], es, w.listing(d))
			}
			in.count(err)
		}
	}
}
