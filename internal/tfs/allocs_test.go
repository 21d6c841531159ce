package tfs

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/race"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// TestAllocPins: a window batch passes the sequence gate without a heap
// allocation, whether it arrives in order or parks until its predecessor's
// exit releases it: waiters park on the gate's condition, and the gate's one
// gap timer, made by its first wait, is re-armed rather than remade. Each
// parked wait made a timer and a channel before. A journal record is
// encoded into the service's reused buffer. A warm batch crosses the whole
// trusted path — decode, plan, reserve, stage, commit, apply, release —
// without a heap allocation: a create-and-link, an unlink, and a
// cross-shard rename run as a two-phase transaction.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	g := testGate(seqGapTimeout)
	seq := uint64(0)
	got := testing.AllocsPerRun(100, func() {
		seq++
		if err := g.enter(seqHdr(seq)); err != nil {
			t.Fatal(err)
		}
		g.exit(seqHdr(seq), nil)
	})
	if got != 0 {
		t.Errorf("seqGate enter+exit in order: %v allocs/op, want 0", got)
	}

	// A helper goroutine parks batch seq+1 at the gate, then this one runs
	// seq through it, whose exit releases the parked batch.
	park, done := make(chan uint64), make(chan error)
	defer close(park)
	go func() {
		for seq := range park {
			err := g.enter(seqHdr(seq))
			if err == nil {
				g.exit(seqHdr(seq), nil)
			}
			done <- err
		}
	}()
	got = testing.AllocsPerRun(100, func() {
		seq += 2
		park <- seq
		for parkedWaiters(g) == 0 {
			runtime.Gosched()
		}
		pass(t, g, seq-1)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("seqGate parked wait released by its predecessor: %v allocs/op, want 0", got)
	}

	s := &Service{}
	acts := []action{{code: jAttach, oid: 1 << 12, a: 1, b: 2 << 12}, {code: jSetSize, oid: 1 << 12, a: 4096}}
	got = testing.AllocsPerRun(100, func() {
		if len(s.recordFor(acts)) == 0 {
			t.Fatal("empty record")
		}
	})
	if got != 0 {
		t.Errorf("recordFor: %v allocs/op, want 0", got)
	}

	t.Run("batch", testBatchAllocs)
	t.Run("2pc", testTxAllocs)
}

// mallocsPer runs fn(i) for i in [0, n) and returns the heap allocations
// per call. Like testing.AllocsPerRun, on one P; unlike it, the caller
// prepares each call's input (staged objects, encoded payloads) outside
// the count.
func mallocsPer(n int, fn func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// testBatchAllocs ships one-shard window batches through ApplyBatch: each
// creates a staged file and links it into the root, or unlinks one. The
// unlinks free the files' extents and tombstone the root's entries, the
// creates consume pre-allocations — so the tracking collection and the
// root both pass through tombstone-GC rehashes while the counts run.
// Uncounted rounds of the same creates and unlinks grow every recycled
// buffer, and the allocator's free lists, to the size the counted round
// needs. They also fill the runtime's type-assertion caches of the
// interface assertions left on the path: the runtime fills a site's cache,
// an allocation, on a random one in 1 024 of its misses, so 16 rounds of
// 512 batches leave a site called once per batch uncached with odds of e^-8
// rather than the e^-1 of two rounds.
func testBatchAllocs(t *testing.T) {
	const client, n, warmRounds = 1, 256, 16
	set, _ := newSet(t, 1)
	s := set.Shard(0)
	root := s.Root()
	if err := set.Locks.Acquire(client, root.Lock(), lockservice.X, false); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	ship := func(ops ...fsproto.Op) []byte {
		seq++
		h := fsproto.BatchHeader{RoutingEpoch: set.RoutingEpoch(), Seq: seq, Epoch: 1, Opener: seq == 1}
		return fsproto.AppendBatch(nil, h, ops)
	}
	var keys [n][]byte
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("file-%04d", i))
	}
	// round stages n files and encodes the batches that link them into the
	// root and unlink them again.
	round := func() (creates, unlinks [n][]byte) {
		var files [n]sobj.OID
		for i := range creates {
			f, err := sobj.CreateMFile(s.mem, preallocPool{s, client}, 0o644, sobj.DefaultExtentLog)
			if err != nil {
				t.Fatal(err)
			}
			files[i] = f.OID()
			creates[i] = ship(fsproto.Op{Code: fsproto.OpCreateObject, Target: f.OID()},
				fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: keys[i], Child: f.OID(), CoverLock: root.Lock()})
		}
		for i := range unlinks {
			unlinks[i] = ship(fsproto.Op{Code: fsproto.OpRemove, Target: root, Key: keys[i], Child: files[i], CoverLock: root.Lock()})
		}
		return creates, unlinks
	}
	apply := func(payload []byte) {
		if err := set.ApplyBatch(client, payload); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < warmRounds; r++ {
		creates, unlinks := round()
		for i := range creates {
			apply(creates[i])
		}
		for i := range unlinks {
			apply(unlinks[i])
		}
	}
	creates, unlinks := round()
	if got := mallocsPer(n, func(i int) { apply(creates[i]) }); got != 0 {
		t.Errorf("create+link batch: %v allocs/op, want 0", got)
	}
	if got := mallocsPer(n, func(i int) { apply(unlinks[i]) }); got != 0 {
		t.Errorf("unlink batch: %v allocs/op, want 0", got)
	}
	if rep, err := set.Fsck(false); err != nil || rep.LeakedBlocks+rep.LostBlocks != 0 {
		t.Fatalf("fsck after the batches: %+v, %v", rep, err)
	}
}

// testTxAllocs renames a file back and forth between the root (shard 0) and
// a directory on shard 1: every rename is a two-phase transaction with a
// prepare on one shard and the commit on the other. The long warm-up fills
// the runtime's type-assertion caches, as in testBatchAllocs.
func testTxAllocs(t *testing.T) {
	const client, warm, n = 1, 8192, 128
	set, _ := newSet(t, 2)
	s0, s1 := set.Shard(0), set.Shard(1)
	root := s0.Root()
	tx := func(ops ...fsproto.Op) {
		t.Helper()
		if err := set.txApply(client, fsproto.EncodeOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	dir, err := sobj.CreateCollection(s1.mem, preallocPool{s1, client}, 0o755)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sobj.CreateMFile(s0.mem, preallocPool{s0, client}, 0o644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	for _, lock := range []uint64{root.Lock(), dir.OID().Lock()} {
		if err := set.Locks.Acquire(client, lock, lockservice.X, false); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("f")
	tx(fsproto.Op{Code: fsproto.OpCreateObject, Target: dir.OID()},
		fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: []byte("d"), Child: dir.OID(), CoverLock: root.Lock()},
		fsproto.Op{Code: fsproto.OpCreateObject, Target: f.OID()},
		fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: key, Child: f.OID(), CoverLock: root.Lock()})
	there := fsproto.EncodeOps([]fsproto.Op{{Code: fsproto.OpRename, Target: root, Key: key,
		Dir2: dir.OID(), Key2: key, CoverLock: root.Lock(), Cover2: dir.OID().Lock()}})
	back := fsproto.EncodeOps([]fsproto.Op{{Code: fsproto.OpRename, Target: dir.OID(), Key: key,
		Dir2: root, Key2: key, CoverLock: dir.OID().Lock(), Cover2: root.Lock()}})
	rename := func(i int) {
		p := there
		if i%2 == 1 {
			p = back
		}
		if err := set.txApply(client, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		rename(i)
	}
	if got := mallocsPer(n, rename); got != 0 {
		t.Errorf("cross-shard rename: %v allocs/op, want 0", got)
	}
	// Each rename applies on both shards (a prepare and its resolve on
	// one, the commit on the other).
	if a0, a1 := s0.BatchesApplied.Load(), s1.BatchesApplied.Load(); a0 < warm+n || a1 < warm+n {
		t.Fatalf("batches applied per shard %d, %d after %d renames", a0, a1, warm+n)
	}
}
