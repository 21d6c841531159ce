package tfs

import (
	"errors"
	"fmt"
	"testing"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// TestHostileCoverClaims ships hand-built batches whose cover claims a
// client holding exactly its locks could not make: a FlatFS insert under
// the bucket lock of another key, one without the collection's intent
// lock, and a hierarchical cover that is not an ancestor of the target.
// Each batch also stages a create. The service must refuse each batch with
// ErrLockCover and apply none of it: the key stays unbound, the create's
// pre-allocation stays unconsumed, and the volume checks clean.
func TestHostileCoverClaims(t *testing.T) {
	set, _ := newSet(t, 1)
	s := set.Shard(0)
	root := s.Root()
	const admin, liar = 100, 7
	acquire := func(client, id uint64, class lockservice.Class, hier bool) {
		t.Helper()
		if err := set.Locks.Acquire(client, id, class, hier); err != nil {
			t.Fatal(err)
		}
	}
	acquire(admin, root.Lock(), lockservice.X, false)
	var setup []fsproto.Op
	dirs := make([]sobj.OID, 3)
	for i := range dirs {
		d, err := sobj.CreateCollection(s.mem, preallocPool{s, admin}, 0o755)
		if err != nil {
			t.Fatal(err)
		}
		dirs[i] = d.OID()
		setup = append(setup, fsproto.Op{Code: fsproto.OpCreateObject, Target: d.OID()},
			fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: []byte(fmt.Sprintf("d%d", i)), Child: d.OID(), CoverLock: root.Lock()})
	}
	h := fsproto.BatchHeader{RoutingEpoch: set.RoutingEpoch(), Seq: 1, Epoch: 1, Opener: true}
	if err := set.ApplyBatch(admin, fsproto.AppendBatch(nil, h, setup)); err != nil {
		t.Fatal(err)
	}
	d1, d2, flat := dirs[0], dirs[1], dirs[2]

	var col sobj.Collection
	if err := col.Open(s.mem, flat); err != nil {
		t.Fatal(err)
	}
	k1 := []byte("k1")
	b1, err := col.BucketLock(k1)
	if err != nil {
		t.Fatal(err)
	}
	var k2 []byte // a key in another bucket
	for i := 2; k2 == nil; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if b, err := col.BucketLock(k); err != nil {
			t.Fatal(err)
		} else if b != b1 {
			k2 = k
		}
	}
	acquire(liar, b1, lockservice.X, false)
	acquire(liar, d1.Lock(), lockservice.X, true)

	cases := []struct {
		name  string
		setup func()
		dir   sobj.OID
		key   []byte
		cover uint64
	}{
		{"no intent lock on the collection", nil, flat, k1, b1},
		{"the bucket lock of another key", func() { acquire(liar, flat.Lock(), lockservice.IX, false) }, flat, k2, b1},
		{"a hierarchical cover that is not an ancestor", nil, d2, []byte("x"), d1.Lock()},
	}
	for i, c := range cases {
		if c.setup != nil {
			c.setup()
		}
		f, err := sobj.CreateMFile(s.mem, preallocPool{s, liar}, 0o644, sobj.DefaultExtentLog)
		if err != nil {
			t.Fatal(err)
		}
		ops := []fsproto.Op{{Code: fsproto.OpCreateObject, Target: f.OID()},
			{Code: fsproto.OpInsert, Target: c.dir, Key: c.key, Child: f.OID(), CoverLock: c.cover, Val: 1}}
		// Each rejection poisons the liar's epoch, so every batch opens a
		// new one.
		h := fsproto.BatchHeader{RoutingEpoch: set.RoutingEpoch(), Seq: 1, Epoch: uint32(i + 1), Opener: true}
		if err := set.ApplyBatch(liar, fsproto.AppendBatch(nil, h, ops)); !errors.Is(err, ErrLockCover) {
			t.Fatalf("%s: %v, want ErrLockCover", c.name, err)
		}
		var dir sobj.Collection
		if err := dir.Open(s.mem, c.dir); err != nil {
			t.Fatal(err)
		}
		if v, err := dir.Lookup(c.key); !errors.Is(err, sobj.ErrNotFound) {
			t.Fatalf("%s: key %q bound to %v (%v) after the refusal", c.name, c.key, v, err)
		}
		if _, ok := s.preallocSize(liar, f.OID().Addr()); !ok {
			t.Fatalf("%s: the refused batch consumed its create's pre-allocation", c.name)
		}
		if rep, err := set.Fsck(false); err != nil || rep.LeakedBlocks+rep.LostBlocks != 0 {
			t.Fatalf("%s: fsck: %+v, %v", c.name, rep, err)
		}
	}
}

// TestHostileAttachOverMappedBlock ships hand-built attaches to blocks that
// are already mapped: in SCM, and earlier in the same batch. Either would
// leave one of the two extents reachable from nothing, so the service must
// refuse the batch with ErrValidation, apply none of it, leave its
// pre-allocations unconsumed and check clean. So must it refuse attaches
// that could only fail at apply, after the batch committed: to a
// single-extent file, and past the radix tree's reach. An attach to a block
// a truncate earlier in the batch cut away is the client's own
// copy-on-truncate, and must apply.
func TestHostileAttachOverMappedBlock(t *testing.T) {
	set, _ := newSet(t, 1)
	s := set.Shard(0)
	root := s.Root()
	const client = 7
	pool := preallocPool{s, client}
	if err := set.Locks.Acquire(client, root.Lock(), lockservice.X, false); err != nil {
		t.Fatal(err)
	}
	f, err := sobj.CreateMFile(s.mem, pool, 0o644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sobj.CreateMFileSingle(s.mem, pool, 0o644, scm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	file, one := f.OID(), single.OID()
	for _, oid := range []sobj.OID{file, one} {
		if err := set.Locks.Acquire(client, oid.Lock(), lockservice.X, false); err != nil {
			t.Fatal(err)
		}
	}
	bs := uint64(1) << sobj.DefaultExtentLog
	extent := func() uint64 {
		t.Helper()
		ext, err := pool.Alloc(bs)
		if err != nil {
			t.Fatal(err)
		}
		return ext
	}
	attach := func(blk, ext uint64) fsproto.Op {
		return fsproto.Op{Code: fsproto.OpAttachExtent, Target: file, Val: blk, Val2: ext, CoverLock: file.Lock()}
	}
	epoch := uint32(0)
	ship := func(ops ...fsproto.Op) error {
		// A rejection poisons the epoch, so every batch opens a new one.
		epoch++
		h := fsproto.BatchHeader{RoutingEpoch: set.RoutingEpoch(), Seq: 1, Epoch: epoch, Opener: true}
		return set.ApplyBatch(client, fsproto.AppendBatch(nil, h, ops))
	}
	first := extent()
	if err := ship(fsproto.Op{Code: fsproto.OpCreateObject, Target: file},
		fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: []byte("f"), Child: file, CoverLock: root.Lock()},
		fsproto.Op{Code: fsproto.OpCreateObject, Target: one},
		fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: []byte("one"), Child: one, CoverLock: root.Lock()},
		attach(0, first),
		fsproto.Op{Code: fsproto.OpSetSize, Target: file, Val: bs, CoverLock: file.Lock()}); err != nil {
		t.Fatal(err)
	}
	mapped := func(blk uint64) uint64 {
		t.Helper()
		ext, err := f.ExtentAtBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		return ext
	}

	for _, c := range []struct {
		name string
		exts int
		ops  func(exts []uint64) []fsproto.Op
	}{
		{"an attach to a block mapped in SCM", 1, func(e []uint64) []fsproto.Op {
			return []fsproto.Op{attach(0, e[0])}
		}},
		{"a second attach to a block the batch attached", 2, func(e []uint64) []fsproto.Op {
			return []fsproto.Op{attach(1, e[0]), attach(1, e[1])}
		}},
		{"an attach to a single-extent file", 1, func(e []uint64) []fsproto.Op {
			return []fsproto.Op{{Code: fsproto.OpAttachExtent, Target: one, Val: 1, Val2: e[0], CoverLock: one.Lock()}}
		}},
		{"an attach past the radix tree's reach", 1, func(e []uint64) []fsproto.Op {
			return []fsproto.Op{attach(sobj.MaxBlocks, e[0])}
		}},
	} {
		exts := make([]uint64, c.exts)
		for i := range exts {
			exts[i] = extent()
		}
		err := ship(c.ops(exts)...)
		rep, ferr := set.Fsck(false)
		if !errors.Is(err, ErrValidation) {
			t.Fatalf("%s: %v (fsck %+v, %v), want ErrValidation", c.name, err, rep, ferr)
		}
		if ferr != nil || rep.LeakedBlocks+rep.LostBlocks != 0 {
			t.Fatalf("%s: fsck: %+v, %v", c.name, rep, ferr)
		}
		for _, ext := range exts {
			if _, ok := s.preallocSize(client, ext); !ok {
				t.Fatalf("%s: the refused batch consumed %#x", c.name, ext)
			}
		}
		if got0, got1 := mapped(0), mapped(1); got0 != first || got1 != 0 {
			t.Fatalf("%s: blocks 0, 1 map %#x, %#x after the refusal, want %#x, 0", c.name, got0, got1, first)
		}
	}

	// Copy-on-truncate: cut block 0 away, attach a fresh extent there.
	fresh := extent()
	if err := ship(fsproto.Op{Code: fsproto.OpTruncate, Target: file, Val: 0, CoverLock: file.Lock()},
		attach(0, fresh),
		fsproto.Op{Code: fsproto.OpSetSize, Target: file, Val: bs / 2, CoverLock: file.Lock()}); err != nil {
		t.Fatalf("an attach to a block the batch cut away: %v", err)
	}
	if got := mapped(0); got != fresh {
		t.Fatalf("block 0 maps %#x after copy-on-truncate, want %#x", got, fresh)
	}
	if rep, err := set.Fsck(false); err != nil || rep.LeakedBlocks+rep.LostBlocks != 0 {
		t.Fatalf("fsck after copy-on-truncate: %+v, %v", rep, err)
	}
}

// TestHostileUnbindClaims ships hand-built batches whose ops misstate what
// they unbind or how many names reach what they change: a rename onto a
// bound name (a client overwriting one removes the old entry first), a
// remove whose Child is not the object the key binds, and a change to a
// file the batch hard-linked into a second directory, under a hierarchical
// cover that no longer covers it alone. Each batch also creates and links a
// file. The service must refuse each with its typed error and apply none of
// it: every name binds what it bound, every link count stays, the create's
// pre-allocation stays unconsumed, and the volume checks clean.
func TestHostileUnbindClaims(t *testing.T) {
	set, _ := newSet(t, 1)
	s := set.Shard(0)
	root := s.Root()
	const client = 7
	if err := set.Locks.Acquire(client, root.Lock(), lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	cover := root.Lock()
	epoch := uint32(0)
	ship := func(ops ...fsproto.Op) error {
		// A rejection poisons the epoch, so every batch opens a new one.
		epoch++
		h := fsproto.BatchHeader{RoutingEpoch: set.RoutingEpoch(), Seq: 1, Epoch: epoch, Opener: true}
		return set.ApplyBatch(client, fsproto.AppendBatch(nil, h, ops))
	}
	create := func(mk func() (sobj.OID, error)) sobj.OID {
		t.Helper()
		oid, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	dir := func() (sobj.OID, error) {
		c, err := sobj.CreateCollection(s.mem, preallocPool{s, client}, 0o755)
		return c.OID(), err
	}
	file := func() (sobj.OID, error) {
		m, err := sobj.CreateMFile(s.mem, preallocPool{s, client}, 0o644, sobj.DefaultExtentLog)
		return m.OID(), err
	}
	d1, d2, a, b := create(dir), create(dir), create(file), create(file)
	var setup []fsproto.Op
	for _, l := range []struct {
		dir, child sobj.OID
		key        string
	}{{root, d1, "d1"}, {root, d2, "d2"}, {d1, a, "a"}, {d1, b, "b"}} {
		setup = append(setup, fsproto.Op{Code: fsproto.OpCreateObject, Target: l.child},
			fsproto.Op{Code: fsproto.OpInsert, Target: l.dir, Key: []byte(l.key), Child: l.child, CoverLock: cover})
	}
	if err := ship(setup...); err != nil {
		t.Fatal(err)
	}
	binds := func(dir sobj.OID, key string) sobj.OID {
		t.Helper()
		var c sobj.Collection
		if err := c.Open(s.mem, dir); err != nil {
			t.Fatal(err)
		}
		v, err := c.Lookup([]byte(key))
		if err != nil && !errors.Is(err, sobj.ErrNotFound) {
			t.Fatal(err)
		}
		return v
	}

	for i, c := range []struct {
		name string
		ops  []fsproto.Op
		want error
	}{
		{"a rename onto a bound name", []fsproto.Op{{Code: fsproto.OpRename, Target: d1, Key: []byte("a"),
			Dir2: d1, Key2: []byte("b"), Child: a, CoverLock: cover, Cover2: cover}}, ErrValidation},
		{"a remove naming another object", []fsproto.Op{{Code: fsproto.OpRemove, Target: d1, Key: []byte("a"),
			Child: b, CoverLock: cover}}, ErrValidation},
		{"a hard-linked file changed under a hierarchical cover", []fsproto.Op{
			{Code: fsproto.OpInsert, Target: d2, Key: []byte("a"), Child: a, CoverLock: cover},
			{Code: fsproto.OpSetSize, Target: a, Val: 1, CoverLock: cover}}, ErrLockCover},
	} {
		f := create(file)
		key := fmt.Sprint("new", i)
		ops := append([]fsproto.Op{{Code: fsproto.OpCreateObject, Target: f},
			{Code: fsproto.OpInsert, Target: d2, Key: []byte(key), Child: f, CoverLock: cover}}, c.ops...)
		if err := ship(ops...); !errors.Is(err, c.want) {
			t.Fatalf("%s: %v, want %v", c.name, err, c.want)
		}
		if got := [4]sobj.OID{binds(d1, "a"), binds(d1, "b"), binds(d2, "a"), binds(d2, key)}; got != [4]sobj.OID{a, b, 0, 0} {
			t.Fatalf("%s: d1/a, d1/b, d2/a, d2/%s bind %v after the refusal", c.name, key, got)
		}
		for _, oid := range []sobj.OID{a, b} {
			if h, err := sobj.ReadHeader(s.mem, oid); err != nil || h.Refcnt != 1 {
				t.Fatalf("%s: %v has %d links (%v) after the refusal, want 1", c.name, oid, h.Refcnt, err)
			}
		}
		if _, ok := s.preallocSize(client, f.Addr()); !ok {
			t.Fatalf("%s: the refused batch consumed its create's pre-allocation", c.name)
		}
		if rep, err := set.Fsck(false); err != nil || rep.LeakedBlocks+rep.LostBlocks != 0 {
			t.Fatalf("%s: fsck: %+v, %v", c.name, rep, err)
		}
	}
	// The same change to the file while it has one name is covered.
	if err := ship(fsproto.Op{Code: fsproto.OpSetSize, Target: a, Val: 1, CoverLock: cover}); err != nil {
		t.Fatalf("a singly linked file under a hierarchical cover: %v", err)
	}
}
