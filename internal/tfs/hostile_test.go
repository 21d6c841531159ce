package tfs

import (
	"errors"
	"fmt"
	"testing"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/lockservice"
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
