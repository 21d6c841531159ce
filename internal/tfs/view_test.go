package tfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// TestPlanViewMatchesApply plans random honest batches — creates and links,
// unlinks, renames onto new and onto existing names, mkdirs, and rmdirs
// shipped after the unlinks of the directory's last entries — and holds
// what plan's staged view answered against SCM once the batch applied:
// every lookup of a key the batch touched, and every touched live
// directory's stored count plus the view's count change.
func TestPlanViewMatchesApply(t *testing.T) {
	set, _ := newSet(t, 1)
	s := set.Shard(0)
	root := s.Root()
	const client = 1
	if err := set.Locks.Acquire(client, root.Lock(), lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// ns is the namespace the client has built: root holds directories,
	// directories hold files.
	ns := map[sobj.OID]map[string]sobj.OID{root: {}}
	next := 0
	newKey := func(prefix string) string { next++; return fmt.Sprintf("%s%d", prefix, next) }
	sorted := func(m map[string]sobj.OID) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	// pickDir returns a directory other than the root, or 0 when none.
	pickDir := func() (string, sobj.OID) {
		keys := sorted(ns[root])
		if len(keys) == 0 {
			return "", 0
		}
		k := keys[rng.Intn(len(keys))]
		return k, ns[root][k]
	}
	pickFile := func(dir sobj.OID) string {
		keys := sorted(ns[dir])
		if len(keys) == 0 {
			return ""
		}
		return keys[rng.Intn(len(keys))]
	}
	for batch := 1; batch <= 60; batch++ {
		var ops []fsproto.Op
		touched := map[sobj.OID]map[string]bool{}
		op := func(o fsproto.Op) {
			ops = append(ops, o)
			for _, n := range []struct {
				col sobj.OID
				key []byte
			}{{o.Target, o.Key}, {o.Dir2, o.Key2}} {
				if n.key != nil {
					if touched[n.col] == nil {
						touched[n.col] = map[string]bool{}
					}
					touched[n.col][string(n.key)] = true
				}
			}
		}
		for n := 3 + rng.Intn(10); n > 0; n-- {
			dk, dir := pickDir()
			switch r := rng.Intn(7); {
			case r == 0 || dir == 0:
				c, err := sobj.CreateCollection(s.mem, preallocPool{s, client}, 0o755)
				if err != nil {
					t.Fatal(err)
				}
				k := newKey("d")
				op(fsproto.Op{Code: fsproto.OpCreateObject, Target: c.OID()})
				op(fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: []byte(k), Child: c.OID(), CoverLock: root.Lock()})
				ns[root][k], ns[c.OID()] = c.OID(), map[string]sobj.OID{}
			case r <= 2:
				f, err := sobj.CreateMFile(s.mem, preallocPool{s, client}, 0o644, sobj.DefaultExtentLog)
				if err != nil {
					t.Fatal(err)
				}
				k := newKey("f")
				op(fsproto.Op{Code: fsproto.OpCreateObject, Target: f.OID()})
				op(fsproto.Op{Code: fsproto.OpInsert, Target: dir, Key: []byte(k), Child: f.OID(), CoverLock: root.Lock()})
				ns[dir][k] = f.OID()
			case r == 3:
				if k := pickFile(dir); k != "" {
					op(fsproto.Op{Code: fsproto.OpRemove, Target: dir, Key: []byte(k), CoverLock: root.Lock()})
					delete(ns[dir], k)
				}
			case r <= 5:
				k := pickFile(dir)
				if k == "" {
					break
				}
				_, dst := pickDir()
				k2 := newKey("f")
				if old := pickFile(dst); old != "" && rng.Intn(2) == 0 && (dst != dir || old != k) {
					k2 = old // onto an existing name: the old file is unlinked
				}
				child := ns[dir][k]
				op(fsproto.Op{Code: fsproto.OpRename, Target: dir, Key: []byte(k), Dir2: dst, Key2: []byte(k2),
					Child: child, CoverLock: root.Lock(), Cover2: root.Lock()})
				delete(ns[dir], k)
				ns[dst][k2] = child
			default:
				// rmdir after unlinking the directory's last entries.
				for _, k := range sorted(ns[dir]) {
					op(fsproto.Op{Code: fsproto.OpRemove, Target: dir, Key: []byte(k), CoverLock: root.Lock()})
				}
				op(fsproto.Op{Code: fsproto.OpRemove, Target: root, Key: []byte(dk), CoverLock: root.Lock()})
				delete(ns[root], dk)
				delete(ns, dir)
			}
		}

		// What the plan's view answers, read before the batch applies.
		type answer struct {
			child sobj.OID
			ok    bool
		}
		lookups := map[sobj.OID]map[string]answer{}
		counts := map[sobj.OID]int{}
		s.mu.Lock()
		_, _, err := s.plan(client, ops, nil, nil)
		for col, keys := range touched {
			lookups[col] = map[string]answer{}
			for k := range keys {
				child, ok, lerr := s.ov.lookup(s, col, []byte(k))
				if lerr != nil {
					t.Fatal(lerr)
				}
				lookups[col][k] = answer{child, ok}
			}
			if ns[col] == nil {
				continue // removed by the batch
			}
			var c sobj.Collection
			if err := c.Open(s.mem, col); err != nil {
				t.Fatal(err)
			}
			n, cerr := c.Count()
			if cerr != nil {
				t.Fatal(cerr)
			}
			change, _, _ := s.ov.view.Counts(col)
			counts[col] = int(n) + change
		}
		s.mu.Unlock()
		if err != nil {
			t.Fatalf("batch %d: plan: %v", batch, err)
		}
		h := fsproto.BatchHeader{RoutingEpoch: set.RoutingEpoch(), Seq: uint64(batch), Epoch: 1, Opener: batch == 1}
		if err := set.ApplyBatch(client, fsproto.AppendBatch(nil, h, ops)); err != nil {
			t.Fatalf("batch %d: apply: %v", batch, err)
		}

		for col, keys := range lookups {
			if ns[col] == nil {
				continue
			}
			var c sobj.Collection
			if err := c.Open(s.mem, col); err != nil {
				t.Fatal(err)
			}
			for k, want := range keys {
				child, err := c.Lookup([]byte(k))
				if ok := err == nil; ok != want.ok || ok && child != want.child {
					t.Fatalf("batch %d: %v/%s is %v (%v) in SCM, the view said %v %v", batch, col, k, child, err, want.child, want.ok)
				}
				if err != nil && !errors.Is(err, sobj.ErrNotFound) {
					t.Fatal(err)
				}
				if want.ok != (ns[col][k] != 0) {
					t.Fatalf("batch %d: %v/%s: the view said %v, the client's namespace %v", batch, col, k, want.ok, ns[col][k])
				}
			}
			n, err := c.Count()
			if err != nil {
				t.Fatal(err)
			}
			if int(n) != counts[col] || int(n) != len(ns[col]) {
				t.Fatalf("batch %d: %v holds %d entries, the view said %d, the client %d", batch, col, n, counts[col], len(ns[col]))
			}
		}
	}
	if rep, err := set.Fsck(false); err != nil || rep.LeakedBlocks+rep.LostBlocks != 0 {
		t.Fatalf("fsck: %+v, %v", rep, err)
	}
}
