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
// unlinks, renames onto new names and, as a remove of the old entry and a
// rename, onto existing ones, mkdirs, rmdirs shipped after the unlinks of
// the directory's last entries, appends, and truncates (an append after one
// attaches into a block it cut) — and holds what plan's staged view
// answered against SCM once the batch applied: every lookup of a key the
// batch touched, every touched live directory's stored count plus the
// view's count change, every touched live object's link count, and every
// block and the size of every touched live file.
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
	// blocks and sizes model each file: blocks [0, blocks[f]) are mapped.
	// reach bounds the blocks a file ever had.
	blocks, sizes, reach := map[sobj.OID]uint64{}, map[sobj.OID]uint64{}, map[sobj.OID]uint64{}
	bs := uint64(1) << sobj.DefaultExtentLog
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
		files, linked := map[sobj.OID]bool{}, map[sobj.OID]bool{}
		op := func(o fsproto.Op) {
			ops = append(ops, o)
			if o.Child != 0 {
				linked[o.Child] = true
			}
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
		appendTo := func(f sobj.OID) {
			ext, err := preallocPool{s, client}.Alloc(bs)
			if err != nil {
				t.Fatal(err)
			}
			op(fsproto.Op{Code: fsproto.OpAttachExtent, Target: f, Val: blocks[f], Val2: ext, CoverLock: root.Lock()})
			blocks[f]++
			sizes[f], reach[f], files[f] = blocks[f]*bs, max(reach[f], blocks[f]), true
			op(fsproto.Op{Code: fsproto.OpSetSize, Target: f, Val: sizes[f], CoverLock: root.Lock()})
		}
		for n := 3 + rng.Intn(10); n > 0; n-- {
			dk, dir := pickDir()
			switch r := rng.Intn(9); {
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
				// The head may be an unlinked file's, reused.
				blocks[f.OID()], sizes[f.OID()], reach[f.OID()] = 0, 0, 0
				op(fsproto.Op{Code: fsproto.OpCreateObject, Target: f.OID()})
				op(fsproto.Op{Code: fsproto.OpInsert, Target: dir, Key: []byte(k), Child: f.OID(), CoverLock: root.Lock()})
				ns[dir][k] = f.OID()
			case r == 3:
				if k := pickFile(dir); k != "" {
					op(fsproto.Op{Code: fsproto.OpRemove, Target: dir, Key: []byte(k), Child: ns[dir][k], CoverLock: root.Lock()})
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
					// Onto an existing name: the old file is unlinked first.
					k2 = old
					op(fsproto.Op{Code: fsproto.OpRemove, Target: dst, Key: []byte(k2), Child: ns[dst][k2], CoverLock: root.Lock()})
				}
				child := ns[dir][k]
				op(fsproto.Op{Code: fsproto.OpRename, Target: dir, Key: []byte(k), Dir2: dst, Key2: []byte(k2),
					Child: child, CoverLock: root.Lock(), Cover2: root.Lock()})
				delete(ns[dir], k)
				ns[dst][k2] = child
			case r == 6:
				if k := pickFile(dir); k != "" {
					appendTo(ns[dir][k])
				}
			case r == 7:
				k := pickFile(dir)
				if k == "" {
					break
				}
				f := ns[dir][k]
				size := uint64(rng.Int63n(int64(blocks[f]*bs + 1)))
				op(fsproto.Op{Code: fsproto.OpTruncate, Target: f, Val: size, CoverLock: root.Lock()})
				blocks[f], sizes[f], files[f] = (size+bs-1)/bs, size, true
				if rng.Intn(2) == 0 {
					appendTo(f) // into the first block the truncate cut
				}
			default:
				// rmdir after unlinking the directory's last entries.
				for _, k := range sorted(ns[dir]) {
					op(fsproto.Op{Code: fsproto.OpRemove, Target: dir, Key: []byte(k), Child: ns[dir][k], CoverLock: root.Lock()})
				}
				op(fsproto.Op{Code: fsproto.OpRemove, Target: root, Key: []byte(dk), Child: dir, CoverLock: root.Lock()})
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
		counts, links := map[sobj.OID]int{}, map[sobj.OID]int{}
		exts, fileSizes := map[sobj.OID][]uint64{}, map[sobj.OID]uint64{}
		live := map[sobj.OID]bool{}
		for _, dir := range ns {
			for _, f := range dir {
				live[f] = true
			}
		}
		s.mu.Lock()
		_, _, err := s.plan(client, ops, nil, nil)
		for oid := range linked {
			if live[oid] || ns[oid] != nil {
				n, lerr := s.ov.links(s, oid)
				if lerr != nil {
					t.Fatal(lerr)
				}
				links[oid] = n
			}
		}
		for f := range files {
			if !live[f] {
				continue // unlinked by the batch
			}
			m, merr := s.requireMFile(f)
			if merr != nil {
				t.Fatal(merr)
			}
			for blk := uint64(0); blk <= reach[f]; blk++ {
				ext, staged := s.ov.view.Block(f, blk)
				if !staged {
					if ext, merr = m.ExtentAtBlock(blk); merr != nil {
						t.Fatal(merr)
					}
				}
				exts[f] = append(exts[f], ext)
			}
			size, sized := s.ov.view.File(f).Size, s.ov.view.File(f).Sized
			if !sized {
				if size, merr = m.Size(); merr != nil {
					t.Fatal(merr)
				}
			}
			fileSizes[f] = size
		}
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
		for oid, want := range links {
			if h, err := sobj.ReadHeader(s.mem, oid); err != nil || int(h.Refcnt) != want || want != 1 {
				t.Fatalf("batch %d: %v has %d links (%v) in SCM, the view said %d, the client 1", batch, oid, h.Refcnt, err, want)
			}
		}
		for f, want := range exts {
			m, err := s.requireMFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for blk, ext := range want {
				got, err := m.ExtentAtBlock(uint64(blk))
				if err != nil || got != ext || (got != 0) != (uint64(blk) < blocks[f]) {
					t.Fatalf("batch %d: %v block %d maps %#x (%v) in SCM, the view said %#x, the client has %d blocks", batch, f, blk, got, err, ext, blocks[f])
				}
			}
			if size, err := m.Size(); err != nil || size != fileSizes[f] || size != sizes[f] {
				t.Fatalf("batch %d: %v is %d bytes (%v) in SCM, the view said %d, the client %d", batch, f, size, err, fileSizes[f], sizes[f])
			}
		}
	}
	if rep, err := set.Fsck(false); err != nil || rep.LeakedBlocks+rep.LostBlocks != 0 {
		t.Fatalf("fsck: %+v, %v", rep, err)
	}
}
