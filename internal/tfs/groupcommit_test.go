package tfs

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// preallocPool stages objects the way a client does: every extent comes
// from the TFS's pre-allocation for that client.
type preallocPool struct {
	s      *Service
	client uint64
}

func (p preallocPool) Alloc(size uint64) (uint64, error) {
	addrs, err := p.s.prealloc(p.client, size, 1)
	if err != nil {
		return 0, err
	}
	return addrs[0], nil
}

func (p preallocPool) Free(addr, size uint64) error {
	return fmt.Errorf("prealloc pool: free %#x+%d", addr, size)
}

// orderMachine is one shard on a persistence-tracking arena, so a test can
// cut power and recover it.
type orderMachine struct {
	mem   *scm.Memory
	proc  *scmmgr.Process
	parts []scmmgr.PartitionID
	set   *ShardSet
	s     *Service
}

func newOrderMachine(t *testing.T, faults *faultinject.Injector) *orderMachine {
	t.Helper()
	mem := scm.New(scm.Config{Size: 64 << 20, TrackPersistence: true})
	t.Cleanup(func() { mem.Close() })
	mgr, err := scmmgr.FormatAndAttach(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc := scmmgr.NewProcess(0)
	part, err := mgr.CreatePartition(48<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := FormatVolume(mgr, proc, part, testConfig); err != nil {
		t.Fatal(err)
	}
	m := &orderMachine{mem: mem, proc: proc, parts: []scmmgr.PartitionID{part}}
	cfg := testConfig
	cfg.Faults = faults
	m.serve(t, mgr, cfg)
	return m
}

func (m *orderMachine) serve(t *testing.T, mgr *scmmgr.Manager, cfg Config) {
	t.Helper()
	set, err := ServeShards(rpc.NewServer(), mgr, m.proc, m.parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Locks.Shutdown)
	m.set, m.s = set, set.Shard(0)
}

// powerLoss drops every store not yet persistent and recovers the volume
// the way a restart does: attach, then replay the journal.
func (m *orderMachine) powerLoss(t *testing.T) {
	t.Helper()
	m.set.Locks.Shutdown()
	m.mem.Crash()
	mgr, err := scmmgr.Attach(m.mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.serve(t, mgr, testConfig)
}

func (m *orderMachine) acquire(t *testing.T, client, id uint64, class lockservice.Class) {
	t.Helper()
	if err := m.set.Locks.Acquire(client, id, class, false); err != nil {
		t.Fatal(err)
	}
}

// stagedFile creates an mFile in client's pre-allocated extents, as libfs
// stages a create.
func (m *orderMachine) stagedFile(t *testing.T, client uint64) sobj.OID {
	t.Helper()
	f, err := sobj.CreateMFile(m.mem, preallocPool{m.s, client}, 0o644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	return f.OID()
}

// batch wraps one client's ops as a queued group member.
func batch(client uint64, ops ...fsproto.Op) *groupBatch {
	return &groupBatch{client: client, ops: ops, t0: time.Now(), wake: make(chan struct{}, 2)}
}

// commitOrderCase builds two clients' batches, each creating a file and
// linking it into a directory. sameDir puts both links in the root, under
// per-bucket covers (FlatFS's fine-grained locking, so both clients hold
// valid covers at once); otherwise client 1 links into the root and client
// 2 into a directory of its own. It returns the batches and the directories
// the state dump reads.
func commitOrderCase(t *testing.T, m *orderMachine, sameDir bool) ([]*groupBatch, []sobj.OID) {
	t.Helper()
	const c1, c2 = 1, 2
	root := m.s.Root()
	key1, key2 := []byte("one"), []byte("two")
	if sameDir {
		var col sobj.Collection
		if err := col.Open(m.mem, root); err != nil {
			t.Fatal(err)
		}
		b1, err := col.BucketLock(key1)
		if err != nil {
			t.Fatal(err)
		}
		b2 := b1
		for i := 0; b2 == b1; i++ {
			key2 = []byte(fmt.Sprintf("two-%d", i))
			if b2, err = col.BucketLock(key2); err != nil {
				t.Fatal(err)
			}
		}
		m.acquire(t, c1, root.Lock(), lockIX)
		m.acquire(t, c2, root.Lock(), lockIX)
		m.acquire(t, c1, b1, lockX)
		m.acquire(t, c2, b2, lockX)
		f1, f2 := m.stagedFile(t, c1), m.stagedFile(t, c2)
		return []*groupBatch{
			batch(c1, fsproto.Op{Code: fsproto.OpCreateObject, Target: f1},
				fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: key1, Child: f1, CoverLock: b1}),
			batch(c2, fsproto.Op{Code: fsproto.OpCreateObject, Target: f2},
				fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: key2, Child: f2, CoverLock: b2}),
		}, []sobj.OID{root}
	}
	// Client 1 links client 2's directory under the root first, in a group
	// of its own.
	m.acquire(t, c1, root.Lock(), lockX)
	dir, err := sobj.CreateCollection(m.mem, preallocPool{m.s, c1}, 0o755)
	if err != nil {
		t.Fatal(err)
	}
	setup := batch(c1, fsproto.Op{Code: fsproto.OpCreateObject, Target: dir.OID()},
		fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: []byte("d"), Child: dir.OID(), CoverLock: root.Lock()})
	m.s.runGroup([]*groupBatch{setup})
	if setup.err != nil {
		t.Fatalf("setup batch: %v", setup.err)
	}
	m.acquire(t, c2, dir.OID().Lock(), lockX)
	f1, f2 := m.stagedFile(t, c1), m.stagedFile(t, c2)
	return []*groupBatch{
		batch(c1, fsproto.Op{Code: fsproto.OpCreateObject, Target: f1},
			fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: key1, Child: f1, CoverLock: root.Lock()}),
		batch(c2, fsproto.Op{Code: fsproto.OpCreateObject, Target: f2},
			fsproto.Op{Code: fsproto.OpInsert, Target: dir.OID(), Key: key2, Child: f2, CoverLock: dir.OID().Lock()}),
	}, []sobj.OID{root, dir.OID()}
}

// dumpState renders what the batches changed: each directory's entries
// with their children's headers, and the allocator's free space.
func dumpState(t *testing.T, s *Service, dirs []sobj.OID) string {
	t.Helper()
	var lines []string
	for _, dir := range dirs {
		var col sobj.Collection
		if err := col.Open(s.mem, dir); err != nil {
			t.Fatal(err)
		}
		err := col.Iterate(func(key []byte, child sobj.OID) error {
			h, err := sobj.ReadHeader(s.mem, child)
			if err != nil {
				return err
			}
			lines = append(lines, fmt.Sprintf("%v/%s -> %v refcnt=%d perm=%o", dir, key, child, h.Refcnt, h.Perm))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(lines)
	return fmt.Sprintf("%s\nfree=%d", strings.Join(lines, "\n"), s.FreeBytes())
}

// TestGroupAppliesInCommitOrder hands runGroup one group holding two
// clients' batches, once linking into the same directory and once into
// disjoint ones. The leader applies them in commit order on its own
// goroutine: the result equals applying them as separate groups, a crash
// rule inside the first batch's apply unwinds through the caller with the
// second batch not yet started, and after power loss both committed records
// replay to the same state on a clean volume.
func TestGroupAppliesInCommitOrder(t *testing.T) {
	for _, sameDir := range []bool{true, false} {
		t.Run(fmt.Sprintf("sameDir=%v", sameDir), func(t *testing.T) {
			// Reference: the two batches as separate groups.
			ref := newOrderMachine(t, nil)
			batches, dirs := commitOrderCase(t, ref, sameDir)
			for _, gb := range batches {
				ref.s.runGroup([]*groupBatch{gb})
				if gb.err != nil {
					t.Fatalf("client %d alone: %v", gb.client, gb.err)
				}
			}
			want := dumpState(t, ref.s, dirs)

			grouped := newOrderMachine(t, nil)
			batches, dirs = commitOrderCase(t, grouped, sameDir)
			grouped.s.runGroup(batches)
			for _, gb := range batches {
				if gb.err != nil {
					t.Fatalf("client %d in the group: %v", gb.client, gb.err)
				}
			}
			if got := dumpState(t, grouped.s, dirs); got != want {
				t.Fatalf("one group applied to\n%s\nseparate groups to\n%s", got, want)
			}

			inj := faultinject.New()
			crashed := newOrderMachine(t, inj)
			batches, dirs = commitOrderCase(t, crashed, sameDir)
			inj.CrashAt("tfs.apply.action", inj.Counts()["tfs.apply.action"]+2)
			var stack string
			crash := func() (c any) {
				defer func() {
					if c = recover(); c != nil {
						stack = string(debug.Stack())
					}
				}()
				crashed.s.runGroup(batches)
				return nil
			}()
			var fc faultinject.Crash
			if err, ok := crash.(error); !ok || !errors.As(err, &fc) {
				t.Fatalf("runGroup returned %v, want a crash-rule panic", crash)
			}
			if !strings.Contains(stack, "applyBatchActions") {
				t.Fatalf("crash did not unwind from the apply on the caller's goroutine:\n%s", stack)
			}
			// The crash hit the first batch's second action: the second batch
			// has not started, in either case.
			if got := dumpState(t, crashed.s, dirs); strings.Contains(got, string(batches[1].ops[1].Key)) {
				t.Fatalf("second batch applied before the first finished:\n%s", got)
			}
			crashed.powerLoss(t)
			if got := dumpState(t, crashed.s, dirs); got != want {
				t.Fatalf("recovery replayed to\n%s\nwant\n%s", got, want)
			}
			if !crashed.set.JournalIdle() {
				t.Fatal("journal holds records after recovery")
			}
			rep, err := crashed.set.Fsck(false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.LeakedBlocks != 0 || rep.LostBlocks != 0 {
				t.Fatalf("fsck after recovery: %v", rep)
			}
		})
	}
}

// TestRecycledBatchesUnderConcurrency: several sessions ship window batches
// through ApplyBatch at once, so batches queue behind a leader, share
// groups, hand leadership over and go back to the free list while other
// handlers still run — and one more session's batches are all rejected,
// recycling from the validation path. Every honest batch must apply
// exactly once and leave a clean volume. Run it under -race.
func TestRecycledBatchesUnderConcurrency(t *testing.T) {
	const clients, perClient = 6, 24
	const liar = clients + 1
	set, _ := newSet(t, 1)
	s := set.Shard(0)
	root := s.Root()
	const admin = 100
	if err := set.Locks.Acquire(admin, root.Lock(), lockservice.X, false); err != nil {
		t.Fatal(err)
	}
	// One directory per session, created by an admin session, then each
	// session's files staged in its own pre-allocations.
	dirs := make([]sobj.OID, clients)
	files := make([][]sobj.OID, clients)
	var setup []fsproto.Op
	for c := range dirs {
		d, err := sobj.CreateCollection(s.mem, preallocPool{s, admin}, 0o755)
		if err != nil {
			t.Fatal(err)
		}
		dirs[c] = d.OID()
		setup = append(setup, fsproto.Op{Code: fsproto.OpCreateObject, Target: d.OID()},
			fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: []byte(fmt.Sprintf("d%d", c)), Child: d.OID(), CoverLock: root.Lock()})
		client := uint64(c + 1)
		if err := set.Locks.Acquire(client, d.OID().Lock(), lockservice.X, false); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perClient; i++ {
			f, err := sobj.CreateMFile(s.mem, preallocPool{s, client}, 0o644, sobj.DefaultExtentLog)
			if err != nil {
				t.Fatal(err)
			}
			files[c] = append(files[c], f.OID())
		}
	}
	h := fsproto.BatchHeader{RoutingEpoch: set.RoutingEpoch(), Seq: 1, Epoch: 1, Opener: true}
	if err := set.ApplyBatch(admin, fsproto.AppendBatch(nil, h, setup)); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, clients+1)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, dir := uint64(c+1), dirs[c]
			for i, f := range files[c] {
				key := []byte(fmt.Sprintf("f%d", i))
				ops := []fsproto.Op{{Code: fsproto.OpCreateObject, Target: f},
					{Code: fsproto.OpInsert, Target: dir, Key: key, Child: f, CoverLock: dir.Lock()}}
				if i%3 == 2 { // unlink the one before
					ops = append(ops, fsproto.Op{Code: fsproto.OpRemove, Target: dir,
						Key: []byte(fmt.Sprintf("f%d", i-1)), CoverLock: dir.Lock()})
				}
				h := fsproto.BatchHeader{RoutingEpoch: set.RoutingEpoch(), Seq: uint64(i + 1), Epoch: 1, Opener: i == 0}
				if err := set.ApplyBatch(client, fsproto.AppendBatch(nil, h, ops)); err != nil {
					errs <- fmt.Errorf("client %d batch %d: %w", client, i, err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Each rejection poisons the liar's epoch, so every batch opens a
		// new one.
		for i := 0; i < perClient; i++ {
			h := fsproto.BatchHeader{RoutingEpoch: set.RoutingEpoch(), Seq: 1, Epoch: uint32(i + 1), Opener: true}
			bad := []fsproto.Op{{Code: fsproto.OpInsert, Target: dirs[0], Key: []byte("x"), Child: root, CoverLock: dirs[0].Lock()}}
			if err := set.ApplyBatch(liar, fsproto.AppendBatch(nil, h, bad)); !errors.Is(err, ErrLockCover) {
				errs <- fmt.Errorf("liar batch %d: %v, want ErrLockCover", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for c, dir := range dirs {
		var col sobj.Collection
		if err := col.Open(s.mem, dir); err != nil {
			t.Fatal(err)
		}
		n, err := col.Count()
		if err != nil {
			t.Fatal(err)
		}
		if want := uint32(perClient - perClient/3); n != want {
			t.Errorf("dir %d holds %d entries, want %d", c, n, want)
		}
	}
	if rep, err := set.Fsck(false); err != nil || rep.LeakedBlocks+rep.LostBlocks != 0 {
		t.Fatalf("fsck: %+v, %v", rep, err)
	}
}
