package libfs_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/tfs"
)

// counterValue digs a counter out of a sink snapshot.
func counterValue(sink *obs.Sink, name string) int64 {
	for _, c := range sink.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestPipelinedWindowBasic drives a Window=4 session through enough
// one-op batches to rotate repeatedly and checks the window machinery
// leaves nothing behind: all ops applied, queue drained, depth observed.
func TestPipelinedWindowBasic(t *testing.T) {
	sink := obs.New()
	sys, err := core.New(core.Options{
		ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second, Obs: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := sys.NewSession(libfs.Config{UID: 1, BatchLimit: 1, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)

	const files = 24
	for i := 0; i < files; i++ {
		oid, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DirInsert(s.Root, []byte(fmt.Sprintf("w%02d", i)), oid, lock); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := s.PendingOps(); got != 0 {
		t.Fatalf("pending = %d after sync", got)
	}
	for i := 0; i < files; i++ {
		if _, ok, err := s.DirLookup(s.Root, []byte(fmt.Sprintf("w%02d", i))); err != nil || !ok {
			t.Fatalf("w%02d missing after pipelined sync: ok=%v err=%v", i, ok, err)
		}
	}
	snap := sink.Snapshot()
	var depth int64
	for _, h := range snap.Histograms {
		if h.Name == "libfs.window.depth" {
			depth = h.Count
		}
	}
	if depth == 0 {
		t.Fatal("libfs.window.depth never observed: batches did not rotate through the window")
	}
	if !sys.Set.JournalIdle() {
		t.Fatal("journal not idle after sync")
	}
}

// TestParkedWindowReshipsInOrder is the reconnect regression test for the
// pipelined window: when the transport dies with SEVERAL batches in the
// window, the parked entries must re-ship verbatim — original order,
// original request IDs, original payloads. The first batch is applied by
// the TFS but its reply is lost (fate unknown to the client), two more
// batches queue behind it while the transport is down; after reconnect a
// single Sync must drain all three, with the first batch's replay caught
// by the server's dedup cache (same request ID ⇒ applied exactly once)
// and the rest applying in window order (the TFS sequence gate rejects
// any reordering, so a passing Sync doubles as an order assertion).
func TestParkedWindowReshipsInOrder(t *testing.T) {
	inj := faultinject.New()
	sink := obs.New()
	sys, err := core.New(core.Options{
		ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second,
		Faults: inj, Obs: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	// RenewEvery is huge so no background renewal RPC races the armed
	// fault ordinals below.
	s, err := sys.NewSession(libfs.Config{
		UID: 1, BatchLimit: 1, Window: 4, RenewEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)

	// A fully-synced file the parked batches will link under new names:
	// one op per batch, no staged-object coupling between batches.
	oid, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(s.Root, []byte("base"), oid, lock); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	applied0 := sys.Set.Shard(0).BatchesApplied.Load()

	// Batch 1 reaches the TFS and applies, but the reply is lost; the
	// shipper parks it with fate unknown.
	inj.FailAt("rpc.reply", inj.Counts()["rpc.reply"]+1, nil)
	if err := s.DirInsert(s.Root, []byte("link1"), oid, lock); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for counterValue(sink, "libfs.window.parks") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shipper never parked on the lost reply")
		}
		time.Sleep(time.Millisecond)
	}

	// Transport fully down: two more batches queue behind the parked one.
	inj.FailAt("rpc.call", 0, nil)
	if err := s.DirInsert(s.Root, []byte("link2"), oid, lock); err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(s.Root, []byte("link3"), oid, lock); err != nil {
		t.Fatal(err)
	}
	err = s.Sync()
	if !errors.Is(err, libfs.ErrTFSUnreachable) {
		t.Fatalf("Sync with transport down = %v, want ErrTFSUnreachable", err)
	}
	if got := s.PendingOps(); got != 3 {
		t.Fatalf("pending = %d with 3 parked batches, want 3", got)
	}

	// Reconnect: one Sync drains the window in order.
	inj.ClearRules()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after reconnect: %v", err)
	}
	if got := s.PendingOps(); got != 0 {
		t.Fatalf("pending = %d after reconnect sync", got)
	}
	// Exactly 3 batch applications: batch 1 once (its replay was deduped
	// under the original request ID), batches 2 and 3 once each. A fresh
	// request ID on the replay would make this 4.
	if got := sys.Set.Shard(0).BatchesApplied.Load() - applied0; got != 3 {
		t.Fatalf("applied %d batches across park+reship, want 3 (dedup must catch the replay)", got)
	}
	for _, name := range []string{"link1", "link2", "link3"} {
		if _, ok, err := s.DirLookup(s.Root, []byte(name)); err != nil || !ok {
			t.Fatalf("%s missing after reship: ok=%v err=%v", name, ok, err)
		}
	}
	if !sys.Set.JournalIdle() {
		t.Fatal("journal not idle after reship")
	}
}

// TestPipelinedRejectionDiscardsSuffix checks completion-window error
// resolution: a batch the TFS rejects kills itself AND every batch behind
// it in the window (they may depend on its effects), discard hooks fire,
// and the typed ErrStaleBatch surfaces at the next sync point. Batches
// before the rejected one stay applied — the window discards a suffix,
// never a middle.
func TestPipelinedRejectionDiscardsSuffix(t *testing.T) {
	sink := obs.New()
	sys, err := core.New(core.Options{
		ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second, Obs: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := sys.NewSession(libfs.Config{UID: 1, BatchLimit: 1, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)

	oid, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(s.Root, []byte("keep"), oid, lock); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	var discards int
	s.AddDiscardHook(func() { discards++ })

	// Batch A: a good link. Batch B: an insert of an object that does not
	// exist — passes every client-side check, rejected by TFS validation.
	// Batch C: another good link, doomed by riding behind B.
	if err := s.DirInsert(s.Root, []byte("before"), oid, lock); err != nil {
		t.Fatal(err)
	}
	if err := s.LogOp(fsproto.Op{
		Code: fsproto.OpInsert, Target: s.Root, Key: []byte("bogus"),
		Child: oid + 0x5000, CoverLock: lock,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(s.Root, []byte("after"), oid, lock); err != nil {
		t.Fatal(err)
	}

	err = s.Sync()
	if !errors.Is(err, libfs.ErrStaleBatch) {
		t.Fatalf("Sync = %v, want ErrStaleBatch", err)
	}
	if got := s.PendingOps(); got != 0 {
		t.Fatalf("pending = %d after rejection, want 0 (suffix discarded)", got)
	}
	if discards == 0 {
		t.Fatal("discard hooks did not fire on rejection")
	}
	// "before" shipped ahead of the bogus batch and stays; "after" rode
	// behind it and must be gone with it.
	if _, ok, err := s.DirLookup(s.Root, []byte("before")); err != nil || !ok {
		t.Fatalf("batch before the rejection lost: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := s.DirLookup(s.Root, []byte("after")); ok {
		t.Fatal("batch after the rejection survived, want suffix discard")
	}
	if got := counterValue(sink, "libfs.window.discards"); got < 2 {
		t.Fatalf("libfs.window.discards = %d, want >= 2", got)
	}
	// The session reconverged: it keeps working.
	if err := s.DirInsert(s.Root, []byte("resumed"), oid, lock); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after reconvergence: %v", err)
	}
}

// TestWindowSeqGate exercises the TFS-side sequence gate directly: batches
// of one session carry (epoch, seq, flags) window headers, and the gate
// admits them strictly in window order — replays and regressions die with
// the typed ErrWindowStale, a rejection poisons the rest of the epoch, and
// an Opener re-baselines a fresh epoch after a client-side discard.
func TestWindowSeqGate(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	s, err := sys.NewSession(libfs.Config{UID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var empty []fsproto.Op
	send := func(h fsproto.BatchHeader, ops []fsproto.Op) error {
		h.RoutingEpoch = sys.Set.RoutingEpoch()
		return sys.Set.ApplyBatch(s.ClientID(), fsproto.AppendBatch(nil, h, ops))
	}
	// Epoch 1 opens at seq 5 (the gate baselines wherever the opener says).
	if err := send(fsproto.BatchHeader{Seq: 5, Epoch: 1, Opener: true}, empty); err != nil {
		t.Fatalf("epoch 1 opener seq 5: %v", err)
	}
	if err := send(fsproto.BatchHeader{Seq: 6, Epoch: 1}, empty); err != nil {
		t.Fatalf("seq 6: %v", err)
	}
	// A replayed (already completed) sequence number is typed stale.
	if err := send(fsproto.BatchHeader{Seq: 5, Epoch: 1}, empty); !errors.Is(err, fsproto.ErrWindowStale) {
		t.Fatalf("seq 5 replay = %v, want ErrWindowStale", err)
	}
	// So is anything from an epoch the session has moved past.
	if err := send(fsproto.BatchHeader{Seq: 9, Epoch: 0}, empty); !errors.Is(err, fsproto.ErrWindowStale) {
		t.Fatalf("dead epoch 0 = %v, want ErrWindowStale", err)
	}
	// A validation rejection poisons the rest of the epoch: the bogus batch
	// fails on its own terms, and the next in-order batch dies stale.
	bogus := []fsproto.Op{{
		Code: fsproto.OpInsert, Target: s.Root, Key: []byte("bogus"),
		Child: s.Root + 0x5000, CoverLock: s.Root.Lock(),
	}}
	if err := send(fsproto.BatchHeader{Seq: 7, Epoch: 1}, bogus); err == nil || errors.Is(err, fsproto.ErrWindowStale) {
		t.Fatalf("bogus seq 7 = %v, want a validation rejection", err)
	}
	if err := send(fsproto.BatchHeader{Seq: 8, Epoch: 1}, empty); !errors.Is(err, fsproto.ErrWindowStale) {
		t.Fatalf("seq 8 after poison = %v, want ErrWindowStale", err)
	}
	// A non-opener cannot resurrect the epoch; the new epoch's opener can.
	if err := send(fsproto.BatchHeader{Seq: 9, Epoch: 2, Opener: true}, empty); err != nil {
		t.Fatalf("epoch 2 opener: %v", err)
	}
	if err := send(fsproto.BatchHeader{Seq: 10, Epoch: 2}, empty); err != nil {
		t.Fatalf("seq 10: %v", err)
	}
	// Nothing bypasses the gate: sequence numbers are 1-based, and a batch
	// claiming seq 0 is refused without disturbing the window.
	if err := send(fsproto.BatchHeader{Epoch: 2}, empty); !errors.Is(err, tfs.ErrValidation) {
		t.Fatalf("seq 0 = %v, want ErrValidation", err)
	}
	if err := send(fsproto.BatchHeader{Seq: 11, Epoch: 2}, empty); err != nil {
		t.Fatalf("seq 11 after the refused seq 0: %v", err)
	}
}

// TestWritePipeStress is the race-enabled pipeline stress: several
// sessions, each with a deep window and one-op batches, hammer disjoint
// directories concurrently. The TFS side coalesces their batches into
// group commits and applies disjoint batches in parallel; the test
// asserts nothing is lost, the volume checks clean, and the journal
// quiesces. Run under -race this covers the shipper/window locking, the
// group-commit queue, and the conflict-scheduler workers.
func TestWritePipeStress(t *testing.T) {
	sink := obs.New()
	sys, err := core.New(core.Options{
		ArenaSize: 128 << 20, AcquireTimeout: 30 * time.Second, Obs: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	const (
		clients = 4
		files   = 40
	)
	// One directory per session, created synchronously up front.
	setup, err := sys.NewSession(libfs.Config{UID: 1})
	if err != nil {
		t.Fatal(err)
	}
	rootLock := setup.Root.Lock()
	if err := setup.Clerk.Acquire(rootLock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	dirs := make([]sobj.OID, clients)
	for i := range dirs {
		d, err := setup.CreateCollectionStaged(0, 0755)
		if err != nil {
			t.Fatal(err)
		}
		if err := setup.DirInsert(setup.Root, []byte(fmt.Sprintf("d%d", i)), d, rootLock); err != nil {
			t.Fatal(err)
		}
		dirs[i] = d
	}
	if err := setup.Sync(); err != nil {
		t.Fatal(err)
	}
	setup.Clerk.Release(rootLock, lockservice.X)
	if err := setup.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	sessions := make([]*libfs.Session, clients)
	for i := 0; i < clients; i++ {
		sess, err := sys.NewSession(libfs.Config{UID: uint32(10 + i), BatchLimit: 1, Window: 8})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := sessions[i]
			lock := dirs[i].Lock()
			if err := sess.Clerk.Acquire(lock, lockservice.X, true); err != nil {
				errs[i] = err
				return
			}
			defer sess.Clerk.Release(lock, lockservice.X)
			for f := 0; f < files; f++ {
				oid, err := sess.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
				if err != nil {
					errs[i] = err
					return
				}
				if err := sess.DirInsert(dirs[i], []byte(fmt.Sprintf("f%03d", f)), oid, lock); err != nil {
					errs[i] = err
					return
				}
			}
			errs[i] = sess.Sync()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// Every file visible through a fresh session (no shadow help).
	check, err := sys.NewSession(libfs.Config{UID: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	for i := 0; i < clients; i++ {
		for f := 0; f < files; f++ {
			if _, ok, err := check.DirLookup(dirs[i], []byte(fmt.Sprintf("f%03d", f))); err != nil || !ok {
				t.Fatalf("d%d/f%03d missing: ok=%v err=%v", i, f, ok, err)
			}
		}
	}
	for i := range sessions {
		if err := sessions[i].Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if !sys.Set.JournalIdle() {
		t.Fatal("journal not idle after stress")
	}
	rep, err := sys.Set.Fsck(false)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if rep.LostBlocks != 0 || rep.LeakedBlocks != 0 {
		t.Fatalf("fsck not clean after stress: %v", rep)
	}
	if counterValue(sink, "tfs.groupcommit.fences") == 0 {
		t.Fatal("no group-commit fences recorded")
	}
}

// TestLogOpsInvolvedRoutesCrossShard: LogOps's involved OIDs join the
// routing decision. The same ops ride shard 0's window alone, but naming an
// object on shard 1 makes the group a cross-shard transaction (TxApply).
func TestLogOpsInvolvedRoutesCrossShard(t *testing.T) {
	sink := obs.New()
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, Shards: 2, AcquireTimeout: 10 * time.Second, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	s, err := sys.NewSession(libfs.Config{UID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	oid, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(s.Root, []byte("f"), oid, lock); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	txns := sink.Counter("tfs.2pc.txns")
	setSize := []fsproto.Op{{Code: fsproto.OpSetSize, Target: oid, Val: 1, CoverLock: lock}}
	if err := s.LogOps(setSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := txns.Load(); got != 0 {
		t.Fatalf("single-shard group ran %d transactions, want 0", got)
	}
	if s.ShardOf(s.ShardRoot(1)) != 1 {
		t.Fatal("shard 1's root is not on shard 1")
	}
	if err := s.LogOps(setSize, s.ShardRoot(1)); err != nil {
		t.Fatal(err)
	}
	if got := txns.Load(); got != 1 {
		t.Fatalf("group naming a shard-1 object ran %d transactions, want 1", got)
	}
}
