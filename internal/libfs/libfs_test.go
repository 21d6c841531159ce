package libfs_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/faultinject"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/sobj"
)

func newSess(t *testing.T, cfg libfs.Config) (*libfs.Session, *core.System) {
	t.Helper()
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sys.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, sys
}

func TestPoolRefillsInBatches(t *testing.T) {
	s, _ := newSess(t, libfs.Config{UID: 1, PoolRefill: 16})
	for i := 0; i < 40; i++ {
		if _, err := s.AllocStaged(4096); err != nil {
			t.Fatal(err)
		}
	}
	// 40 allocations at refill 16 need ceil(40/16)=3 RPCs.
	if got := s.PoolRefills.Load(); got != 3 {
		t.Fatalf("refills = %d, want 3", got)
	}
}

func TestFreeStagedReturnsToPool(t *testing.T) {
	s, _ := newSess(t, libfs.Config{UID: 1, PoolRefill: 4})
	a, err := s.AllocStaged(4096)
	if err != nil {
		t.Fatal(err)
	}
	s.FreeStaged(a, 4096)
	refills := s.PoolRefills.Load()
	b, err := s.AllocStaged(4096)
	if err != nil {
		t.Fatal(err)
	}
	if s.PoolRefills.Load() != refills {
		t.Fatal("freed extent did not come back from the pool")
	}
	_ = b
}

func TestBatchLimitTriggersShipping(t *testing.T) {
	s, _ := newSess(t, libfs.Config{UID: 1, BatchLimit: 300}) // tiny: a few ops
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	for i := 0; i < 10; i++ {
		oid, err := s.CreateMFileStaged(0644, sobj.DefaultExtentLog)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.DirInsert(s.Root, []byte{byte('a' + i)}, oid, lock); err != nil {
			t.Fatal(err)
		}
	}
	if s.Flushes.Load() == 0 {
		t.Fatal("batch limit never triggered a flush")
	}
}

func TestShadowReadsOwnPendingWrites(t *testing.T) {
	s, _ := newSess(t, libfs.Config{UID: 1, BatchLimit: 16 << 20})
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	oid, err := s.CreateMFileStaged(0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("shadow"), 3000)
	if _, err := s.FileWrite(oid, payload, 0, lock); err != nil {
		t.Fatal(err)
	}
	if s.PendingOps() == 0 {
		t.Fatal("expected staged ops")
	}
	got := make([]byte, len(payload))
	if _, err := s.FileRead(oid, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("shadow read mismatch before shipping")
	}
	size, err := s.FileSize(oid)
	if err != nil || size != uint64(len(payload)) {
		t.Fatalf("shadow size = %d, %v", size, err)
	}
	// After shipping, reads come from the applied structures.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FileRead(oid, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read mismatch after shipping")
	}
}

func TestDirIterateMergesOverlay(t *testing.T) {
	s, _ := newSess(t, libfs.Config{UID: 1, BatchLimit: 16 << 20})
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	// One applied entry, one staged insert, one staged remove.
	a, _ := s.CreateMFileStaged(0644, sobj.DefaultExtentLog)
	_ = s.DirInsert(s.Root, []byte("applied"), a, lock)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	b, _ := s.CreateMFileStaged(0644, sobj.DefaultExtentLog)
	_ = s.DirInsert(s.Root, []byte("staged"), b, lock)
	_ = s.DirRemove(s.Root, []byte("applied"), lock)
	seen := map[string]bool{}
	if err := s.DirIterate(s.Root, func(key []byte, _ sobj.OID) error {
		seen[string(key)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !seen["staged"] || seen["applied"] || len(seen) != 1 {
		t.Fatalf("overlay iterate = %v", seen)
	}
}

func TestStagedInsertsCounter(t *testing.T) {
	s, _ := newSess(t, libfs.Config{UID: 1, BatchLimit: 16 << 20})
	lock := s.Root.Lock()
	_ = s.Clerk.Acquire(lock, lockservice.X, true)
	defer s.Clerk.Release(lock, lockservice.X)
	if n := s.StagedInserts(s.Root); n != 0 {
		t.Fatalf("fresh staged = %d", n)
	}
	oid, _ := s.CreateMFileStaged(0644, sobj.DefaultExtentLog)
	_ = s.DirInsert(s.Root, []byte("x"), oid, lock)
	if n := s.StagedInserts(s.Root); n != 1 {
		t.Fatalf("staged = %d", n)
	}
	_ = s.Sync()
	if n := s.StagedInserts(s.Root); n != 0 {
		t.Fatalf("staged after sync = %d", n)
	}
}

// TestTruncateMidBlockSurvivesAutoShip is a regression test: the
// copy-on-truncate triple (truncate to the block boundary, attach the
// fresh head-carrying extent, set the logical size) used to be staged by
// three separate LogOp calls, so when the batch limit tripped on the first
// of them the TFS applied the destructive boundary truncate alone and the
// ship cleared the fresh extent's shadow — the kept block's head bytes
// then read as zeros until the rest shipped, and a crash in between lost
// them durably. The triple is now staged atomically via LogOps.
func TestTruncateMidBlockSurvivesAutoShip(t *testing.T) {
	const limit = 1000
	s, _ := newSess(t, libfs.Config{UID: 1, BatchLimit: limit})
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	oid, err := s.CreateMFileStaged(0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(s.Root, []byte("t.bin"), oid, lock); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*4096)
	for i := range data {
		data[i] = byte(i%251 + 1)
	}
	if _, err := s.FileWrite(oid, data, 0, lock); err != nil {
		t.Fatal(err)
	}
	// Commit, so the truncate below hits an applied extent and takes the
	// copy-on-truncate path rather than zeroing a pending extent in place.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Prefill the batch with no-op size sets (64 bytes each) to just under
	// the limit, so the next staged op crosses it: with a split triple the
	// auto-ship would apply the boundary truncate alone.
	for i := 0; i < (limit-64+63)/64; i++ {
		if err := s.FileSetSize(oid, uint64(len(data)), lock); err != nil {
			t.Fatal(err)
		}
	}
	flushes := s.Flushes.Load()
	n := uint64(4096 + 100) // mid-block cut: block 1 keeps 100 head bytes
	if err := s.FileTruncate(oid, n, lock); err != nil {
		t.Fatal(err)
	}
	if s.Flushes.Load() == flushes {
		t.Fatal("truncate did not trip the batch limit; the test no longer exercises the auto-ship")
	}
	check := func(when string) {
		size, err := s.FileSize(oid)
		if err != nil || size != n {
			t.Fatalf("%s: size = %d, %v; want %d", when, size, err, n)
		}
		got := make([]byte, n)
		if _, err := s.FileRead(oid, got, 0); err != nil {
			t.Fatalf("%s: read: %v", when, err)
		}
		if !bytes.Equal(got, data[:n]) {
			t.Fatalf("%s: kept bytes corrupted by mid-block truncate", when)
		}
	}
	check("after truncate")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	check("after sync")
}

func TestSingleExtentGrowthAcrossSync(t *testing.T) {
	s, _ := newSess(t, libfs.Config{UID: 1})
	lock := s.Root.Lock()
	_ = s.Clerk.Acquire(lock, lockservice.X, true)
	defer s.Clerk.Release(lock, lockservice.X)
	oid, err := s.CreateMFileSingleStaged(0644, 4096)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.DirInsert(s.Root, []byte("grow"), oid, lock)
	big := bytes.Repeat([]byte{7}, 20000) // outgrows 4096
	if _, err := s.FileWrite(oid, big, 0, lock); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(big))
	if _, err := s.FileRead(oid, got, 0); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("pre-sync read: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FileRead(oid, got, 0); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("post-sync read: %v", err)
	}
}

func TestReleaseHookRuns(t *testing.T) {
	s, sys := newSess(t, libfs.Config{UID: 1})
	fired := 0
	s.AddReleaseHook(func(uint64) { fired++ })
	lock := s.Root.Lock()
	_ = s.Clerk.Acquire(lock, lockservice.S, false)
	s.Clerk.Release(lock, lockservice.S)
	s.Clerk.ReleaseGlobal(lock)
	if fired == 0 {
		t.Fatal("release hook never ran")
	}
	_ = sys
}

// TestMountOverTCP exercises the paper's loopback-socket deployment end to
// end: mount, lock traffic, metadata batch shipping, and revocation
// callbacks all cross real TCP connections.
func TestMountOverTCP(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := sys.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := libfs.MountTCP(ln.Addr(), sys.Mgr, libfs.Config{UID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	lock := a.Root.Lock()
	if err := a.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	oid, err := a.CreateMFileStaged(0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.FileWrite(oid, []byte("over tcp"), 0, lock); err != nil {
		t.Fatal(err)
	}
	if err := a.DirInsert(a.Root, []byte("tcp-file"), oid, lock); err != nil {
		t.Fatal(err)
	}
	a.Clerk.Release(lock, lockservice.X)

	// A second TCP client revokes the first's cached lock (callback over
	// the dial-back connection) and reads the shipped file.
	b, err := libfs.MountTCP(ln.Addr(), sys.Mgr, libfs.Config{UID: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Clerk.Acquire(lock, lockservice.S, false); err != nil {
		t.Fatal(err)
	}
	defer b.Clerk.Release(lock, lockservice.S)
	got, found, err := b.DirLookup(b.Root, []byte("tcp-file"))
	if err != nil || !found {
		t.Fatalf("lookup over tcp: %v %v", found, err)
	}
	buf := make([]byte, 8)
	if _, err := b.FileRead(got, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "over tcp" {
		t.Fatalf("read %q", buf)
	}
}

func TestFlushRequeuesOnTransportFailure(t *testing.T) {
	inj := faultinject.New()
	sys, err := core.New(core.Options{
		ArenaSize:      64 << 20,
		AcquireTimeout: 10 * time.Second,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	// RenewEvery is huge so no background renewal RPC races the armed
	// fault ordinal below.
	s, err := sys.NewSession(libfs.Config{UID: 1, BatchLimit: 16 << 20, RenewEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	oid, err := s.CreateMFileStaged(0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(s.Root, []byte("file"), oid, lock); err != nil {
		t.Fatal(err)
	}
	pending := s.PendingOps()
	if pending == 0 {
		t.Fatal("no pending ops staged")
	}

	// First ship: the response is lost after the TFS applied the batch.
	// (Ordinals count from injector creation, so arm relative to now.)
	inj.FailAt("rpc.reply", inj.Counts()["rpc.reply"]+1, nil)
	err = s.Sync()
	if !errors.Is(err, libfs.ErrTFSUnreachable) {
		t.Fatalf("Sync err = %v, want ErrTFSUnreachable", err)
	}
	if got := s.PendingOps(); got != pending {
		t.Fatalf("pending = %d after transport failure, want %d (requeued)", got, pending)
	}
	// The shadows survived, so the client still sees its pending updates.
	if _, ok, err := s.DirLookup(s.Root, []byte("file")); err != nil || !ok {
		t.Fatalf("shadow lookup after requeue: ok=%v err=%v", ok, err)
	}

	applied := sys.Set.Shard(0).BatchesApplied.Load()

	// Retry once the transport recovers: the parked batch replays under
	// its original request ID, so the server's dedup cache returns the
	// first execution's result instead of applying it twice.
	if err := s.Sync(); err != nil {
		t.Fatalf("retry Sync: %v", err)
	}
	if got := s.PendingOps(); got != 0 {
		t.Fatalf("pending = %d after successful retry", got)
	}
	if got := sys.Set.Shard(0).BatchesApplied.Load(); got != applied {
		t.Fatalf("retry re-applied the batch (applied %d -> %d), want at-most-once", applied, got)
	}
	if _, ok, err := s.DirLookup(s.Root, []byte("file")); err != nil || !ok {
		t.Fatalf("lookup after retry: ok=%v err=%v", ok, err)
	}
}
