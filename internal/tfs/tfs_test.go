package tfs

import (
	"errors"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/sobj"
)

var testConfig = Config{Lease: time.Minute, AcquireTimeout: 5 * time.Second}

// formatShards formats n equal partitions of a fresh arena as shard volumes.
func formatShards(t *testing.T, n int) (*scmmgr.Manager, *scmmgr.Process, []scmmgr.PartitionID) {
	t.Helper()
	mem := scm.New(scm.Config{Size: 64 << 20})
	t.Cleanup(func() { mem.Close() })
	mgr, err := scmmgr.FormatAndAttach(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc := scmmgr.NewProcess(0)
	var parts []scmmgr.PartitionID
	for i := 0; i < n; i++ {
		part, err := mgr.CreatePartition(48<<20/uint64(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := FormatVolume(mgr, proc, part, testConfig); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	return mgr, proc, parts
}

// newSet formats n shards and serves them, returning the set and the server
// for white-box tests.
func newSet(t *testing.T, n int) (*ShardSet, *rpc.Server) {
	t.Helper()
	mgr, proc, parts := formatShards(t, n)
	srv := rpc.NewServer()
	set, err := ServeShards(srv, mgr, proc, parts, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Locks.Shutdown)
	return set, srv
}

// newService serves a set of one, returning the shard and the server.
func newService(t *testing.T) (*Service, *rpc.Server) {
	t.Helper()
	set, srv := newSet(t, 1)
	return set.Shard(0), srv
}

// TestAttachRequiresSideLog: every volume FormatVolume writes has a
// transaction side-log, so a superblock without one is not a volume this
// service can run; attach refuses it instead of dereferencing a missing log.
func TestAttachRequiresSideLog(t *testing.T) {
	mgr, proc, parts := formatShards(t, 1)
	info, err := mgr.Partition(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := scm.Write64(mgr.Mem(), info.Start+offSBTxBase, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ServeShards(rpc.NewServer(), mgr, proc, parts, testConfig); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("attach without a side-log: %v, want ErrNotFormatted", err)
	}
}

// TestCheckHomeActs: a single-shard batch whose actions touch another
// shard's storage is a routing error naming the owner, so a stale client can
// re-route; one touching storage no shard owns is a forgery and fails
// validation rather than sending the client to shard 0.
func TestCheckHomeActs(t *testing.T) {
	set, _ := newSet(t, 2)
	s0, s1 := set.Shard(0), set.Shard(1)
	if err := s0.checkHomeActs([]action{{code: jSetSize, oid: s0.root}}); err != nil {
		t.Fatalf("home action: %v", err)
	}
	var ws *fsproto.WrongShardError
	err := s0.checkHomeActs([]action{{code: jSetSize, oid: s1.root}})
	if !errors.As(err, &ws) || ws.Shard != 1 {
		t.Fatalf("foreign-shard action: %v, want WrongShardError naming shard 1", err)
	}
	// The first page of the arena is the SCM manager's, in no partition.
	err = s1.checkHomeActs([]action{{code: jFree, a: scm.PageSize, b: scm.PageSize}})
	if !errors.Is(err, ErrValidation) || errors.As(err, &ws) {
		t.Fatalf("unowned address: %v, want ErrValidation", err)
	}
}

func TestFsckCleanVolume(t *testing.T) {
	svc, _ := newService(t)
	rep, err := svc.set.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks != 0 {
		t.Fatalf("fresh volume leaks: %v", rep)
	}
	if rep.Objects < 2 { // root + prealloc collection
		t.Fatalf("objects = %d", rep.Objects)
	}
	if rep.ReachableBlocks != rep.AllocatedBlocks {
		t.Fatalf("reachable %d != allocated %d", rep.ReachableBlocks, rep.AllocatedBlocks)
	}
}

func TestFsckDetectsAndRepairsLeak(t *testing.T) {
	svc, _ := newService(t)
	// Leak storage the way a crash between journal commit and checkpoint
	// can: allocate directly without any referencing structure.
	if _, err := svc.bd.Alloc(8 * 4096); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.set.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks != 8 {
		t.Fatalf("leaked = %d, want 8", rep.LeakedBlocks)
	}
	free := svc.FreeBytes()
	rep, err = svc.set.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedBlocks != 8 {
		t.Fatalf("repaired = %d", rep.RepairedBlocks)
	}
	if svc.FreeBytes() != free+8*4096 {
		t.Fatalf("free space not restored: %d vs %d", svc.FreeBytes(), free+8*4096)
	}
	rep, _ = svc.set.Fsck(false)
	if rep.LeakedBlocks != 0 {
		t.Fatalf("still leaking after repair: %v", rep)
	}
}

func TestApplyLogRejectsGarbage(t *testing.T) {
	svc, srv := newService(t)
	client := rpc.DialInProc(srv, nil, nil, nil)
	defer client.Close()
	hdr := fsproto.BatchHeader{RoutingEpoch: svc.set.RoutingEpoch(), Seq: 1, Epoch: 1, Opener: true}
	// Structurally invalid payload: a good header, then soup for ops.
	garbage := append(fsproto.AppendBatch(nil, hdr, nil)[:fsproto.BatchHeaderLen], 0xff, 0x01)
	if _, err := client.Call(fsproto.MethodApplyLogShard, garbage); err == nil {
		t.Fatal("garbage batch accepted")
	}
	// Valid encoding, bogus op: insert into a non-collection target.
	bad := fsproto.AppendBatch(nil, hdr, []fsproto.Op{{
		Code: fsproto.OpInsert, Target: sobj.OID(0x1000) | sobj.OID(sobj.TypeMFile),
		Child: svc.Root(), Key: []byte("x"), CoverLock: 42,
	}})
	if _, err := client.Call(fsproto.MethodApplyLogShard, bad); err == nil {
		t.Fatal("insert into mFile accepted")
	}
	if svc.opsRejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestPreallocLimits(t *testing.T) {
	svc, srv := newService(t)
	client := rpc.DialInProc(srv, nil, nil, nil)
	defer client.Close()
	if _, err := svc.prealloc(client.ClientID(), 4096, 0); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := svc.prealloc(client.ClientID(), 128<<20, 1); err == nil {
		t.Fatal("absurd size accepted")
	}
	addrs, err := svc.prealloc(client.ClientID(), 4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 8 {
		t.Fatalf("got %d extents", len(addrs))
	}
	// The tracking collection knows them: fsck counts them reachable.
	rep, err := svc.set.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks != 0 {
		t.Fatalf("prealloc reported as leak: %v", rep)
	}
}

func TestOpenFileTableKeepsUnlinkedAlive(t *testing.T) {
	svc, _ := newService(t)
	oid := svc.Root() // any valid object works for the table mechanics
	svc.openFile(7, oid)
	svc.openFile(8, oid)
	if err := svc.closeFile(7, oid); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	st := svc.openFiles[oid]
	svc.mu.Unlock()
	if st == nil || st.opens != 1 {
		t.Fatalf("open table state: %+v", st)
	}
	if err := svc.closeFile(8, oid); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	_, still := svc.openFiles[oid]
	svc.mu.Unlock()
	if still {
		t.Fatal("entry not cleared after last close")
	}
}

func TestChmodHardwareProtection(t *testing.T) {
	svc, srv := newService(t)
	client := rpc.DialInProc(srv, nil, nil, nil)
	defer client.Close()
	// Build a small file server-side for the protection walk.
	m, err := sobj.CreateMFile(svc.mem, svc.bd, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := svc.bd.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachExtent(svc.bd, 0, ext); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSize(4096); err != nil {
		t.Fatal(err)
	}
	if err := svc.chmod(client.ClientID(), m.OID(), 0444, true); err != nil {
		t.Fatal(err)
	}
	h, err := sobj.ReadHeader(svc.mem, m.OID())
	if err != nil {
		t.Fatal(err)
	}
	if h.Perm != 0444 {
		t.Fatalf("perm = %o", h.Perm)
	}
}

func TestBatchCounterStats(t *testing.T) {
	svc, _ := newService(t)
	var c costmodel.Counter
	c.Add(3)
	if c.Load() != 3 {
		t.Fatal("counter broken")
	}
	if svc.BatchesApplied.Load() != 0 {
		t.Fatal("fresh service applied batches")
	}
}
