package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/scm"
	"github.com/aerie-fs/aerie/internal/sobj"
)

func newSystem(t *testing.T, track bool) *System {
	t.Helper()
	sys, err := New(Options{
		ArenaSize:        64 << 20,
		TrackPersistence: track,
		Lease:            500 * time.Millisecond,
		AcquireTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func session(t *testing.T, sys *System, uid uint32) *libfs.Session {
	t.Helper()
	s, err := sys.NewSession(libfs.Config{UID: uid, BatchLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// freeBytes is the volume's allocatable space as the set reports it.
func freeBytes(t *testing.T, sys *System) uint64 {
	t.Helper()
	st, err := sys.Set.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	return st.FreeBytes
}

// createFile stages a file with contents and links it under root.
func createFile(t *testing.T, s *libfs.Session, name string, contents []byte) sobj.OID {
	t.Helper()
	rootLock := s.Root.Lock()
	if err := s.Clerk.Acquire(rootLock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(rootLock, lockservice.X)
	oid, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FileWrite(oid, contents, 0, rootLock); err != nil {
		t.Fatal(err)
	}
	if err := s.DirInsert(s.Root, []byte(name), oid, rootLock); err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestEndToEndCreateWriteReadAcrossClients(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	contents := []byte("the quick brown fox")
	oid := createFile(t, a, "greeting", contents)

	// Before shipping, a sees its own staged file; b does not.
	buf := make([]byte, len(contents))
	if _, err := a.FileRead(oid, buf, 0); err != nil || !bytes.Equal(buf, contents) {
		t.Fatalf("self-read: %q %v", buf, err)
	}
	b := session(t, sys, 1001)
	if _, found, _ := b.DirLookup(b.Root, []byte("greeting")); found {
		t.Fatal("b sees unshipped create")
	}
	// b acquires the root lock: this revokes a's cached lock, which ships
	// a's batch (sequential sharing, §4.3).
	if err := b.Clerk.Acquire(b.Root.Lock(), lockservice.S, false); err != nil {
		t.Fatal(err)
	}
	got, found, err := b.DirLookup(b.Root, []byte("greeting"))
	if err != nil || !found {
		t.Fatalf("b lookup after revocation: %v %v", found, err)
	}
	if got != oid {
		t.Fatalf("oid mismatch: %v vs %v", got, oid)
	}
	buf2 := make([]byte, len(contents))
	if _, err := b.FileRead(got, buf2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2, contents) {
		t.Fatalf("b read %q", buf2)
	}
	b.Clerk.Release(b.Root.Lock(), lockservice.S)
}

func TestExplicitSyncShipsUpdates(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	oid := createFile(t, a, "f", []byte("data"))
	if a.PendingOps() == 0 {
		t.Fatal("expected buffered ops")
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if a.PendingOps() != 0 {
		t.Fatal("sync left ops buffered")
	}
	// Now visible in SCM directly.
	col, err := sobj.OpenCollection(a.Mem, a.Root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := col.Lookup([]byte("f"))
	if err != nil || got != oid {
		t.Fatalf("direct lookup: %v %v", got, err)
	}
}

func TestClientCrashDiscardsUnshippedUpdates(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	createFile(t, a, "doomed", []byte("bits"))
	a.Abandon() // client dies with unshipped metadata
	// After the lease expires, another client can lock and sees nothing.
	b := session(t, sys, 1001)
	if err := b.Clerk.Acquire(b.Root.Lock(), lockservice.X, false); err != nil {
		t.Fatal(err)
	}
	defer b.Clerk.Release(b.Root.Lock(), lockservice.X)
	if _, found, _ := b.DirLookup(b.Root, []byte("doomed")); found {
		t.Fatal("crashed client's updates survived")
	}
}

func TestUpdateRejectedWithoutLock(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	// Stage an insert without holding any lock: TFS must reject the batch.
	oid, err := a.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.DirInsert(a.Root, []byte("sneaky"), oid, a.Root.Lock()); err != nil {
		t.Fatal(err)
	}
	err = a.FlushUpdates()
	if !errors.Is(err, libfs.ErrStaleBatch) {
		t.Fatalf("flush without lock: %v", err)
	}
	// Nothing leaked into the namespace.
	col, _ := sobj.OpenCollection(a.Mem, a.Root)
	if _, err := col.Lookup([]byte("sneaky")); !errors.Is(err, sobj.ErrNotFound) {
		t.Fatal("rejected insert is visible")
	}
}

func TestMachineCrashRecoversCommittedState(t *testing.T) {
	sys := newSystem(t, true)
	a := session(t, sys, 1000)
	oid := createFile(t, a, "persistent", []byte("durable bytes"))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashAndRecover(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	b := session(t, sys, 1001)
	got, found, err := b.DirLookup(b.Root, []byte("persistent"))
	if err != nil || !found || got != oid {
		t.Fatalf("after crash: %v %v %v", got, found, err)
	}
	buf := make([]byte, 13)
	if _, err := b.FileRead(got, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "durable bytes" {
		t.Fatalf("content after crash: %q", buf)
	}
}

func TestMachineCrashDropsUnsyncedClientState(t *testing.T) {
	sys := newSystem(t, true)
	a := session(t, sys, 1000)
	createFile(t, a, "volatile", []byte("gone"))
	// No sync: client buffered everything locally.
	if err := sys.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	b := session(t, sys, 1001)
	if _, found, _ := b.DirLookup(b.Root, []byte("volatile")); found {
		t.Fatal("unsynced create survived machine crash")
	}
	// The pre-allocated extents the dead client staged into were
	// scavenged: allocate-heavy work still succeeds.
	for i := 0; i < 10; i++ {
		createFile(t, b, fmt.Sprintf("post-crash-%d", i), bytes.Repeat([]byte("y"), 5000))
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestTFSRestartScavengesPreallocs(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	// Force pool refills, then lose the client to a TFS restart.
	if _, err := a.AllocStaged(0, 4096); err != nil {
		t.Fatal(err)
	}
	freeBefore := freeBytes(t, sys)
	if err := sys.RestartTFS(); err != nil {
		t.Fatal(err)
	}
	if got := freeBytes(t, sys); got <= freeBefore {
		t.Fatalf("prealloc not scavenged: %d <= %d", got, freeBefore)
	}
}

func TestRenameCycleRejected(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	rootLock := a.Root.Lock()
	if err := a.Clerk.Acquire(rootLock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer a.Clerk.Release(rootLock, lockservice.X)
	dirA, err := a.CreateCollectionStaged(0, 0755)
	if err != nil {
		t.Fatal(err)
	}
	dirB, err := a.CreateCollectionStaged(0, 0755)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.DirInsert(a.Root, []byte("a"), dirA, rootLock); err != nil {
		t.Fatal(err)
	}
	if err := a.DirInsert(dirA, []byte("b"), dirB, rootLock); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	// Try to move a into a/b: cycle.
	if err := a.DirRename(a.Root, []byte("a"), dirB, []byte("a"), dirA, 0, rootLock, rootLock); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushUpdates(); !errors.Is(err, libfs.ErrStaleBatch) {
		t.Fatalf("cycle rename: %v", err)
	}
	// Namespace intact.
	got, found, _ := a.DirLookup(a.Root, []byte("a"))
	if !found || got != dirA {
		t.Fatal("namespace damaged by rejected rename")
	}
}

func TestAttachForeignExtentRejected(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	rootLock := a.Root.Lock()
	if err := a.Clerk.Acquire(rootLock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer a.Clerk.Release(rootLock, lockservice.X)
	oid, err := a.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.DirInsert(a.Root, []byte("f"), oid, rootLock); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	// Claim an extent the client never pre-allocated (e.g. the root
	// collection's own storage): must be rejected.
	if err := a.Clerk.Acquire(oid.Lock(), lockservice.X, false); err != nil {
		t.Fatal(err)
	}
	defer a.Clerk.Release(oid.Lock(), lockservice.X)
	if err := a.LogOp(forgedAttach(oid, a.Root.Addr())); err != nil {
		t.Fatal(err)
	}
	if err := a.FlushUpdates(); !errors.Is(err, libfs.ErrStaleBatch) {
		t.Fatalf("forged attach: %v", err)
	}
}

func TestDeleteFreesStorage(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	rootLock := a.Root.Lock()
	payload := bytes.Repeat([]byte("z"), 64*1024)
	oid := createFile(t, a, "big", payload)
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	freeAfterCreate := freeBytes(t, sys)
	if err := a.Clerk.Acquire(rootLock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	if err := a.DirRemove(a.Root, []byte("big"), oid, rootLock); err != nil {
		t.Fatal(err)
	}
	a.Clerk.Release(rootLock, lockservice.X)
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := freeBytes(t, sys); got <= freeAfterCreate {
		t.Fatalf("delete freed nothing: %d <= %d", got, freeAfterCreate)
	}
}

func TestTwoClientsSequentialSharing(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	b := session(t, sys, 1001)
	// a creates, b appends, a reads the combined result.
	oid := createFile(t, a, "shared", []byte("first|"))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	a.Clerk.FlushAll() // release cached locks voluntarily
	if err := b.Clerk.Acquire(oid.Lock(), lockservice.X, false); err != nil {
		t.Fatal(err)
	}
	size, err := b.FileSize(oid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.FileWrite(oid, []byte("second"), size, oid.Lock()); err != nil {
		t.Fatal(err)
	}
	b.Clerk.Release(oid.Lock(), lockservice.X)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	if _, err := a.FileRead(oid, buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "first|second" {
		t.Fatalf("combined = %q", buf)
	}
}

// TestStatVolThroughRPC stats a fresh volume the way a client does: Statfs
// over the session's RPC connection. The two-word StatVol it replaced is a
// retired method number.
func TestStatVolThroughRPC(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	if a.Root.Type() != sobj.TypeCollection {
		t.Fatal("root is not a collection")
	}
	st, err := a.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeBytes == 0 || st.FreeBytes > st.TotalBytes {
		t.Fatalf("fresh volume: free %d of %d", st.FreeBytes, st.TotalBytes)
	}
	if len(st.Shards) != 1 || st.Shards[0].FreeBytes != st.FreeBytes || st.Shards[0].TotalBytes != st.TotalBytes {
		t.Fatalf("one-shard volume: rows %+v, aggregate %+v", st.Shards, st)
	}
	rc := rpc.DialInProc(sys.Srv, nil, nil, nil)
	defer rc.Close()
	if _, err := rc.Call(fsproto.MethodStatVol, nil); err == nil || !strings.Contains(err.Error(), rpc.ErrNoHandler.Error()) {
		t.Fatalf("StatVol = %v, want no handler", err)
	}
}

// TestSessionAcrossCloseGetsTypedErrors: Close releases a volatile
// machine's arena too, and a session still mounted afterwards gets typed
// errors — from its direct reads and from the updates it ships — never a
// fault on the unmapped pages.
func TestSessionAcrossCloseGetsTypedErrors(t *testing.T) {
	sys := newSystem(t, false)
	a := session(t, sys, 1000)
	oid := createFile(t, a, "f", []byte("before close"))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	createFile(t, a, "g", []byte("staged, shipped after close"))
	mapped := scm.MappedBytes()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if freed := mapped - scm.MappedBytes(); freed != 64<<20 {
		t.Fatalf("Close unmapped %d bytes, want the 64 MiB arena", freed)
	}
	buf := make([]byte, 4)
	if _, err := a.FileRead(oid, buf, 0); !errors.Is(err, scm.ErrOutOfRange) {
		t.Errorf("read after Close: err = %v, want ErrOutOfRange", err)
	}
	if _, _, err := a.DirLookup(a.Root, []byte("f")); !errors.Is(err, scm.ErrOutOfRange) {
		t.Errorf("lookup after Close: err = %v, want ErrOutOfRange", err)
	}
	if _, err := a.FileWrite(oid, []byte("after"), 0, a.Root.Lock()); !errors.Is(err, scm.ErrOutOfRange) {
		t.Errorf("write after Close: err = %v, want ErrOutOfRange", err)
	}
	// The service validates the staged create against the released arena
	// and rejects the batch.
	if err := a.Sync(); !errors.Is(err, libfs.ErrStaleBatch) || !strings.Contains(err.Error(), scm.ErrOutOfRange.Error()) {
		t.Errorf("sync after Close: err = %v, want ErrStaleBatch for an out-of-range access", err)
	}
	if err := sys.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// forgedAttach builds a malicious OpAttachExtent claiming storage the
// client never pre-allocated.
func forgedAttach(target sobj.OID, addr uint64) fsproto.Op {
	return fsproto.Op{
		Code: fsproto.OpAttachExtent, Target: target,
		Val: 0, Val2: addr, CoverLock: target.Lock(),
	}
}
