package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/flatfs"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/sobj"
)

func newShardedSystem(t *testing.T, shards int, track bool, sink *obs.Sink) *System {
	t.Helper()
	sys, err := New(Options{
		ArenaSize:        64 << 20,
		Shards:           shards,
		TrackPersistence: track,
		Lease:            time.Hour,
		AcquireTimeout:   10 * time.Second,
		Obs:              sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// crossShardDirs makes top-level directories until two land on different
// shards and returns their names. The placement hash is deterministic per
// volume, but which names collide is not worth predicting in a test.
func crossShardDirs(t *testing.T, fs *pxfs.FS, s *libfs.Session) (src, dst string) {
	t.Helper()
	firstShard, firstName := -1, ""
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("d%02d", i)
		if err := fs.Mkdir("/"+name, 0o755); err != nil {
			t.Fatal(err)
		}
		oid, found, err := s.DirLookup(s.Root, []byte(name))
		if err != nil || !found {
			t.Fatalf("lookup %s: found=%v err=%v", name, found, err)
		}
		sh := s.ShardOf(oid)
		if firstShard < 0 {
			firstShard, firstName = sh, name
		} else if sh != firstShard {
			return "/" + firstName, "/" + name
		}
	}
	t.Fatal("32 directories all hashed to one shard")
	return "", ""
}

// TestShardedEndToEnd drives a 2-shard machine through the full client
// surface: directory placement across shards, a cross-shard rename running
// as a two-phase transaction (proved by the 2PC counter), and reads of the
// moved content through a second session.
func TestShardedEndToEnd(t *testing.T) {
	sink := obs.New()
	sys := newShardedSystem(t, 2, false, sink)
	defer sys.Close()
	if got := sys.Set.Shards(); got != 2 {
		t.Fatalf("Shards() = %d, want 2", got)
	}
	sess := session(t, sys, 1000)
	if sess.Shards() != 2 {
		t.Fatalf("session sees %d shards, want 2", sess.Shards())
	}
	fs := pxfs.New(sess, pxfs.Options{})
	srcDir, dstDir := crossShardDirs(t, fs, sess)

	contents := []byte("moved across trusted services")
	f, err := fs.Create(srcDir+"/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(contents); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	txnsBefore := sink.Counter("tfs.2pc.txns").Load()
	if err := fs.Rename(srcDir+"/f", dstDir+"/f"); err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}
	if got := sink.Counter("tfs.2pc.txns").Load(); got != txnsBefore+1 {
		t.Fatalf("2PC txns = %d, want %d (rename did not run as a transaction)", got, txnsBefore+1)
	}
	if _, err := fs.Stat(srcDir + "/f"); err == nil {
		t.Fatal("source name survived the rename")
	}

	// A second session must see the moved file with intact contents.
	b := session(t, sys, 1001)
	bfs := pxfs.New(b, pxfs.Options{})
	g, err := bfs.Open(dstDir+"/f", pxfs.O_RDONLY)
	if err != nil {
		t.Fatalf("open moved file: %v", err)
	}
	buf := make([]byte, len(contents))
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	_ = g.Close()
	if !bytes.Equal(buf, contents) {
		t.Fatalf("moved contents = %q, want %q", buf, contents)
	}
}

// TestShardedFlatFSSpread checks FlatFS key placement: keys bucket-hash
// across the per-shard root namespaces, every key stays readable, and
// Keys/Count enumerate across all shards.
func TestShardedFlatFSSpread(t *testing.T) {
	sys := newShardedSystem(t, 4, false, nil)
	defer sys.Close()
	sess := session(t, sys, 1000)
	kv := flatfs.New(sess, flatfs.Options{})

	const n = 32
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%02d", i)
		if err := kv.Put(key, []byte("val-"+key)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	if err := kv.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%02d", i)
		got, err := kv.Get(key)
		if err != nil || string(got) != "val-"+key {
			t.Fatalf("get %s: %q %v", key, got, err)
		}
	}
	if c, err := kv.Count(); err != nil || c != n {
		t.Fatalf("Count = %d %v, want %d", c, err, n)
	}
	keys, err := kv.Keys()
	if err != nil || len(keys) != n {
		t.Fatalf("Keys = %d %v, want %d", len(keys), err, n)
	}

	// The keys must really be spread: at least two shard roots hold entries.
	shardsUsed := map[int]bool{}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key%02d", i))
		for sh := 0; sh < sess.Shards(); sh++ {
			if _, found, err := sess.DirLookup(sess.ShardRoot(sh), key); err == nil && found {
				shardsUsed[sh] = true
			}
		}
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("32 keys landed on %d shard(s); bucket placement is not spreading", len(shardsUsed))
	}

	// Erase a key and confirm enumeration shrinks.
	if err := kv.Erase("key00"); err != nil {
		t.Fatal(err)
	}
	if err := kv.Sync(); err != nil {
		t.Fatal(err)
	}
	if c, err := kv.Count(); err != nil || c != n-1 {
		t.Fatalf("Count after erase = %d %v, want %d", c, err, n-1)
	}
}

// TestShardedCrashRecovery crashes a 2-shard machine after synced
// cross-shard work and demands every shard recover: the moved file, the
// per-shard allocations, and a clean whole-set fsck.
func TestShardedCrashRecovery(t *testing.T) {
	sys := newShardedSystem(t, 2, true, nil)
	defer sys.Close()
	sess := session(t, sys, 1000)
	fs := pxfs.New(sess, pxfs.Options{})
	srcDir, dstDir := crossShardDirs(t, fs, sess)

	contents := []byte("durable across shards")
	f, err := fs.Create(srcDir+"/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(contents); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// The cross-shard rename applies synchronously; it is durable when the
	// call returns, with no further sync needed.
	if err := fs.Rename(srcDir+"/f", dstDir+"/f"); err != nil {
		t.Fatal(err)
	}

	if err := sys.CrashAndRecover(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	b := session(t, sys, 1001)
	bfs := pxfs.New(b, pxfs.Options{})
	if _, err := bfs.Stat(srcDir + "/f"); err == nil {
		t.Fatal("source name resurrected by recovery")
	}
	g, err := bfs.Open(dstDir+"/f", pxfs.O_RDONLY)
	if err != nil {
		t.Fatalf("moved file lost in crash: %v", err)
	}
	buf := make([]byte, len(contents))
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	_ = g.Close()
	if !bytes.Equal(buf, contents) {
		t.Fatalf("contents after crash = %q, want %q", buf, contents)
	}
	rep, err := sys.Set.Fsck(false)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if rep.LeakedBlocks != 0 {
		t.Fatalf("recovery leaked blocks: %v", rep)
	}
}

// TestShardedRestartScavengesAllShards forces pool refills on two shards,
// restarts the trusted set, and checks both shards scavenged the dead
// client's pre-allocations.
func TestShardedRestartScavengesAllShards(t *testing.T) {
	sys := newShardedSystem(t, 2, false, nil)
	defer sys.Close()
	sess := session(t, sys, 1000)
	for sh := 0; sh < 2; sh++ {
		if _, err := sess.AllocStagedOn(sh, 4096); err != nil {
			t.Fatalf("shard %d prealloc: %v", sh, err)
		}
	}
	before := []uint64{sys.Set.Shard(0).FreeBytes(), sys.Set.Shard(1).FreeBytes()}
	if err := sys.RestartTFS(); err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < 2; sh++ {
		if sys.Set.Shard(sh).FreeBytes() <= before[sh] {
			t.Fatalf("shard %d prealloc not scavenged: %d <= %d",
				sh, sys.Set.Shard(sh).FreeBytes(), before[sh])
		}
	}
}

// TestShardedStatfsSumsShardRows: the volume's free space is every shard's,
// not shard 0's — what aerie-tfsd's banner and a client's df report is the
// sum of the per-shard rows.
func TestShardedStatfsSumsShardRows(t *testing.T) {
	sys := newShardedSystem(t, 2, false, nil)
	defer sys.Close()
	sess := session(t, sys, 1000)
	// Unbalance the shards: a pool refill on shard 1 only.
	if _, err := sess.AllocStagedOn(1, 4096); err != nil {
		t.Fatal(err)
	}
	st, err := sys.Set.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("%d shard rows, want 2", len(st.Shards))
	}
	var free, total uint64
	for i, row := range st.Shards {
		if row.FreeBytes != sys.Set.Shard(i).FreeBytes() {
			t.Fatalf("shard %d row: free %d, allocator says %d", i, row.FreeBytes, sys.Set.Shard(i).FreeBytes())
		}
		free += row.FreeBytes
		total += row.TotalBytes
	}
	if st.FreeBytes != free || st.TotalBytes != total {
		t.Fatalf("aggregate free %d total %d, rows sum to %d / %d", st.FreeBytes, st.TotalBytes, free, total)
	}
	if st.Shards[0].FreeBytes == st.Shards[1].FreeBytes || st.FreeBytes <= st.Shards[0].FreeBytes {
		t.Fatalf("shard 0 alone (%d) stands in for the volume (%d): rows %+v", st.Shards[0].FreeBytes, st.FreeBytes, st.Shards)
	}
	// A client sees the same numbers through the RPC.
	got, err := sess.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if got.FreeBytes != st.FreeBytes || len(got.Shards) != 2 {
		t.Fatalf("session statfs: free %d with %d rows, want %d with 2", got.FreeBytes, len(got.Shards), st.FreeBytes)
	}
}

// TestShardedSingleShardDegenerate pins the one-shard machine's behavior
// as a client sees it: one shard, the root on it, files land and read back.
func TestShardedSingleShardDegenerate(t *testing.T) {
	sys := newShardedSystem(t, 1, false, nil)
	defer sys.Close()
	sess := session(t, sys, 1000)
	if sess.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", sess.Shards())
	}
	if sess.ShardOf(sess.Root) != 0 {
		t.Fatal("root not on shard 0")
	}
	oid := createFile(t, sess, "classic", []byte("unchanged"))
	if err := sess.Sync(); err != nil {
		t.Fatal(err)
	}
	if oid.Type() == sobj.TypeCollection {
		t.Fatal("file came back as a collection")
	}
}
