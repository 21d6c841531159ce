package core

// Multi-tenant isolation tests (make tier2-tenant): weighted-fair
// scheduling keeps a light tenant's latency bounded under an aggressor
// flood, quota exhaustion behaves like the ENOSPC sweep (typed error,
// batch atomicity, no leaks, delete-to-recover), and per-shard TenantStat
// rows attribute reserved bytes to exactly the shards participating in a
// cross-shard transaction — observable mid-2PC because reservations are
// guarded by their own lock, not the shard's apply mutex.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/pxfs"
	"github.com/aerie-fs/aerie/internal/tfs"
)

func tenantSession(t *testing.T, sys *System, uid, tenant uint32) *libfs.Session {
	t.Helper()
	sess, err := sys.NewSession(libfs.Config{
		UID:        uid,
		Tenant:     tenant,
		BatchLimit: 1 << 20,
		PoolRefill: 2,
		RenewEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func tenancyWrite(fs *pxfs.FS, name string, data []byte) error {
	f, err := fs.Create(name, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Sync()
}

func tenancyRead(fs *pxfs.FS, name string, size int) ([]byte, error) {
	f, err := fs.Open(name, pxfs.O_RDONLY)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, size)
	n, err := f.ReadAt(buf, 0)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// tenantRow returns the single accounting row for (tenant, shard) from a
// TenantStat reply, failing the test if it is missing.
func tenantRow(t *testing.T, rows []fsproto.TenantUsage, tenant, shard uint32) fsproto.TenantUsage {
	t.Helper()
	for _, r := range rows {
		if r.Tenant == tenant && r.Shard == shard {
			return r
		}
	}
	t.Fatalf("no TenantStat row for tenant %d shard %d in %+v", tenant, shard, rows)
	return fsproto.TenantUsage{}
}

// TestQuotaSweepExhaustRecover is the quota analogue of the exhaustsweep's
// natural fill: a tenant with a 2 MiB quota on a 64 MiB volume fills until
// rejection. The rejection must be the typed ErrQuotaExceeded (NOT
// ErrNoSpace — the volume has plenty of free space), the rejected batch
// must not partially apply (journal idle, fsck clean without repair),
// every committed file must read back exactly, and deleting files on a
// full quota must succeed and restore forward progress.
func TestQuotaSweepExhaustRecover(t *testing.T) {
	const (
		tenant = uint32(7)
		quota  = uint64(2 << 20)
	)
	sys, err := New(Options{
		ArenaSize:      64 << 20,
		Lease:          time.Hour,
		AcquireTimeout: 10 * time.Second,
		Tenants:        map[uint32]tfs.TenantConfig{tenant: {Weight: 1, QuotaBytes: quota}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sess := tenantSession(t, sys, 1000, tenant)
	fs := pxfs.New(sess, pxfs.Options{NameCache: true})
	if err := fs.Mkdir("/fill", 0o755); err != nil {
		t.Fatal(err)
	}

	content := func(i int) []byte {
		b := make([]byte, 32<<10)
		for j := range b {
			b[j] = byte(i*131 + j)
		}
		return b
	}
	name := func(i int) string { return fmt.Sprintf("/fill/f%04d", i) }

	committed := 0
	var fillErr error
	for i := 0; i < 256; i++ {
		if fillErr = tenancyWrite(fs, name(i), content(i)); fillErr != nil {
			break
		}
		committed = i + 1
	}
	if fillErr == nil {
		t.Fatal("fill never hit the quota: 256 x 32KiB against a 2MiB quota")
	}
	if !errors.Is(fillErr, fsproto.ErrQuotaExceeded) {
		t.Fatalf("fill failure not the typed quota error: %v", fillErr)
	}
	if errors.Is(fillErr, fsproto.ErrNoSpace) {
		t.Fatalf("quota rejection must be distinct from ENOSPC: %v", fillErr)
	}
	if committed == 0 {
		t.Fatal("nothing committed before the quota hit")
	}

	// Batch atomicity: the rejected batch left nothing behind.
	if !sys.Set.JournalIdle() {
		t.Fatal("journal not idle after quota rejection: committed batch stranded")
	}
	rep, err := sys.Set.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks != 0 {
		t.Fatalf("quota rejection leaked %d blocks", rep.LeakedBlocks)
	}

	// Accounting explains the rejection: used+reserved within quota, and
	// the reject was counted. (Single shard: exactly one row.)
	rows, err := sess.TenantStat()
	if err != nil {
		t.Fatal(err)
	}
	row := tenantRow(t, rows, tenant, 0)
	if row.UsedBytes == 0 || row.UsedBytes+row.ReservedBytes > quota {
		t.Fatalf("accounting row out of bounds: %+v", row)
	}
	if row.QuotaRejects == 0 {
		t.Fatalf("quota reject not counted: %+v", row)
	}

	// The session reconverged: every committed file reads back exactly.
	for i := 0; i < committed; i++ {
		got, err := tenancyRead(fs, name(i), 32<<10)
		if err != nil {
			t.Fatalf("committed %s unreadable after quota rejection: %v", name(i), err)
		}
		if !bytes.Equal(got, content(i)) {
			t.Fatalf("committed %s corrupted after quota rejection", name(i))
		}
	}

	// Delete-to-recover: unlinking on a full quota must succeed — the
	// degraded (no-GC-rehash) remove carries zero space demand — and must
	// free enough charge for new work.
	for i := 0; i < committed/2; i++ {
		if err := fs.Unlink(name(i)); err != nil {
			t.Fatalf("unlink %s on full quota: %v", name(i), err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync of deletes on full quota: %v", err)
	}
	if err := tenancyWrite(fs, "/fill/after", content(999)); err != nil {
		t.Fatalf("no forward progress after deletes: %v", err)
	}

	rows, err = sess.TenantStat()
	if err != nil {
		t.Fatal(err)
	}
	after := tenantRow(t, rows, tenant, 0)
	if after.UsedBytes >= row.UsedBytes {
		t.Fatalf("deletes did not credit the tenant: used %d -> %d", row.UsedBytes, after.UsedBytes)
	}
	if !sys.Set.JournalIdle() {
		t.Fatal("journal not idle after recovery")
	}
	rep, err = sys.Set.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks != 0 {
		t.Fatalf("recovery leaked %d blocks", rep.LeakedBlocks)
	}
}

// TestFairSchedulingVictimP99 floods the service with low-weight aggressor
// sessions — each pipelining batches through a deep client window — while a
// high-weight victim runs a modest synced workload, then reads the
// server-side per-tenant latency histograms. The stated isolation bound:
// the victim's p99 enqueue-to-completion batch latency stays under 250ms
// even while the aggressor is being shed, and the victim — under its
// weight-proportional share of the in-flight byte budget — is never shed
// at all (overload degradation sheds the lowest-weight flood first, before
// admission, so nothing admitted fails). This test is also the regression
// gate for leader conscription: group-commit leadership must be a detached
// duty, or the victim's rare batch arriving at a vacant-leader moment gets
// stuck serving the aggressor's queue until a lull.
func TestFairSchedulingVictimP99(t *testing.T) {
	const (
		aggressor = uint32(1) // weight 1
		victim    = uint32(2) // weight 8
	)
	sink := obs.New()
	sys, err := New(Options{
		ArenaSize:        128 << 20,
		Lease:            time.Hour,
		AcquireTimeout:   10 * time.Second,
		MaxInflightBytes: 8 << 10,
		RetryAfterHint:   time.Millisecond,
		Obs:              sink,
		Tenants: map[uint32]tfs.TenantConfig{
			aggressor: {Weight: 1},
			victim:    {Weight: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	vsess := tenantSession(t, sys, 1000, victim)
	vfs := pxfs.New(vsess, pxfs.Options{NameCache: true})
	if err := vfs.Mkdir("/victim", 0o755); err != nil {
		t.Fatal(err)
	}

	// Four aggressor sessions, each pipelining up to four 4KiB batches, so
	// the aggressor tenant's in-flight bytes overrun the 8KiB budget and
	// its weight-1 fair share whenever the flood is healthy. However the
	// test ends, the flood stops before the deferred Close unmaps the arena.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer halt()
	for a := 0; a < 4; a++ {
		sess, err := sys.NewSession(libfs.Config{
			UID:        uint32(2000 + a),
			Tenant:     aggressor,
			BatchLimit: 4 << 10,
			Window:     4,
			PoolRefill: 8,
			RenewEvery: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		afs := pxfs.New(sess, pxfs.Options{NameCache: true})
		dir := fmt.Sprintf("/agg%d", a)
		if err := afs.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sess.Close()
			small := make([]byte, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// No per-file Sync: the window ships batches as the log
				// fills, keeping several in flight. Cycle a bounded name
				// set (Create truncates) so the flood pressures the
				// scheduler, not the arena. Errors are the point of a
				// flood (sheds surface as busy retries and, past
				// BusyRetries, as a poisoned window) — Sync to reconverge
				// and keep hammering.
				name := fmt.Sprintf("%s/f%03d", dir, i%256)
				f, err := afs.Create(name, 0o644)
				if err == nil {
					_, err = f.Write(small)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					_ = afs.Sync()
				}
			}
		}()
	}

	// Let the flood establish itself before the victim starts, so every
	// victim op below runs against live pressure.
	warm := time.After(3 * time.Second)
	for {
		ah, _ := sink.Snapshot().Histogram(fmt.Sprintf("tfs.tenant.%d.batch_latency_ns", aggressor))
		if ah.Count >= 20 {
			break
		}
		select {
		case <-warm:
			t.Log("flood warmup slow; proceeding anyway")
		case <-time.After(5 * time.Millisecond):
			continue
		}
		break
	}

	// The victim's synced workload under the flood.
	const victimOps = 80
	payload := make([]byte, 1<<10)
	for i := 0; i < victimOps; i++ {
		if err := tenancyWrite(vfs, fmt.Sprintf("/victim/f%03d", i), payload); err != nil {
			t.Fatalf("victim op %d failed under flood: %v", i, err)
		}
	}
	halt()

	snap := sink.Snapshot()
	vh, ok := snap.Histogram(fmt.Sprintf("tfs.tenant.%d.batch_latency_ns", victim))
	if !ok || vh.Count < victimOps {
		t.Fatalf("victim latency histogram missing or short: ok=%v count=%d", ok, vh.Count)
	}
	ah, _ := snap.Histogram(fmt.Sprintf("tfs.tenant.%d.batch_latency_ns", aggressor))
	aggSheds := snap.Counter(fmt.Sprintf("tfs.tenant.%d.sheds", aggressor))
	vicSheds := snap.Counter(fmt.Sprintf("tfs.tenant.%d.sheds", victim))
	t.Logf("victim p50=%v p99=%v max=%v n=%d | aggressor p99=%v n=%d sheds=%d",
		time.Duration(vh.P50NS), time.Duration(vh.P99NS), time.Duration(vh.MaxNS), vh.Count,
		time.Duration(ah.P99NS), ah.Count, aggSheds)

	// The flood must have been real: aggressor batches completed AND the
	// admission gate shed some of them for being over their share.
	if ah.Count == 0 {
		t.Fatal("aggressor never completed a batch: no flood to isolate against")
	}
	if aggSheds == 0 {
		t.Fatal("aggressor was never shed: flood did not exceed the byte budget")
	}
	// The isolation claims.
	const victimP99Bound = 250 * time.Millisecond
	if got := time.Duration(vh.P99NS); got > victimP99Bound {
		t.Fatalf("victim p99 %v exceeds the %v isolation bound under aggressor flood", got, victimP99Bound)
	}
	if vicSheds != 0 {
		t.Fatalf("victim (weight 8, under fair share) was shed %d times; degradation must shed the lowest-weight flood first", vicSheds)
	}
}

// TestTenantStatReservedMid2PC proves per-shard attribution of
// reserved-but-unapplied bytes. A cross-shard rename reserves worst-case
// demand on every participant shard before Phase 1; a delay injected at
// tfs.2pc.prepare holds that window open while a concurrent TenantStat —
// which takes only the tenant lock, never the shard apply mutex — observes
// it. Reserved bytes must appear only on participating shards and must
// settle back to zero when the transaction completes.
func TestTenantStatReservedMid2PC(t *testing.T) {
	const tenant = uint32(3)
	faults := faultinject.New()
	sys, err := New(Options{
		ArenaSize:      64 << 20,
		Shards:         3,
		Lease:          time.Hour,
		AcquireTimeout: 10 * time.Second,
		Faults:         faults,
		Tenants:        map[uint32]tfs.TenantConfig{tenant: {Weight: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sess := tenantSession(t, sys, 1000, tenant)
	fs := pxfs.New(sess, pxfs.Options{NameCache: true})
	srcDir, dstDir := crossShardDirs(t, fs, sess)

	if err := tenancyWrite(fs, srcDir+"/f", bytes.Repeat([]byte("q"), 8<<10)); err != nil {
		t.Fatal(err)
	}

	// Quiescent baseline: no reservations anywhere; the creates above
	// charged used bytes somewhere.
	base := sys.Set.TenantStat()
	var baseUsed uint64
	for _, r := range base {
		if r.Tenant != tenant {
			continue
		}
		if r.ReservedBytes != 0 {
			t.Fatalf("reserved bytes at quiescence: %+v", r)
		}
		baseUsed += r.UsedBytes
	}
	if baseUsed == 0 {
		t.Fatal("no used bytes charged after creates")
	}

	// Participants of the rename: source dir, destination dir, and the
	// moved file's shard.
	srcOID, found, err := sess.DirLookup(sess.Root, []byte(srcDir[1:]))
	if err != nil || !found {
		t.Fatalf("lookup %s: found=%v err=%v", srcDir, found, err)
	}
	dstOID, found, err := sess.DirLookup(sess.Root, []byte(dstDir[1:]))
	if err != nil || !found {
		t.Fatalf("lookup %s: found=%v err=%v", dstDir, found, err)
	}
	fileOID, found, err := sess.DirLookup(srcOID, []byte("f"))
	if err != nil || !found {
		t.Fatalf("lookup %s/f: found=%v err=%v", srcDir, found, err)
	}
	participants := map[uint32]bool{
		uint32(sess.ShardOf(srcOID)):  true,
		uint32(sess.ShardOf(dstOID)):  true,
		uint32(sess.ShardOf(fileOID)): true,
	}

	// Hold the 2PC open at the prepare fault point and observe mid-flight.
	faults.DelayAt("tfs.2pc.prepare", 0, 300*time.Millisecond)
	renameDone := make(chan error, 1)
	go func() { renameDone <- fs.Rename(srcDir+"/f", dstDir+"/f") }()

	var observed []fsproto.TenantUsage
	deadline := time.After(5 * time.Second)
observe:
	for {
		select {
		case err := <-renameDone:
			t.Fatalf("rename finished before reserved bytes were observed (err=%v); is the delay armed?", err)
		case <-deadline:
			t.Fatal("never observed reserved bytes during the held-open 2PC")
		default:
		}
		for _, r := range sys.Set.TenantStat() {
			if r.Tenant == tenant && r.ReservedBytes > 0 {
				observed = sys.Set.TenantStat()
				break observe
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	reservedShards := 0
	for _, r := range observed {
		if r.Tenant != tenant || r.ReservedBytes == 0 {
			continue
		}
		reservedShards++
		if !participants[r.Shard] {
			t.Fatalf("reserved bytes attributed to non-participant shard %d: %+v (participants %v)", r.Shard, r, participants)
		}
	}
	if reservedShards == 0 {
		t.Fatal("snapshot lost the reservation between polls")
	}
	if len(participants) < 3 {
		// With 3 shards and at most 3 participants, any non-participant
		// shard must show zero reserved — checked by the loop above; note
		// it explicitly so the attribution claim is visible in the log.
		t.Logf("participants %v of 3 shards; non-participants showed 0 reserved", participants)
	}

	if err := <-renameDone; err != nil {
		t.Fatalf("rename failed: %v", err)
	}
	for _, r := range sys.Set.TenantStat() {
		if r.Tenant == tenant && r.ReservedBytes != 0 {
			t.Fatalf("reservation not settled after 2PC completion: %+v", r)
		}
	}
	got, err := tenancyRead(fs, dstDir+"/f", 8<<10)
	if err != nil || len(got) != 8<<10 {
		t.Fatalf("moved file unreadable after 2PC: n=%d err=%v", len(got), err)
	}
}

// TestTenantCtlRuntimePolicy drives the client-facing policy RPCs: setting
// a tenant's weight and quota at runtime must create one accounting row
// per shard, visible through Session.TenantStat, and the quota must bind
// immediately for a session of that tenant.
func TestTenantCtlRuntimePolicy(t *testing.T) {
	sys := newShardedSystem(t, 3, false, nil)
	defer sys.Close()
	sess := session(t, sys, 1000)
	const tenant = uint32(9)
	if err := sess.TenantCtl(tenant, 5, 1<<20); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.TenantStat()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, r := range rows {
		if r.Tenant != tenant {
			continue
		}
		if r.Weight != 5 || r.QuotaBytes != 1<<20 {
			t.Fatalf("policy row mismatch: %+v", r)
		}
		seen[r.Shard] = true
	}
	if len(seen) != 3 {
		t.Fatalf("policy applied to %d of 3 shards: %v", len(seen), seen)
	}

	tsess := tenantSession(t, sys, 1001, tenant)
	tfsys := pxfs.New(tsess, pxfs.Options{NameCache: true})
	if err := tfsys.Mkdir("/t9", 0o755); err != nil {
		t.Fatal(err)
	}
	var hitQuota error
	for i := 0; i < 128; i++ {
		if hitQuota = tenancyWrite(tfsys, fmt.Sprintf("/t9/f%03d", i), make([]byte, 32<<10)); hitQuota != nil {
			break
		}
	}
	if !errors.Is(hitQuota, fsproto.ErrQuotaExceeded) {
		t.Fatalf("runtime quota did not bind: %v", hitQuota)
	}
}
