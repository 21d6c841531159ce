package tfs

import (
	"errors"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/scm"
)

// TestTenantQuotaReserveSettle exercises the quota ledger's lifecycle:
// worst-case demand is charged at reservation, settles into actual usage,
// rejects batch-atomically at the quota with the typed error, and frees
// credit back. The retry hint is backlog-shaped: zero when the tenant has
// nothing in flight (retrying cannot help), nonzero while other
// reservations may still release.
func TestTenantQuotaReserveSettle(t *testing.T) {
	s := newAdmitService(Config{RetryAfterHint: 9 * time.Millisecond})
	s.setTenant(7, TenantConfig{Weight: 1, QuotaBytes: 1000})

	if err := s.tenantReserve(7, 600); err != nil {
		t.Fatal(err)
	}
	// Over quota with nothing else in flight except our own reservation:
	// typed rejection, and the hint is nonzero because 600 reserved bytes
	// may still settle smaller.
	err := s.tenantReserve(7, 500)
	if !errors.Is(err, fsproto.ErrQuotaExceeded) {
		t.Fatalf("over-quota reserve: %v", err)
	}
	if errors.Is(err, fsproto.ErrNoSpace) {
		t.Fatalf("quota rejection must not alias ENOSPC: %v", err)
	}
	var h rpc.RetryAfterHinter
	if !errors.As(err, &h) || h.RetryAfterMs() != 9 {
		t.Fatalf("backlog-shaped hint missing: %v", err)
	}

	// Settle: 600 worst-case becomes 400 actual; 500 now fits.
	s.tenantReserveDone(7, 600, 400)
	if err := s.tenantReserve(7, 500); err != nil {
		t.Fatalf("reserve after settle: %v", err)
	}
	s.tenantReserveDone(7, 500, 500)

	// Full: a reject with zero in flight carries a zero hint — the quota
	// cannot clear itself.
	err = s.tenantReserve(7, 200)
	if !errors.Is(err, fsproto.ErrQuotaExceeded) {
		t.Fatalf("reserve at quota: %v", err)
	}
	if errors.As(err, &h) && h.RetryAfterMs() != 0 {
		t.Fatalf("idle-tenant reject should not suggest retrying: %v", err)
	}

	// Credit from frees restores headroom; usage floors at zero even for
	// over-credit (boot-era objects carry no charge).
	s.tenantCredit(7, 300)
	if err := s.tenantReserve(7, 200); err != nil {
		t.Fatalf("reserve after credit: %v", err)
	}
	s.tenantReserveDone(7, 200, 0)
	s.tenantCredit(7, 1<<30)

	rows := s.tenantRows()
	if len(rows) != 1 || rows[0].Tenant != 7 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].UsedBytes != 0 || rows[0].ReservedBytes != 0 {
		t.Fatalf("ledger not settled: %+v", rows[0])
	}
	if rows[0].QuotaRejects != 2 {
		t.Fatalf("QuotaRejects = %d, want 2", rows[0].QuotaRejects)
	}
}

// TestTenantSpoofRejected: a batch's wire-carried tenant must match the
// session's Mount-time registration — otherwise a client could spend a
// neighbor's quota or ride its scheduling weight.
func TestTenantSpoofRejected(t *testing.T) {
	s := newAdmitService(Config{})
	s.setClientTenant(42, 7)
	if err := s.checkTenant(42, 7); err != nil {
		t.Fatalf("registered tenant rejected: %v", err)
	}
	if err := s.checkTenant(42, 8); !errors.Is(err, ErrValidation) {
		t.Fatalf("spoofed tenant accepted: %v", err)
	}
	s.dropClientTenant(42)
	if err := s.checkTenant(42, 7); !errors.Is(err, ErrValidation) {
		t.Fatalf("departed session kept its binding: %v", err)
	}
}

// TestTenantWeightedFairShare checks the overload-degradation share math:
// past the byte budget, only tenants over their weight-proportional slice
// are shed, so the lowest-weight flood is pushed back first.
func TestTenantWeightedFairShare(t *testing.T) {
	s := newAdmitService(Config{MaxInflightBytes: 900, RetryAfterHint: time.Millisecond})
	s.setTenant(1, TenantConfig{Weight: 1})
	s.setTenant(2, TenantConfig{Weight: 8})

	// The flood fills most of the budget.
	if err := s.admit(100, 1, 800); err != nil {
		t.Fatal(err)
	}
	// Another flood batch overruns the budget AND tenant 1's 1/9 share.
	if err := s.admit(101, 1, 200); !errors.Is(err, fsproto.ErrBusy) {
		t.Fatalf("over-share flood admitted: %v", err)
	}
	// The light tenant also overruns the budget — but is under its 8/9
	// share, so it is admitted (bounded overshoot by design).
	if err := s.admit(102, 2, 200); err != nil {
		t.Fatalf("under-share tenant shed: %v", err)
	}
	rows := s.tenantRows()
	for _, r := range rows {
		switch r.Tenant {
		case 1:
			if r.Sheds != 1 {
				t.Fatalf("flood sheds = %d, want 1: %+v", r.Sheds, r)
			}
		case 2:
			if r.Sheds != 0 {
				t.Fatalf("light tenant shed: %+v", r)
			}
		}
	}
	s.admitDone(100, 1, 800)
	s.admitDone(102, 2, 200)
}

// TestQuotaFullTrackingGCDegrades: at a full quota, a batch whose only
// space demand is the pre-allocation tracking collection's tombstone GC
// still applies. Its consumes degrade to the no-GC variant, as a delete's
// removes do, instead of the batch being refused for space it does not
// need.
func TestQuotaFullTrackingGCDegrades(t *testing.T) {
	const client, tenant = 1, 5
	m := newOrderMachine(t, nil)
	m.s.setClientTenant(client, tenant)
	pool := preallocPool{m.s, client}
	root := m.s.Root()
	m.acquire(t, client, root.Lock(), lockX)
	file := m.stagedFile(t, client)
	first, err := pool.Alloc(scm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	create := batch(client,
		fsproto.Op{Code: fsproto.OpCreateObject, Target: file},
		fsproto.Op{Code: fsproto.OpInsert, Target: root, Key: []byte("f"), Child: file, CoverLock: root.Lock()},
		fsproto.Op{Code: fsproto.OpAttachExtent, Target: file, Val: 0, Val2: first, CoverLock: root.Lock()})
	create.tenant = tenant
	m.s.runGroup([]*groupBatch{create})
	if create.err != nil {
		t.Fatal(create.err)
	}
	// Enough tracked extents that consuming half of them trips the
	// tracking collection's tombstone GC.
	const n = 40
	exts, err := m.s.prealloc(client, scm.PageSize, n)
	if err != nil {
		t.Fatal(err)
	}
	m.s.tenMu.Lock()
	used := m.s.tenants[tenant].used
	m.s.tenMu.Unlock()
	m.s.setTenant(tenant, TenantConfig{QuotaBytes: used})

	// Attaching inside the file's existing radix node allocates nothing:
	// the GC rehash is the batch's only demand.
	m.acquire(t, client, file.Lock(), lockX)
	var ops []fsproto.Op
	for i, ext := range exts[:n/2] {
		ops = append(ops, fsproto.Op{Code: fsproto.OpAttachExtent, Target: file,
			Val: uint64(i + 1), Val2: ext, CoverLock: file.Lock()})
	}
	appends := batch(client, ops...)
	appends.tenant = tenant
	m.s.runGroup([]*groupBatch{appends})
	if appends.err != nil {
		t.Fatalf("appends at a full quota: %v", appends.err)
	}
	rep, err := m.set.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeakedBlocks != 0 || rep.LostBlocks != 0 {
		t.Fatalf("volume not clean: %v", rep)
	}
}
