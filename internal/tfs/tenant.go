package tfs

import (
	"fmt"
	"sort"
	"time"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/obs"
)

// Multi-tenant isolation. A tenant is an accounting and scheduling identity
// shared by any number of sessions: the client declares it once at Mount
// (in a deployment the trusted side authenticates that binding the same way
// it authenticates the UID), every sequenced batch then carries it on the
// wire, and the service cross-checks the two so a session cannot bill its
// work to someone else's tenant mid-stream.
//
// Three mechanisms hang off the identity, each at the layer where the
// resource actually gets spent:
//
//   - Space quotas, enforced at reservation time. A batch's worst-case
//     demand is charged against the tenant's quota before any block is
//     reserved, so the rejection is batch-atomic exactly like the
//     volume-exhaustion path: typed fsproto.ErrQuotaExceeded, volume
//     untouched, nothing to roll back. Usage accounting is volatile — it
//     restarts at zero each boot and bounds net growth since then — which
//     matches TenantCtl's own volatility (policy is re-applied at boot from
//     Config.Tenants or by the operator).
//
//   - Weighted-fair batch scheduling at the group-commit queue. Each batch
//     gets a virtual finish time vft = max(scheduler vtime, tenant's last
//     vft) + bytes/weight at enqueue, and the leader drains the queue in
//     vft order. A flooding tenant's batches space out by 1/weight of their
//     byte volume, so they queue behind their own backlog while a
//     light-traffic tenant's occasional batch keeps finishing near the
//     front of every group.
//
//   - Weight-aware overload shedding at admission, with backlog-shaped
//     retry hints (reserve.go): past the global in-flight budget only the
//     tenants over their weight-proportional share are shed, lowest weight
//     first, and the hint they get back scales with how deep past their
//     share they are.
//
// Per-tenant accounting is exact at batch granularity because both sides of
// a batch's space flow are already funneled: every apply-time allocation is
// served from the batch's admission reservation (charge =
// Reservation.ConsumedBytes), and every apply-time free is quarantined in
// the batch's deferFrees wrapper (credit = deferFrees.freedBytes, applied
// once the frees are performed after checkpoint).

// TenantConfig is the per-tenant policy applied at boot via Config.Tenants
// or at runtime via MethodTenantCtl. Policy is volatile: it lives in service
// memory, not the volume, and is re-applied on every start.
type TenantConfig struct {
	// Weight is the tenant's share of the batch scheduler and of the
	// admission budget relative to other tenants (0 means 1).
	Weight uint32
	// QuotaBytes bounds the tenant's net allocated bytes (0: unlimited).
	QuotaBytes uint64
}

// tenantState is one shard's accounting for one tenant. Guarded by
// Service.tenMu — never s.mu — so stat reads stay possible while the shard
// mutex is held for a long apply or a cross-shard transaction.
type tenantState struct {
	weight uint32
	quota  uint64 // 0: unlimited

	used     uint64 // net bytes charged since boot (consumed minus freed)
	reserved uint64 // worst-case bytes held by in-flight reservations

	sheds        uint64
	quotaRejects uint64

	hLatency      *obs.Histogram // batch latency, enqueue to completion
	cSheds        *obs.Counter
	cQuotaRejects *obs.Counter
}

// tenantLocked resolves (creating on first use) the shard-local state for
// tenant id. Callers hold s.tenMu.
func (s *Service) tenantLocked(id uint32) *tenantState {
	if s.tenants == nil {
		s.tenants = make(map[uint32]*tenantState)
	}
	t := s.tenants[id]
	if t == nil {
		t = &tenantState{
			weight:        1,
			hLatency:      s.cfg.Obs.Histogram(s.metricName(fmt.Sprintf("tfs.tenant.%d.batch_latency_ns", id))),
			cSheds:        s.cfg.Obs.Counter(s.metricName(fmt.Sprintf("tfs.tenant.%d.sheds", id))),
			cQuotaRejects: s.cfg.Obs.Counter(s.metricName(fmt.Sprintf("tfs.tenant.%d.quota_rejects", id))),
		}
		s.tenants[id] = t
	}
	return t
}

// metricName applies the shard's metric prefix (tfs.shard.<i>. on a
// multi-shard set) to a tfs.* metric name.
func (s *Service) metricName(name string) string {
	if s.metric != nil {
		return s.metric(name)
	}
	return name
}

// setTenant applies volatile policy for one tenant on this shard.
func (s *Service) setTenant(id uint32, cfg TenantConfig) {
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	t := s.tenantLocked(id)
	t.weight = cfg.Weight
	t.quota = cfg.QuotaBytes
}

// tenantWeight returns the tenant's scheduling weight (>= 1).
func (s *Service) tenantWeight(id uint32) uint32 {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	return s.tenantLocked(id).weight
}

// setClientTenant records the session -> tenant binding made at Mount.
func (s *Service) setClientTenant(client uint64, tenant uint32) {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	if s.clientTen == nil {
		s.clientTen = make(map[uint64]uint32)
	}
	s.clientTen[client] = tenant
}

// clientTenant returns the tenant the session mounted as (0 if it never
// declared one).
func (s *Service) clientTenant(client uint64) uint32 {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	return s.clientTen[client]
}

// dropClientTenant forgets a departed session's binding.
func (s *Service) dropClientTenant(client uint64) {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	delete(s.clientTen, client)
}

// checkTenant cross-checks a batch's wire-carried tenant against the
// session's Mount registration, so a session cannot spoof another tenant's
// identity (and spend its quota or ride its weight) after the fact.
func (s *Service) checkTenant(client uint64, tenant uint32) error {
	if reg := s.clientTenant(client); tenant != reg {
		return fmt.Errorf("%w: batch claims tenant %d, session mounted as tenant %d",
			ErrValidation, tenant, reg)
	}
	return nil
}

// tenantReserve charges a batch's worst-case demand against the tenant's
// quota before any allocator block is reserved. The rejection is therefore
// batch-atomic: typed fsproto.ErrQuotaExceeded with the volume untouched.
// The retry hint is backlog-shaped — nonzero only when the tenant has other
// reservations in flight whose release may admit a retry.
func (s *Service) tenantReserve(id uint32, demand uint64) error {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	t := s.tenantLocked(id)
	if t.quota > 0 && t.used+t.reserved+demand > t.quota {
		t.quotaRejects++
		t.cQuotaRejects.Inc()
		var retry uint32
		if t.reserved > 0 {
			retry = uint32(s.cfg.RetryAfterHint.Milliseconds())
		}
		return &quotaError{
			retryMs: retry, tenant: id,
			need: demand, held: t.used + t.reserved, quota: t.quota,
		}
	}
	t.reserved += demand
	return nil
}

// tenantReserveDone settles a quota reservation taken by tenantReserve:
// the worst-case demand comes off the reserved count and the bytes the
// batch actually consumed become durable usage.
func (s *Service) tenantReserveDone(id uint32, demand, consumed uint64) {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	t := s.tenantLocked(id)
	if demand > t.reserved {
		t.reserved = 0
	} else {
		t.reserved -= demand
	}
	t.used += consumed
}

// tenantCredit returns freed bytes to the tenant (a delete's space comes
// back once the quarantined frees are performed). Usage floors at zero:
// accounting is volatile, so a boot-era object freed now has no matching
// charge.
func (s *Service) tenantCredit(id uint32, n uint64) {
	if n == 0 {
		return
	}
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	t := s.tenantLocked(id)
	if n > t.used {
		t.used = 0
	} else {
		t.used -= n
	}
}

// tenantShed records an admission shed against the tenant.
func (s *Service) tenantShed(id uint32) {
	s.tenMu.Lock()
	t := s.tenantLocked(id)
	t.sheds++
	c := t.cSheds
	s.tenMu.Unlock()
	c.Inc()
}

// observeTenantLatency records one batch's enqueue-to-completion latency on
// the tenant's histogram — the number the fairness tier bounds for a victim
// tenant while an aggressor floods.
func (s *Service) observeTenantLatency(id uint32, d time.Duration) {
	s.tenMu.Lock()
	h := s.tenantLocked(id).hLatency
	s.tenMu.Unlock()
	h.Observe(d.Nanoseconds())
}

// tenantRows reports this shard's per-tenant accounting, sorted by tenant
// ID. It takes only tenMu — never s.mu — so it stays readable while the
// shard mutex is held, including mid-2PC when a cross-shard transaction has
// locked every shard with reservations still open.
func (s *Service) tenantRows() []fsproto.TenantUsage {
	s.tenMu.Lock()
	defer s.tenMu.Unlock()
	ids := make([]uint32, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rows := make([]fsproto.TenantUsage, 0, len(ids))
	for _, id := range ids {
		t := s.tenants[id]
		rows = append(rows, fsproto.TenantUsage{
			Tenant:        id,
			Shard:         uint32(s.shardID),
			Weight:        t.weight,
			QuotaBytes:    t.quota,
			UsedBytes:     t.used,
			ReservedBytes: t.reserved,
			Sheds:         t.sheds,
			QuotaRejects:  t.quotaRejects,
		})
	}
	return rows
}

// tenantCtl applies one tenant's policy across every shard of the set.
func (set *ShardSet) tenantCtl(q fsproto.TenantCtlRequest) {
	for _, s := range set.shards {
		s.setTenant(q.Tenant, TenantConfig{Weight: q.Weight, QuotaBytes: q.QuotaBytes})
	}
}

// TenantStat reports per-tenant accounting for every shard: one row per
// (tenant, shard) pair, shards in order, tenants sorted within each shard.
// Readable at any time — it never touches a shard mutex.
func (set *ShardSet) TenantStat() []fsproto.TenantUsage {
	var rows []fsproto.TenantUsage
	for _, s := range set.shards {
		rows = append(rows, s.tenantRows()...)
	}
	return rows
}
