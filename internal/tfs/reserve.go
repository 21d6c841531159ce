package tfs

import (
	"errors"
	"fmt"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// Two-phase space admission (the reservation half of the exhaustion model):
// after plan validates a batch, batchDemand projects the worst-case byte
// demand of applying it — collection rehashes, overflow chaining, radix-node
// growth — and ApplyLog reserves concrete allocator blocks for all of it
// before the batch is journaled. Journal commit therefore implies the apply
// phase cannot fail on space, which is what keeps an ENOSPC from stranding
// a committed-but-half-applied batch that recovery would re-hit forever.
//
// The projection simulates per-collection geometry across the batch (an
// insert that triggers a rehash doubles the simulated bucket count for
// later inserts), so multi-op batches stay covered. Estimates are
// deliberately pessimistic; the surplus is released right after apply. If
// an estimate is ever still short, the reservation falls through to the
// shared pool and the fallback counter records the estimator bug.

// batchDemand returns the worst-case allocation sizes applying acts may
// request. The list is the service's scratch, valid until the next call.
// Callers hold s.mu.
func (s *Service) batchDemand(acts []action) ([]uint64, error) {
	sizes := s.demandBuf[:0]
	defer func() { s.demandBuf = sizes }()
	// The simulated geometries live for the whole batch: a collection's
	// second insert must see the first one's count and any rehash it
	// charged, not re-read the table from SCM.
	if s.sims == nil {
		s.sims = make(map[sobj.OID]int)
	}
	clear(s.sims)
	s.geoms = s.geoms[:0]
	// geom returns oid's simulated geometry; the pointer is good until the
	// next call (which may grow geoms), and each caller is done with it by
	// then.
	geom := func(oid sobj.OID) (*sobj.ColGeometry, error) {
		if i, ok := s.sims[oid]; ok {
			return &s.geoms[i], nil
		}
		var g sobj.ColGeometry
		var err error
		if oid == s.preCol.OID() {
			g, err = s.preCol.Geometry() // the usual case, and its table header is cached
		} else {
			var col sobj.Collection
			if err = col.Open(s.mem, oid); err == nil {
				g, err = col.Geometry()
			}
		}
		if err != nil {
			return nil, err
		}
		s.sims[oid] = len(s.geoms)
		s.geoms = append(s.geoms, g)
		return &s.geoms[len(s.geoms)-1], nil
	}
	rehash := func(g *sobj.ColGeometry, newNB uint32) {
		sizes = append(sizes, sobj.TableSizeFor(newNB))
		spill := g.RehashOverflowBound()
		for i := 0; i < spill; i++ {
			sizes = append(sizes, sobj.OverflowExtentSize)
		}
		g.Buckets = newNB
		g.Overflow = spill
		g.Tombs = 0
	}
	insert := func(oid sobj.OID) error {
		g, err := geom(oid)
		if err != nil {
			return err
		}
		if g.GrowThreshold() {
			rehash(g, g.Buckets*2)
		}
		// The insert itself may chain one overflow extent.
		sizes = append(sizes, sobj.OverflowExtentSize)
		g.Overflow++
		g.Count++
		return nil
	}
	remove := func(oid sobj.OID) error {
		g, err := geom(oid)
		if err != nil {
			return err
		}
		if g.Count > 0 {
			g.Count--
		}
		g.Tombs++
		if g.Tombs > 16 && g.Tombs > g.Count/2 {
			// Tombstone GC rebuilds the table sized for the live count:
			// charge the current size (never less), then carry the shrunk
			// geometry forward for the batch's later inserts.
			rehash(g, g.Buckets)
			g.Buckets = g.GCBuckets()
		}
		return nil
	}
	for i := range acts {
		ac := &acts[i]
		switch ac.code {
		case jInsert:
			if err := insert(ac.oid); err != nil {
				return nil, err
			}
		case jRemove:
			if ac.a&1 == 0 { // NoGC removes never rehash
				if err := remove(ac.oid); err != nil {
					return nil, err
				}
			}
		case jAttach:
			var m sobj.MFile
			if err := m.Open(s.mem, ac.oid); err != nil {
				return nil, err
			}
			var err error
			if sizes, err = m.AttachDemand(sizes, ac.a); err != nil {
				return nil, err
			}
		case jPreallocAdd:
			if err := insert(s.preCol.OID()); err != nil {
				return nil, err
			}
		case jPreallocConsume:
			if ac.b&1 == 0 {
				if err := remove(s.preCol.OID()); err != nil {
					return nil, err
				}
			}
		}
	}
	return sizes, nil
}

// reserveFor projects acts' worst-case demand and reserves it from the
// allocator into res, translating exhaustion into typed
// fsproto.ErrNoSpace. Callers hold s.mu and must Release the reservation
// (idempotent) when done. This is the quota-exempt form used by recovery
// (orphan resolution has no client to bill); client batches go through
// reserveForTenant.
func (s *Service) reserveFor(res *alloc.Reservation, acts []action) error {
	demand, err := s.batchDemand(acts)
	if err != nil {
		return err
	}
	if err := s.bd.Reserve(res, demand); err != nil {
		if errors.Is(err, alloc.ErrNoSpace) || errors.Is(err, alloc.ErrTooLarge) {
			return fmt.Errorf("%w: cannot reserve worst-case demand: %v", fsproto.ErrNoSpace, err)
		}
		return err
	}
	return nil
}

// reserveForTenant is reserveFor with quota enforcement: the worst-case
// demand (rounded to the block sizes the allocator would really serve) is
// charged against the tenant's quota BEFORE any block is reserved, so a
// quota rejection is batch-atomic exactly like the exhaustion path — typed
// fsproto.ErrQuotaExceeded, volume untouched. Returns the charged demand;
// the caller settles it with tenantReserveDone when the reservation
// releases. Callers hold s.mu.
func (s *Service) reserveForTenant(res *alloc.Reservation, tenant uint32, acts []action) (uint64, error) {
	demand, err := s.batchDemand(acts)
	if err != nil {
		return 0, err
	}
	var demandB uint64
	for _, sz := range demand {
		demandB += alloc.BlockSize(alloc.OrderFor(sz))
	}
	if err := s.tenantReserve(tenant, demandB); err != nil {
		return 0, err
	}
	if err := s.bd.Reserve(res, demand); err != nil {
		s.tenantReserveDone(tenant, demandB, 0)
		if errors.Is(err, alloc.ErrNoSpace) || errors.Is(err, alloc.ErrTooLarge) {
			return 0, fmt.Errorf("%w: cannot reserve worst-case demand: %v", fsproto.ErrNoSpace, err)
		}
		return 0, err
	}
	return demandB, nil
}

// degradeRemoves switches every GC-eligible remove in acts to its NoGC
// variant (journaled that way, so replay matches): directory removes and
// the pre-allocation tracking collection's consumes alike, since either
// one's tombstone GC alone can be the demand a full volume or quota
// refuses. Returns whether anything changed.
func degradeRemoves(acts []action) bool {
	changed := false
	for i := range acts {
		switch ac := &acts[i]; {
		case ac.code == jRemove && ac.a&1 == 0:
			ac.a |= 1
			changed = true
		case ac.code == jPreallocConsume && ac.b&1 == 0:
			ac.b |= 1
			changed = true
		}
	}
	return changed
}

// busyError is the admission-control shed outcome: typed as
// fsproto.ErrBusy across the wire, carrying the retry-after hint.
type busyError struct{ retryMs uint32 }

func (e *busyError) Error() string {
	return fmt.Sprintf("%v (retry after %dms)", fsproto.ErrBusy, e.retryMs)
}
func (e *busyError) Unwrap() error        { return fsproto.ErrBusy }
func (e *busyError) RetryAfterMs() uint32 { return e.retryMs }

// quotaError is the quota-enforcement outcome: typed as
// fsproto.ErrQuotaExceeded (stable code, distinct from ErrNoSpace — the
// volume has room, this tenant does not), carrying a retry-after hint when
// the tenant's own in-flight reservations may release enough to admit a
// retry.
type quotaError struct {
	retryMs           uint32
	tenant            uint32
	need, held, quota uint64
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("%v: tenant %d needs %d bytes over %d used+reserved of %d quota",
		fsproto.ErrQuotaExceeded, e.tenant, e.need, e.held, e.quota)
}
func (e *quotaError) Unwrap() error        { return fsproto.ErrQuotaExceeded }
func (e *quotaError) RetryAfterMs() uint32 { return e.retryMs }

// admit applies backpressure before a request queues on s.mu: bounded total
// in-flight batch bytes and per-client depth. Returns a typed busyError
// when shedding. A request is always admitted when nothing is in flight so
// an over-limit batch cannot starve forever.
//
// Overload degradation is weight-aware: past the global byte budget, only
// tenants over their weight-proportional share of it are shed — the
// lowest-weight flood is pushed back first while an under-share tenant's
// request still goes through (the overshoot is bounded: at most one extra
// batch per under-share tenant). Shedding happens before admission, so
// nothing admitted can later fail for overload reasons.
func (s *Service) admit(client uint64, tenant uint32, bytes int64) error {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	if s.admTenBytes == nil {
		s.admTenBytes = make(map[uint32]int64)
	}
	overDepth := s.cfg.MaxClientInflight > 0 && s.admPerClient[client] >= s.cfg.MaxClientInflight
	overBytes := false
	var fair int64
	if s.cfg.MaxInflightBytes > 0 && s.admBytes > 0 && s.admBytes+bytes > s.cfg.MaxInflightBytes {
		fair = s.fairShareLocked(tenant)
		overBytes = s.admTenBytes[tenant]+bytes > fair
	}
	if overBytes || overDepth {
		s.batchesShed.Add(1)
		s.obsSheds.Inc()
		s.tenantShed(tenant)
		return &busyError{retryMs: s.backlogHintLocked(tenant, fair)}
	}
	s.admBytes += bytes
	s.admTenBytes[tenant] += bytes
	s.admPerClient[client]++
	return nil
}

// fairShareLocked returns the tenant's weight-proportional slice of the
// in-flight byte budget, computed over the tenants currently holding
// admitted bytes plus the asker. Callers hold admMu.
func (s *Service) fairShareLocked(tenant uint32) int64 {
	w := int64(s.tenantWeight(tenant))
	totalW := w
	for id, b := range s.admTenBytes {
		if id != tenant && b > 0 {
			totalW += int64(s.tenantWeight(id))
		}
	}
	if totalW <= 0 {
		totalW = 1
	}
	return s.cfg.MaxInflightBytes * w / totalW
}

// backlogHintLocked shapes a shed's retry-after hint by the tenant's own
// backlog: a tenant N fair-shares deep is told to wait N+1 base intervals
// (capped at 250ms), so a flood spreads its retries out instead of
// hammering the admission gate in lockstep. Callers hold admMu.
func (s *Service) backlogHintLocked(tenant uint32, fair int64) uint32 {
	base := s.cfg.RetryAfterHint.Milliseconds()
	if base <= 0 {
		base = 1
	}
	ms := base
	if fair > 0 {
		ms = base * (1 + s.admTenBytes[tenant]/fair)
	}
	if ms > 250 {
		ms = 250
	}
	return uint32(ms)
}

// admitDone releases the admission debt taken by admit.
func (s *Service) admitDone(client uint64, tenant uint32, bytes int64) {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	s.admBytes -= bytes
	if s.admTenBytes[tenant] -= bytes; s.admTenBytes[tenant] <= 0 {
		delete(s.admTenBytes, tenant)
	}
	if s.admPerClient[client]--; s.admPerClient[client] <= 0 {
		delete(s.admPerClient, client)
	}
}
