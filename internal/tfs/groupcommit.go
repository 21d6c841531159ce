package tfs

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/fsproto"
)

// Group commit: the write-path pipeline's trusted half.
//
// Every batch arrival queues a groupBatch and the first queuer becomes the
// group leader. The leader drains the queue into a commit group, and —
// under the service mutex — validates, reserves, and
// journals each batch as its own record, then publishes all of them with
// ONE fenced commit (the journal's chained-commit publish: N staged
// records, one tail update). That single fence is the dominant persist
// cost of a metadata batch, so coalescing amortizes it across every client
// whose batch arrived while the previous group was being processed.
// Batches that arrive mid-group wait on the queue and form the next group,
// which is exactly the classic group-commit cadence.
//
// Behind the fence, the leader applies the group's batches one after
// another in commit order, on its own goroutine. Nothing is applied
// concurrently: the fence is the cost group commit amortizes, and apply is
// cheap beside it. One checkpoint erases the whole group, after which each
// batch's quarantined frees are released and its volatile effects run.
//
// Group formation rules that keep validation sound:
//
//   - At most one batch per client per group. A session's later batches
//     can depend on the effects of its earlier ones (absolute refcnts,
//     staged-create-then-link), and plan validates against applied state,
//     so a client's next batch only joins a group formed after its
//     previous batch applied. Well-behaved sessions ship their window
//     serially and never have two batches in flight anyway; the rule
//     defends against the ones that don't.
//   - Cross-client batches in one group are independent by the lock
//     protocol (releasing a lock forces the releasing session to flush
//     first), and each batch is still fully validated on its own — a
//     hostile interleaving fails validation per batch, never corrupts.
//
// The recovery invariant relaxes from "at most one batch replayed" to "at
// most one GROUP replayed": the journal may hold several committed records
// after a crash, each replayed with the same per-batch idempotent-redo
// guards, and no allocation happens before replay finishes.

// maxGroupBatches caps how many batches one leader coalesces into a single
// fence, bounding the latency a waiter can be held behind the group.
const maxGroupBatches = 32

// groupBatch is one client batch staged into (or waiting for) a commit
// group. A batch is recycled whole (newBatch, freeBatch): its buffers, its
// reservation and its wake channel serve batch after batch.
type groupBatch struct {
	client uint64
	tenant uint32
	seq    uint64 // per-session window sequence (0: TxApply's one-shard batch)
	ops    []fsproto.Op
	keys   []byte  // the ops' keys, copied out of the payload
	bytes  int64   // encoded payload size (the WFQ cost measure)
	vft    float64 // virtual finish time, assigned at enqueue under gqMu
	t0     time.Time
	// wake rouses the batch's handler, parked in runBatch: once when the
	// batch completes (finished is set first) and at most once before that
	// to hand it leadership — hence the capacity of two, so neither sender
	// ever blocks. The handler takes the completion wake-up too, so the
	// channel is empty when the batch is recycled.
	wake     chan struct{}
	finished atomic.Bool
	err      error

	// Populated by the leader under s.mu once the batch validates. res is
	// resv while the batch holds a reservation, nil otherwise.
	acts    []action
	effects []func()
	res     *alloc.Reservation
	resv    alloc.Reservation
	demand  uint64 // worst-case bytes charged against the tenant's quota
	df      deferFrees
}

// Recycling bounds. A batch whose buffers together grew past retainBytes
// (a bulk load, or a rotate that frees a long log's extents) drops them
// when it is recycled, and at most maxFreeBatches batches wait on a free
// list. So one shard's list pins at most 2 MiB of buffers whatever sizes
// its batches reached, 3 MiB with the reservations' block lists (alloc
// caps each at 32 KiB). DESIGN.md §9.5 has the batch sizes measured on the
// benchmark suite that the bounds come from.
const (
	retainBytes    = 64 << 10
	maxFreeBatches = maxGroupBatches
)

// heldBytes is the capacity of gb's recycled buffers, in bytes.
func (gb *groupBatch) heldBytes() int {
	return cap(gb.ops)*int(unsafe.Sizeof(gb.ops[0])) + cap(gb.keys) +
		cap(gb.acts)*int(unsafe.Sizeof(gb.acts[0])) +
		cap(gb.effects)*int(unsafe.Sizeof(gb.effects[0])) +
		cap(gb.df.ents)*int(unsafe.Sizeof(gb.df.ents[0]))
}

// newBatch takes a batch off the service's free list, or makes one.
func (s *Service) newBatch() *groupBatch {
	s.gqMu.Lock()
	var gb *groupBatch
	if n := len(s.batchFree); n > 0 {
		gb = s.batchFree[n-1]
		s.batchFree[n-1] = nil
		s.batchFree = s.batchFree[:n-1]
	}
	s.gqMu.Unlock()
	if gb == nil {
		gb = &groupBatch{wake: make(chan struct{}, 2)}
	}
	return gb
}

// freeBatch resets a batch and puts it back on the free list. Only the
// batch's owner calls it, once runBatch has returned (or without runBatch,
// on a rejection before it): no queue, group or staged list holds the batch
// any more, and its wake channel is empty.
func (s *Service) freeBatch(gb *groupBatch) {
	clear(gb.effects) // closures over open-file state
	if gb.heldBytes() > retainBytes {
		gb.ops, gb.keys, gb.acts, gb.effects, gb.df.ents = nil, nil, nil, nil, nil
	}
	gb.ops, gb.keys, gb.acts, gb.effects = gb.ops[:0], gb.keys[:0], gb.acts[:0], gb.effects[:0]
	gb.df.inner, gb.df.ents = nil, gb.df.ents[:0]
	gb.res, gb.demand, gb.err = nil, 0, nil
	gb.finished.Store(false)
	s.gqMu.Lock()
	if len(s.batchFree) < maxFreeBatches {
		s.batchFree = append(s.batchFree, gb)
	}
	s.gqMu.Unlock()
}

// ApplyBatch validates, journals, and applies one window batch of client
// metadata updates (§5.3.5) on the shard its header names. Any validation
// failure rejects the whole batch with no effect. The header is checked
// before the batch touches the window gate: routing (ErrWrongShard names
// the current epoch so the client re-resolves), then the wire tenant
// against the session's Mount registration — a spoofed identity is
// rejected — then the sequence number, which is 1-based.
//
// Resource exhaustion is handled in two phases before the journal is
// touched: admission control sheds the request with fsproto.ErrBusy when
// the service is over its in-flight limits, and the batch's worst-case
// space demand is reserved from the allocator — a reservation failure
// rejects the batch with typed fsproto.ErrNoSpace while the volume is still
// untouched. Once the batch commits, apply draws from the reservation and
// cannot fail on space; the unconsumed surplus is released afterwards.
func (set *ShardSet) ApplyBatch(client uint64, payload []byte) error {
	h, body, err := fsproto.DecodeBatchHeader(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrValidation, err)
	}
	if err := set.checkFrame(h.Shard, h.RoutingEpoch); err != nil {
		return err
	}
	s := set.shards[h.Shard]
	// The ops decode into a recycled batch of the target shard. A crash
	// panic unwinding from the commit path leaves the batch to the
	// collector: only a returned batch is certainly out of every queue.
	gb := s.newBatch()
	err = s.applyBatch(gb, client, h, body, int64(len(payload)))
	s.freeBatch(gb)
	return err
}

// applyBatch is ApplyBatch on the target shard, into gb: the ops' decode,
// the tenant and sequence checks, the window gate, admission, and the
// commit.
func (s *Service) applyBatch(gb *groupBatch, client uint64, h fsproto.BatchHeader, body []byte, bytes int64) error {
	var err error
	if gb.ops, gb.keys, err = fsproto.DecodeOpsInto(gb.ops, gb.keys, body); err != nil {
		return fmt.Errorf("%w: %v", ErrValidation, err)
	}
	if err := s.checkTenant(client, h.Tenant); err != nil {
		return err
	}
	if h.Seq == 0 {
		return fmt.Errorf("%w: window sequence 0", ErrValidation)
	}
	// The window gate comes BEFORE admission: a batch waiting for its
	// in-flight predecessor must not hold admission slots — with the order
	// reversed, a deep window could fill the per-client admission depth with
	// gate waiters and starve the very predecessor they wait for into
	// busy-shed retries until the gap timed out. A post-gate admission shed
	// leaves the gate expecting the same sequence number (no outcome), so
	// the client's busy retry re-enters cleanly; any post-admission outcome
	// is recorded on exit so the session's next sequence number unblocks
	// (or, after a rejection, so the rest of the epoch dies with
	// ErrWindowStale).
	g := s.gate(client)
	if err := g.enter(h); err != nil {
		return err
	}
	if err := s.admit(client, h.Tenant, bytes); err != nil {
		return err
	}
	err = s.runBatch(gb, client, h.Tenant, h.Seq, bytes)
	s.admitDone(client, h.Tenant, bytes)
	g.exit(h, err)
	return err
}

// runBatch queues one admitted batch — gb, from newBatch, with its ops
// decoded — for group commit and waits for its outcome. The batch's
// virtual finish time — the
// weighted-fair scheduler's ordering key — is assigned here, under gqMu:
// vft = max(scheduler vtime, tenant's last vft) + bytes/weight. Per-tenant
// vfts are strictly increasing, so vft order never reorders one session's
// batches (the sequence gates rely on per-client FIFO), while a flooding
// tenant's backlog pushes its own later batches ever further back relative
// to a light tenant's.
func (s *Service) runBatch(gb *groupBatch, client uint64, tenant uint32, seq uint64, bytes int64) error {
	gb.client, gb.tenant, gb.seq, gb.bytes, gb.t0 = client, tenant, seq, bytes, time.Now()
	w := float64(s.tenantWeight(tenant))
	s.gqMu.Lock()
	if s.tenVft == nil {
		s.tenVft = make(map[uint32]float64)
	}
	start := s.vtime
	if last := s.tenVft[tenant]; last > start {
		start = last
	}
	gb.vft = start + float64(bytes+1)/w
	s.tenVft[tenant] = gb.vft
	s.groupq = append(s.groupq, gb)
	lead := !s.leaderOn
	if lead {
		s.leaderOn = true
	}
	s.gqMu.Unlock()
	// A leader serves groups only until its own batch completes, then hands
	// leadership to a queued batch's waiting handler (see lead). Without the
	// handoff, whichever tenant's batch happened to arrive at a vacant-leader
	// moment was conscripted into serving the whole queue until a lull —
	// under a sustained flood, an unbounded latency tail for exactly the
	// light tenant the weighted-fair queue is meant to protect. Non-leaders
	// wait on their outcome but stand ready to inherit the duty.
	if lead {
		s.lead(gb)
	}
	// Every batch gets exactly one completion wake-up, and a handoff only
	// ever comes before it (a finished batch is in no queue to hand off
	// to). Waiting for the completion one leaves the channel empty.
	for {
		if <-gb.wake; gb.finished.Load() {
			break
		}
		// A wake-up that does not find the batch finished is the handoff.
		s.lead(gb)
	}
	s.observeTenantLatency(tenant, time.Since(gb.t0))
	return gb.err
}

// seqGapTimeout bounds how long a batch waits for its missing predecessor
// in the window order. A healthy pipeline fills gaps in milliseconds (the
// predecessor is merely in flight); a gap that lasts this long means the
// client lied about its sequence numbers or lost a batch it will never
// re-ship, and the waiter is rejected rather than parked forever.
const seqGapTimeout = 10 * time.Second

// seqGate sequences one session's concurrently arriving window batches.
// A batch that has to wait parks on ch (made by the first waiter); a state
// change closes and drops it, and waiters reload state after each wakeup.
// A session that ships in order never waits, and then the gate costs a
// mutex and nothing else.
type seqGate struct {
	mu       sync.Mutex
	epoch    uint32 // current discard generation (0: nothing seen yet)
	next     uint64 // expected sequence number within epoch
	poisoned bool   // a batch of this epoch was rejected; suffix is dead
	ch       chan struct{}
}

// gate returns client's sequence gate, creating it on first use.
func (s *Service) gate(client uint64) *seqGate {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	g := s.gates[client]
	if g == nil {
		g = &seqGate{}
		s.gates[client] = g
	}
	return g
}

func (g *seqGate) broadcast() {
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
}

// enter blocks until h is next in the session's window order, or fails it:
// ErrWindowStale for batches from a dead part of the window (an epoch the
// client already discarded past, a poisoned epoch, or a replayed sequence
// number), ErrValidation for a sequence gap that never fills.
func (g *seqGate) enter(h fsproto.BatchHeader) error {
	var gap *time.Timer // armed by the first wait
	defer func() {
		if gap != nil {
			gap.Stop()
		}
	}()
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		switch {
		case h.Epoch < g.epoch:
			return fmt.Errorf("%w: epoch %d, session is at %d", fsproto.ErrWindowStale, h.Epoch, g.epoch)
		case h.Epoch > g.epoch:
			if h.Opener {
				// First batch of a new epoch re-baselines the expected
				// sequence: the discarded suffix consumed numbers that
				// will never arrive.
				g.epoch = h.Epoch
				g.next = h.Seq
				g.poisoned = false
				g.broadcast()
				return nil
			}
			// A non-opener from a future epoch waits for its opener.
		default: // h.Epoch == g.epoch
			if g.poisoned {
				return fmt.Errorf("%w: epoch %d poisoned by an earlier rejection", fsproto.ErrWindowStale, h.Epoch)
			}
			switch {
			case g.next == 0:
				// Session's first batch came without the opener flag:
				// baseline here.
				g.next = h.Seq
				return nil
			case h.Seq == g.next:
				return nil
			case h.Seq < g.next:
				return fmt.Errorf("%w: sequence %d already completed (next %d)", fsproto.ErrWindowStale, h.Seq, g.next)
			}
			// h.Seq > g.next: the predecessor is still in flight; wait.
		}
		if gap == nil {
			gap = time.NewTimer(seqGapTimeout)
		}
		if g.ch == nil {
			g.ch = make(chan struct{})
		}
		ch := g.ch
		g.mu.Unlock()
		select {
		case <-ch:
		case <-gap.C:
			g.mu.Lock()
			return fmt.Errorf("%w: window gap: sequence %d waited %v for %d",
				ErrValidation, h.Seq, seqGapTimeout, g.next)
		}
		g.mu.Lock()
	}
}

// exit records a gated batch's final outcome. Success on a final (non-
// fragment) batch advances the expected sequence; a fragment keeps it (the
// next fragment reuses the number); any rejection poisons the epoch so the
// batches sequenced behind it — which the client discards on its side —
// fail typed instead of validating against a state they assumed wrong.
func (g *seqGate) exit(h fsproto.BatchHeader, err error) {
	if err != nil && errors.Is(err, fsproto.ErrBatchTooLarge) {
		// Not an outcome: the client splits the batch and re-ships the
		// halves under the same sequence number.
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if h.Epoch != g.epoch {
		// A newer epoch's opener superseded this batch while it ran.
		return
	}
	if err == nil {
		if !h.Frag {
			g.next = h.Seq + 1
		}
	} else {
		g.poisoned = true
	}
	g.broadcast()
}

// lead drains the batch queue group by group until it is empty, then
// retires. The leader may end up committing batches queued by other
// handler goroutines; they wait on their done channels.
// lead serves group commits until the queue drains or the leader's own
// batch (own) completes with more work still queued — then leadership is
// handed to a queued batch's handler (every queued batch has one, parked in
// runBatch's select) and this handler returns to its RPC. Bounding the
// stint to the leader's own batch keeps any one tenant's handler from
// serving another tenant's flood, while keeping the commit loop on handler
// stacks — a crash fault injected under s.mu must propagate through the
// RPC goroutine that asked for it, exactly as the crash sweeps expect.
func (s *Service) lead(own *groupBatch) {
	for {
		// Gather beat: yield once before sealing each group so handler
		// goroutines that are already runnable — a burst of batches whose
		// RPC waits expired on the same timer tick — get to enqueue and
		// share the fence. Without it a single-P runtime never preempts
		// the leader's spin-injected commit costs, and every group
		// degenerates to one batch.
		runtime.Gosched()
		s.gqMu.Lock()
		if len(s.groupq) == 0 {
			s.leaderOn = false
			s.gqMu.Unlock()
			return
		}
		if own != nil && own.finished.Load() {
			// The stint is over but the queue is not empty: pass the duty.
			// The successor is still queued, so its handler is parked in
			// runBatch and cannot have returned; leaderOn stays true across
			// the handoff, so no second leader can be elected in the gap.
			successor := s.groupq[0]
			s.gqMu.Unlock()
			successor.wake <- struct{}{}
			return
		}
		// Weighted-fair pick: drain in virtual-finish-time order, so a hot
		// tenant's backlog (large, fast-growing vfts) queues behind a light
		// tenant's occasional batch. The sort is stable and per-tenant vfts
		// are strictly increasing, so per-client arrival order survives;
		// journal-overflow deferrals requeued from an earlier group carry
		// vfts below the advanced vtime and sort back to the front.
		slices.SortStableFunc(s.groupq, func(a, b *groupBatch) int { return cmp.Compare(a.vft, b.vft) })
		// The group is gathered into the leader's scratch slice (one leader
		// at a time, and runGroup is done with it before the next gather)
		// and the batches left behind are compacted in place.
		group, rest := s.groupBuf[:0], s.groupq[:0]
		for _, gb := range s.groupq {
			if len(group) < maxGroupBatches && !slices.ContainsFunc(group, func(m *groupBatch) bool { return m.client == gb.client }) {
				group = append(group, gb)
				if gb.vft > s.vtime {
					s.vtime = gb.vft
				}
			} else {
				rest = append(rest, gb)
			}
		}
		clear(s.groupq[len(rest):])
		s.groupq, s.groupBuf = rest, group
		s.gqMu.Unlock()
		s.runGroup(group)
		clear(group) // finished batches go back to their handlers' free lists
	}
}

// requeueFront puts batches that did not fit the current group's journal
// window back at the front of the queue, preserving their arrival order.
func (s *Service) requeueFront(deferred []*groupBatch) {
	if len(deferred) == 0 {
		return
	}
	s.gqMu.Lock()
	s.groupq = append(append([]*groupBatch{}, deferred...), s.groupq...)
	s.gqMu.Unlock()
}

// runGroup validates, reserves, journals, fences, and applies one commit
// group, completing every batch (except journal-overflow deferrals, which
// requeue for the next group).
func (s *Service) runGroup(group []*groupBatch) {
	var deferred []*groupBatch
	s.mu.Lock()
	// Coalesce point: the group's membership is fixed; nothing is staged
	// in the journal yet, so a crash here loses only unshipped batches.
	if err := s.faults.Hit("tfs.groupcommit.coalesce"); err != nil {
		for _, gb := range group {
			gb.err = err
		}
		s.mu.Unlock()
		finishGroup(group)
		return
	}
	// Phase 1 — per batch, in arrival order: sequence gate, validation,
	// worst-case space reservation, one staged journal record. A failure
	// here is the batch's alone; the rest of the group proceeds.
	staged := s.stagedBuf[:0]
	for _, gb := range group {
		if len(deferred) > 0 {
			// A journal-overflow deferral keeps everything behind it in
			// order: later batches (even other clients') wait for the next
			// group rather than jumping the overflowed one.
			deferred = append(deferred, gb)
			continue
		}
		st := s.client(gb.client)
		if gb.seq != 0 && gb.seq < st.lastSeq {
			gb.err = fmt.Errorf("%w: window sequence %d behind %d", ErrValidation, gb.seq, st.lastSeq)
			s.opsRejected.Add(int64(len(gb.ops)))
			continue
		}
		acts, effects, err := s.plan(gb.client, gb.ops, gb.acts, gb.effects)
		if err == nil {
			gb.acts, gb.effects = acts, effects
			// A single-shard batch must compile to actions on this shard's
			// own storage; anything else belongs in a cross-shard
			// transaction (TxApply) and is rejected with the owning shard.
			err = s.checkHomeActs(acts)
		}
		if err != nil {
			gb.err = err
			s.opsRejected.Add(int64(len(gb.ops)))
			continue
		}
		demand, err := s.reserveForTenant(&gb.resv, gb.tenant, acts)
		if err != nil &&
			(errors.Is(err, fsproto.ErrNoSpace) || errors.Is(err, fsproto.ErrQuotaExceeded)) &&
			degradeRemoves(acts) {
			// Graceful degradation on a full volume OR a full quota:
			// tombstone GC is an optimization, so pin every remove (and
			// every pre-allocation consume) to its NoGC variant and retry — deletes must keep working (and
			// freeing space) when the GC rehash's worst case can no longer
			// be reserved or charged. Without this a tenant sitting at its
			// quota could never delete its way back under it: the unlink
			// batch's transient rehash demand would itself be rejected,
			// exactly the delete-to-recover deadlock the ENOSPC path
			// already avoids.
			demand, err = s.reserveForTenant(&gb.resv, gb.tenant, acts)
		}
		if err != nil {
			gb.err = err
			s.opsRejected.Add(int64(len(gb.ops)))
			continue
		}
		gb.res, gb.demand = &gb.resv, demand
		s.obsReserveBytes.Observe(int64(gb.res.HeldBytes()))
		s.obsReserveWait.Observe(time.Since(gb.t0).Nanoseconds())
		if err := s.stageRecord(gb, len(staged) == 0); err != nil {
			if errors.Is(err, journalFull) {
				// The group outgrew the ring; this batch leads the next one.
				s.releaseReservation(gb)
				gb.acts, gb.effects = gb.acts[:0], gb.effects[:0]
				deferred = append(deferred, gb)
				continue
			}
			gb.err = err
			s.releaseReservation(gb)
			continue
		}
		staged = append(staged, gb)
	}
	// Phase 2 — one fence for the whole group: chained-commit publish of
	// every staged record with a single BFlush + fence + tail update.
	if len(staged) > 0 {
		err := s.faults.Hit("tfs.groupcommit.fence")
		if err == nil {
			err = s.jl.Commit()
		}
		if err != nil {
			// Nothing published: drop the staged records so the journal
			// does not accumulate dead bytes across rejected groups.
			s.jl.Abort()
			for _, gb := range staged {
				gb.err = err
				s.releaseReservation(gb)
			}
			staged = staged[:0]
		} else {
			s.obsGroupFences.Inc()
			s.obsGroupBatches.Observe(int64(len(staged)))
			if len(staged) > 1 {
				s.obsGroupCoalesced.Add(int64(len(staged)))
			}
		}
	}
	// Phase 3 — apply behind the fence, checkpoint once, release.
	if len(staged) > 0 {
		s.applyGroup(staged)
		for _, gb := range staged {
			s.releaseReservation(gb)
		}
	}
	clear(staged)
	s.stagedBuf = staged[:0]
	s.mu.Unlock()
	finishGroup(group, deferred...)
	s.requeueFront(deferred)
}

// stageRecord encodes and appends one batch's journal record. first marks
// the group's first record: leftover committed-and-applied records from an
// earlier apply failure may hold the space, so only the first record may
// checkpoint-and-retry (later records would erase the group's own staged
// predecessors' space accounting semantics — they just overflow).
func (s *Service) stageRecord(gb *groupBatch, first bool) error {
	payload := s.recordFor(gb.acts)
	if max := s.jl.MaxPayload(); uint64(len(payload)) > max {
		return fmt.Errorf("%w: %d-byte batch, journal fits %d",
			fsproto.ErrBatchTooLarge, len(payload), max)
	}
	err := s.jl.Append(payload)
	if errors.Is(err, journalFull) && first {
		if cerr := s.jl.Checkpoint(); cerr != nil {
			return cerr
		}
		err = s.jl.Append(payload)
	}
	return err
}

// releaseReservation returns a batch's unconsumed reserved blocks, records
// estimator misses, and settles the tenant's quota reservation: worst-case
// demand comes off, actually consumed bytes become usage. Idempotent;
// callers hold s.mu.
func (s *Service) releaseReservation(gb *groupBatch) {
	if gb.res == nil {
		return
	}
	s.obsReserveFallbks.Add(int64(gb.res.Fallbacks()))
	gb.res.Release()
	s.tenantReserveDone(gb.tenant, gb.demand, gb.res.ConsumedBytes())
	gb.res, gb.demand = nil, 0
}

// finishGroup completes every batch in the group except the deferred ones.
func finishGroup(group []*groupBatch, deferred ...*groupBatch) {
	for _, gb := range group {
		requeued := false
		for _, d := range deferred {
			if d == gb {
				requeued = true
				break
			}
		}
		if !requeued {
			gb.finished.Store(true)
			gb.wake <- struct{}{}
		}
	}
}

// applyGroup applies a committed group to its home locations and
// checkpoints the journal. Callers hold s.mu (plan and apply are mutually
// exclusive: validation reads arbitrary SCM that apply mutates).
func (s *Service) applyGroup(staged []*groupBatch) {
	// The group is committed; a crash anywhere between here and the
	// checkpoint replays every record from the journal (per-batch
	// idempotent redo).
	if err := s.faults.Hit("tfs.apply.postcommit"); err != nil {
		for _, gb := range staged {
			gb.err = err
		}
		return
	}
	// Apply in commit order on the leader's goroutine, so a crash-rule panic
	// unwinds through the handler that asked for it.
	for _, gb := range staged {
		gb.df.inner = gb.res
		gb.err = s.applyBatchActions(gb)
	}
	for _, gb := range staged {
		if gb.err != nil {
			// Leave the journal un-checkpointed: the failed batch's record
			// is still needed for redo, and the quarantined frees stay
			// quarantined (leaked until recovery — the safe direction,
			// which Fsck repairs).
			return
		}
	}
	if err := s.faults.Hit("tfs.apply.checkpoint"); err != nil {
		for _, gb := range staged {
			gb.err = err
		}
		return
	}
	if err := s.jl.Checkpoint(); err != nil {
		for _, gb := range staged {
			gb.err = err
		}
		return
	}
	for _, gb := range staged {
		freed := gb.df.freedBytes()
		if err := gb.df.release(); err != nil {
			gb.err = err
			continue
		}
		// The batch's deletes are performed: their bytes come back to the
		// batch's tenant (a failed release leaks the blocks until Fsck, so
		// it keeps the charge too — the safe direction).
		s.tenantCredit(gb.tenant, freed)
		s.runEffects(gb.client, gb.acts, gb.effects)
		st := s.client(gb.client)
		if gb.seq > st.lastSeq {
			st.lastSeq = gb.seq
		}
		s.BatchesApplied.Add(1)
		s.obsBatchOps.Observe(int64(len(gb.ops)))
	}
}

// applyBatchActions applies one batch's actions with its own quarantined-
// free allocator. Callers hold s.mu and apply a group's batches in commit
// order.
func (s *Service) applyBatchActions(gb *groupBatch) error {
	for i := range gb.acts {
		if err := s.faults.Hit("tfs.apply.action"); err != nil {
			return err
		}
		if err := s.applyAction(gb.acts, i, &gb.df, false); err != nil {
			return err
		}
	}
	return nil
}
