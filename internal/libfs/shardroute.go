// Shard routing. Every mount has a shard table; with one shard every helper
// here resolves to shard 0.
//
// The router's contract mirrors the trusted side's partitioning:
//
//   - Every window batch is single-shard. Each shard's sequence gate demands
//     a dense per-session sequence, so the session keeps one seq counter per
//     shard and rotates the accumulating batch whenever a logged group's
//     home shard differs from the batch's.
//   - Batches for one shard pipeline at full window depth; a shard switch is
//     an ordering barrier (the previous shard's tail must retire before the
//     next shard's head launches). That keeps the session's applied updates
//     a prefix of what it logged even across shards: when a batch is
//     rejected, every discarded in-flight sibling is on the rejecting
//     shard, where the server's poisoned epoch guarantees it cannot apply.
//   - A logged group whose objects span shards cannot ride any one shard's
//     window; it drains the session and applies synchronously as a
//     cross-shard transaction (MethodTxApply), which the trusted set
//     two-phase-journals on every participant shard.
package libfs

import (
	"fmt"
	"slices"

	"github.com/aerie-fs/aerie/internal/alloc"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/scmmgr"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// multiSpace composes the per-partition kernel mappings of a mount with
// several shards into one scm.Space: each access routes to the mapping whose
// partition contains the address, so every shard's soft-TLB protection
// applies exactly as on a single mapping.
type multiSpace struct {
	maps []*scmmgr.Mapping
}

func (m *multiSpace) route(addr uint64) *scmmgr.Mapping {
	for _, mp := range m.maps {
		start, size := mp.Span()
		if addr >= start && addr < start+size {
			return mp
		}
	}
	// Out-of-range addresses fall through to the first mapping, whose own
	// bounds check produces the protection error.
	return m.maps[0]
}

func (m *multiSpace) Read(addr uint64, p []byte) error  { return m.route(addr).Read(addr, p) }
func (m *multiSpace) Write(addr uint64, p []byte) error { return m.route(addr).Write(addr, p) }
func (m *multiSpace) WriteStream(addr uint64, p []byte) error {
	return m.route(addr).WriteStream(addr, p)
}
func (m *multiSpace) Flush(addr uint64, n int) error { return m.route(addr).Flush(addr, n) }
func (m *multiSpace) BFlush()                        { m.maps[0].BFlush() }
func (m *multiSpace) Fence()                         { m.maps[0].Fence() }
func (m *multiSpace) Atomic64(addr uint64, v uint64) error {
	return m.route(addr).Atomic64(addr, v)
}
func (m *multiSpace) Size() uint64                             { return m.maps[0].Size() }
func (m *multiSpace) Slice(addr uint64, n int) ([]byte, error) { return m.route(addr).Slice(addr, n) }
func (m *multiSpace) Store(addr uint64, v uint64, width int) error {
	return m.route(addr).Store(addr, v, width)
}

// Shards returns the mounted volume's shard count.
func (s *Session) Shards() int { return len(s.shards) }

// ShardOf returns the shard whose partition holds oid's storage. Interface
// layers use it to stage an object's
// storage on the shard its placement rule picked.
func (s *Session) ShardOf(oid sobj.OID) int { return s.shardOf(oid.Addr()) }

// ShardRoot returns shard i's root namespace collection — each shard's
// volume format creates its own root; shard 0's IS the session root, which
// also answers for an index out of range.
func (s *Session) ShardRoot(i int) sobj.OID {
	if i > 0 && i < len(s.shards) {
		return s.shards[i].Root
	}
	return s.Root
}

// shardOf maps an SCM address to its owning shard. Addresses outside every
// shard's heap fall back to 0; server-side validation rejects anything that
// actually matters.
func (s *Session) shardOf(addr uint64) int {
	if k := s.table.OfAddr(addr); k >= 0 {
		return k
	}
	return 0
}

// groupShard resolves the home shard of one logged group from every object
// its ops name, reporting cross=true when they span shards. Zero OIDs —
// unset union fields — are skipped.
func (s *Session) groupShard(single *fsproto.Op, ops []fsproto.Op) (home int, cross bool) {
	home = -1
	add := func(oid sobj.OID) bool {
		if oid == 0 {
			return true
		}
		sh := s.shardOf(oid.Addr())
		if home < 0 {
			home = sh
			return true
		}
		return sh == home
	}
	addOp := func(op *fsproto.Op) bool {
		return add(op.Target) && add(op.Child) && add(op.Dir2)
	}
	ok := true
	if single != nil {
		ok = addOp(single)
	}
	for i := range ops {
		if !ok {
			break
		}
		ok = addOp(&ops[i])
	}
	if home < 0 {
		home = 0
	}
	return home, !ok
}

// txApply applies one logged group synchronously as a cross-shard
// transaction. The window drains first — the transaction must order after
// everything the session already logged — then the ops ship via TxApply,
// which the trusted set validates, two-phase-journals on every participant
// shard, and applies before replying. The group's staged extents are
// consumed on success and returned to their shards' pools on failure:
// exactly a one-group batch's lifecycle, compressed to a synchronous round
// trip. The group stages nothing: SCM answers for it once it commits, and a
// rejected transaction leaves nothing for the session to see.
func (s *Session) txApply(single *fsproto.Op, ops []fsproto.Op) error {
	if single != nil {
		ops = []fsproto.Op{*single}
	}
	// Claim the staged extents taken since the last log call; they ride
	// (and fall) with this group.
	s.mu.Lock()
	// The list leaves the session's buffer: it is needed after the lock
	// drops, and most transactions (renames) stage nothing at all.
	var staged []stagedExt
	if len(s.pendingStaged) > 0 {
		staged = slices.Clone(s.pendingStaged)
	}
	s.pendingStaged = s.pendingStaged[:0]
	s.mu.Unlock()
	rollback := func() {
		s.mu.Lock()
		for _, ext := range staged {
			order := alloc.OrderFor(ext.size)
			sh := s.shardOf(ext.addr)
			s.pools[sh][order] = append(s.pools[sh][order], ext.addr)
		}
		s.mu.Unlock()
	}
	// The transaction applies while the session owns its ship queue, like
	// any batch: no read section of the session overlaps it.
	err := s.drainThen(func() error {
		payload := fsproto.EncodeOps(ops)
		var err error
		for attempt := 0; ; attempt++ {
			_, err = s.rc.Call(fsproto.MethodTxApply, payload)
			if err == nil || !retryableShed(err) ||
				s.cfg.BusyRetries < 0 || attempt >= s.cfg.BusyRetries {
				break
			}
			sleepBackoff(attempt, err)
		}
		if err != nil {
			return fmt.Errorf("%w: %w", ErrStaleBatch, err)
		}
		return nil
	})
	if err != nil {
		rollback()
		return err
	}
	s.Flushes.Add(1)
	return nil
}
