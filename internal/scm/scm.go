// Package scm emulates byte-addressable storage-class memory (SCM) with the
// persistence primitives the Aerie paper borrows from Mnemosyne (§5.1):
//
//   - WriteFlush / Flush model wlflush (x86 clflush: write a cache line and
//     flush it to SCM for persistence),
//   - WriteStream + BFlush model streaming (non-temporal) stores drained by
//     flushing the write-combining buffers (x86 mfence),
//   - Fence models mfence write ordering,
//   - Atomic64 models the memory controller's guaranteed-atomic 64-bit write.
//
// The emulation keeps two images of memory: the volatile image (the
// processor-cache view that all loads and stores see) and, when persistence
// tracking is enabled, a persistent image holding only data that has been
// explicitly flushed. Crash simulation discards the volatile image and
// recovers from the persistent one, so consistency mechanisms built on top
// (redo logging, shadow updates) are exercised against realistic
// torn-write and lost-write failure modes. An adversarial mode additionally
// evicts random dirty cache lines early, as real caches may.
//
// All higher-level Aerie structures are serialized into this arena with
// explicit offsets — no Go pointers live in "SCM" — which is the
// substitution DESIGN.md documents for Go's GC-managed runtime. Like the
// paper's SCM, the arena is not a heap object: it is memory mapped into the
// process (anonymous for the volatile arena and its shadow, a file for a
// volume) that the collector neither scans nor counts, released by Close.
package scm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/obs"
)

const (
	// LineSize is the cache-line granularity of flushes.
	LineSize = 64
	// PageSize is the protection/mapping granularity used by the SCM
	// manager.
	PageSize = 4096
)

// ErrOutOfRange reports an access outside the memory arena.
var ErrOutOfRange = errors.New("scm: address out of range")

// Space is the access interface to SCM shared by the raw Memory (privileged,
// used by the kernel SCM manager and the TFS) and by per-process protected
// mappings (internal/scmmgr), which add permission checks.
type Space interface {
	// Read copies len(p) bytes at addr into p.
	Read(addr uint64, p []byte) error
	// Write stores p at addr (into the volatile image; not yet
	// persistent).
	Write(addr uint64, p []byte) error
	// WriteStream stores p at addr with non-temporal stores; the data
	// becomes persistent at the next BFlush.
	WriteStream(addr uint64, p []byte) error
	// Flush persists the cache lines covering [addr, addr+n).
	Flush(addr uint64, n int) error
	// BFlush drains the write-combining buffers, persisting all prior
	// streaming writes.
	BFlush()
	// Fence orders preceding writes before subsequent ones.
	Fence()
	// Atomic64 performs an 8-byte atomic store at an 8-byte-aligned
	// address. It is never torn: after a crash the location holds either
	// the old or the new value (once flushed).
	Atomic64(addr uint64, v uint64) error
	// Size returns the arena size in bytes.
	Size() uint64
}

// Slicer is an optional capability of a Space: a zero-copy, read-only
// window into the arena. Direct readers (collections, mFiles, libfs) use it
// to walk structures in place instead of copying every byte out through
// Read — the load/store direct access the paper's library file systems are
// built on. The returned slice aliases the volatile image: it reflects
// subsequent writes, exactly as a load through a real mapping would, and it
// must never be written through (protection checks only covered reads).
// Implementations bound the slice's capacity so it cannot be extended.
type Slicer interface {
	// Slice returns a read-only view of [addr, addr+n).
	Slice(addr uint64, n int) ([]byte, error)
}

// Storer is an optional capability of a Space, the write-side mirror of
// Slicer: a scalar store with the value passed in a register. Store is
// Write of v's low width bytes (little-endian, width 1..8) in every respect
// — read-only and bounds errors, protection faults, dirty-line tracking, the
// volume's pending-sync window, the stats counters — except that no scratch
// buffer crosses the interface, so the typed WriteNN helpers allocate
// nothing on spaces that implement it.
type Storer interface {
	Store(addr uint64, v uint64, width int) error
}

// AsSlicer returns s's zero-copy capability, or nil when s only supports
// copying reads. Hot readers resolve this once and keep the result rather
// than type-asserting per access.
func AsSlicer(s Space) Slicer {
	if sl, ok := s.(Slicer); ok {
		return sl
	}
	return nil
}

// View returns the bytes at [addr, addr+n): a zero-copy slice when s
// implements Slicer, otherwise a copy into buf (grown when too small).
// Callers must treat the result as read-only either way.
func View(s Space, addr uint64, n int, buf []byte) ([]byte, error) {
	if sl, ok := s.(Slicer); ok {
		return sl.Slice(addr, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := s.Read(addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Stats counts SCM accesses.
type Stats struct {
	Reads        costmodel.Counter
	Writes       costmodel.Counter
	BytesRead    costmodel.Counter
	BytesWritten costmodel.Counter
	LinesFlushed costmodel.Counter
	Fences       costmodel.Counter
}

// Config configures a Memory.
type Config struct {
	// Size is the arena size in bytes; it is rounded up to a page.
	Size uint64
	// Costs supplies the injected SCM write latency (may be nil for no
	// injection). The pointer is shared so experiments can sweep the
	// latency without rebuilding the arena.
	Costs *costmodel.Costs
	// TrackPersistence enables the persistent shadow image and crash
	// simulation. It costs a second copy of the arena plus per-write
	// dirty-line bookkeeping, so benchmarks leave it off.
	TrackPersistence bool
	// Faults, when non-nil, arms fault points on the persistence paths
	// (scm.flush, scm.bflush, scm.stream). Points fire before the effect
	// they guard, so a crash there loses exactly the lines the operation
	// was about to persist.
	Faults *faultinject.Injector
	// Obs, when non-nil, receives scm.lines_flushed / scm.fences counts
	// and scm.charged_ns, the injected SCM write latency actually charged
	// — the raw-media component of every breakdown table.
	Obs *obs.Sink
}

// Memory is an emulated SCM arena. Data accesses are not internally
// synchronized — like real memory, concurrent conflicting access is the
// caller's bug and higher layers use the lock service to prevent it — but
// the persistence bookkeeping is synchronized so flushes from multiple
// goroutines are safe.
type Memory struct {
	data   []byte
	costs  *costmodel.Costs
	track  bool
	faults *faultinject.Injector

	// vol is non-nil when the arena is an mmap-backed volume file
	// (volume.go): stores extend the pending-sync window below and the
	// Fence/BFlush barriers msync it. readonly marks a PROT_READ mapping,
	// on which every store fails with ErrReadOnly.
	vol      *Volume
	readonly bool

	mu           sync.Mutex
	shadow       []byte
	dirty        []uint64 // bitmap, one bit per line; valid iff track
	pending      []uint64 // line indices of streaming writes awaiting BFlush; used iff track
	pendingCount int      // lines awaiting BFlush when not tracking (identities not needed)
	// [syncLo, syncHi): bytes stored since the last durability barrier;
	// maintained only when vol != nil, drained by Volume.syncBarrier.
	syncLo, syncHi uint64

	stats Stats

	// Metrics resolved once at construction; all nil (free no-ops) when
	// cfg.Obs is nil.
	obsLines   *obs.Counter
	obsFences  *obs.Counter
	obsCharged *obs.Counter // injected write latency actually spun, ns
	obsClient  *obs.Counter // portion of obsCharged incurred through client mappings
}

// mapped counts the bytes of every arena, shadow and volume mapping live in
// the process: mapFile and mapAnon add, unmap subtracts.
var mapped atomic.Int64

// MappedBytes returns the bytes of arena mappings (volatile arenas, their
// shadows, volume files) currently live in this process. A machine that is
// never closed keeps its share here until exit; tests use it to prove they
// release every arena they build.
func MappedBytes() int64 { return mapped.Load() }

// New is Map for callers with nowhere to report an error: a mapping the OS
// refuses is as fatal to them as a failed heap allocation.
func New(cfg Config) *Memory {
	m, err := Map(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Map maps a fresh, zeroed arena per cfg. The arena (and its persistence
// shadow) lives outside the Go heap until Close.
func Map(cfg Config) (*Memory, error) {
	size := (cfg.Size + PageSize - 1) / PageSize * PageSize
	if size == 0 {
		size = PageSize
	}
	data, err := mapAnon(int(size))
	if err != nil {
		return nil, fmt.Errorf("scm: arena: %w", err)
	}
	m := &Memory{
		data:       data,
		costs:      cfg.Costs,
		track:      cfg.TrackPersistence,
		faults:     cfg.Faults,
		obsLines:   cfg.Obs.Counter("scm.lines_flushed"),
		obsFences:  cfg.Obs.Counter("scm.fences"),
		obsCharged: cfg.Obs.Counter("scm.charged_ns"),
		obsClient:  cfg.Obs.Counter("scm.client.charged_ns"),
	}
	if m.track {
		if m.shadow, err = mapAnon(int(size)); err != nil {
			_ = unmap(data)
			return nil, fmt.Errorf("scm: persistence shadow: %w", err)
		}
		m.dirty = make([]uint64, (size/LineSize+63)/64)
	}
	return m, nil
}

// Close releases the arena. A volume's is msynced, marked clean and
// unmapped (Volume.Close); a volatile arena and its shadow are unmapped.
// Either way the Memory is detached: later accesses fail with ErrOutOfRange
// and barriers do nothing, instead of faulting on unmapped pages. Close is
// idempotent.
func (m *Memory) Close() error {
	if m.vol != nil {
		return m.vol.Close()
	}
	return m.release(m.data)
}

// release detaches the Memory from its pages and unmaps full — the mapping
// the arena lies in: the arena itself, or a volume's header page plus arena
// — and the shadow. Every arena is released through here.
func (m *Memory) release(full []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = nil
	err := unmap(full)
	if serr := unmap(m.shadow); err == nil {
		err = serr
	}
	m.shadow, m.dirty, m.pending, m.pendingCount = nil, nil, nil, 0
	return err
}

// Size returns the arena size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.data)) }

// Stats returns the access counters.
func (m *Memory) Stats() *Stats { return &m.stats }

func (m *Memory) check(addr uint64, n int) error {
	if n < 0 || addr > uint64(len(m.data)) || uint64(n) > uint64(len(m.data))-addr {
		return fmt.Errorf("%w: [%#x,+%d) of %#x", ErrOutOfRange, addr, n, len(m.data))
	}
	return nil
}

// Read copies len(p) bytes at addr into p.
func (m *Memory) Read(addr uint64, p []byte) error {
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	copy(p, m.data[addr:])
	m.stats.Reads.Add(1)
	m.stats.BytesRead.Add(int64(len(p)))
	return nil
}

// Slice implements Slicer: a zero-copy window into the volatile image.
// The capacity is clipped to n so the view cannot be extended by append,
// and stat accounting is batched into one counter update per call.
func (m *Memory) Slice(addr uint64, n int) ([]byte, error) {
	if err := m.check(addr, n); err != nil {
		return nil, err
	}
	m.stats.Reads.Add(1)
	m.stats.BytesRead.Add(int64(n))
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
}

// Write stores p at addr into the volatile image.
func (m *Memory) Write(addr uint64, p []byte) error {
	if m.readonly {
		return ErrReadOnly
	}
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	copy(m.data[addr:], p)
	m.stats.Writes.Add(1)
	m.stats.BytesWritten.Add(int64(len(p)))
	if m.track {
		m.markDirty(addr, len(p))
	}
	if m.vol != nil {
		m.noteStored(addr, len(p))
	}
	return nil
}

// Store implements Storer. The bytes live in this frame: Write is a direct
// call, so the buffer never escapes.
func (m *Memory) Store(addr uint64, v uint64, width int) error {
	if width < 1 || width > 8 {
		return fmt.Errorf("scm: Store of width %d", width)
	}
	var b [8]byte
	putU64(b[:], v)
	return m.Write(addr, b[:width])
}

// noteStored extends the pending-sync window of a mapped arena so the next
// durability barrier msyncs the covering pages.
func (m *Memory) noteStored(addr uint64, n int) {
	if n == 0 {
		return
	}
	end := addr + uint64(n)
	m.mu.Lock()
	if m.syncHi <= m.syncLo {
		m.syncLo, m.syncHi = addr, end
	} else {
		if addr < m.syncLo {
			m.syncLo = addr
		}
		if end > m.syncHi {
			m.syncHi = end
		}
	}
	m.mu.Unlock()
}

// WriteStream stores p at addr with non-temporal stores; persistent after
// the next BFlush.
func (m *Memory) WriteStream(addr uint64, p []byte) error {
	if m.readonly {
		return ErrReadOnly
	}
	if err := m.check(addr, len(p)); err != nil {
		return err
	}
	if err := m.faults.Hit("scm.stream"); err != nil {
		return err
	}
	if m.vol != nil {
		m.noteStored(addr, len(p))
	}
	copy(m.data[addr:], p)
	m.stats.Writes.Add(1)
	m.stats.BytesWritten.Add(int64(len(p)))
	first, last := addr/LineSize, (addr+uint64(len(p))-1)/LineSize
	if m.track {
		m.mu.Lock()
		for l := first; l <= last; l++ {
			m.setDirtyLocked(l)
			m.pending = append(m.pending, l)
		}
		m.mu.Unlock()
	} else {
		// Without tracking, BFlush needs only how many lines are pending
		// (for LinesFlushed and latency accounting), not which ones — so
		// keep an O(1) count instead of a slice that grows without bound
		// when a streaming writer never calls BFlush. The count is kept
		// even when no write latency is configured: Costs is a shared
		// pointer that experiments sweep mid-run, so lines streamed while
		// the latency was zero must still be charged by a later BFlush.
		m.mu.Lock()
		m.pendingCount += int(last-first) + 1
		m.mu.Unlock()
	}
	return nil
}

// PendingLines reports how many streaming-write lines await BFlush (test
// hook for the pending-bookkeeping regression).
func (m *Memory) PendingLines() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending) + m.pendingCount
}

func (m *Memory) markDirty(addr uint64, n int) {
	if n == 0 {
		return
	}
	m.mu.Lock()
	first, last := addr/LineSize, (addr+uint64(n)-1)/LineSize
	for l := first; l <= last; l++ {
		m.setDirtyLocked(l)
	}
	m.mu.Unlock()
}

func (m *Memory) setDirtyLocked(line uint64) { m.dirty[line/64] |= 1 << (line % 64) }

func (m *Memory) clearDirtyLocked(line uint64) { m.dirty[line/64] &^= 1 << (line % 64) }

func (m *Memory) isDirtyLocked(line uint64) bool { return m.dirty[line/64]&(1<<(line%64)) != 0 }

// Flush persists the cache lines covering [addr, addr+n), charging the
// configured per-line SCM write latency.
func (m *Memory) Flush(addr uint64, n int) error {
	_, err := m.FlushCharged(addr, n)
	return err
}

// FlushCharged is Flush, additionally returning the injected SCM write
// latency this call charged, in nanoseconds. Callers attributing latency to
// a side of the stack (e.g. a client mapping) use the per-call return; a
// before/after diff of the shared scm.charged_ns counter would fold in
// concurrent flushers' charges.
func (m *Memory) FlushCharged(addr uint64, n int) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	if err := m.check(addr, n); err != nil {
		return 0, err
	}
	if err := m.faults.Hit("scm.flush"); err != nil {
		return 0, err
	}
	first, last := addr/LineSize, (addr+uint64(n)-1)/LineSize
	lines := int64(last - first + 1)
	m.stats.LinesFlushed.Add(lines)
	m.obsLines.Add(lines)
	var charged int64
	if m.costs != nil && m.costs.SCMWriteLine > 0 {
		costmodel.Spin(time.Duration(lines) * m.costs.SCMWriteLine)
		charged = lines * int64(m.costs.SCMWriteLine)
		m.obsCharged.Add(charged)
	}
	if m.track {
		m.mu.Lock()
		for l := first; l <= last; l++ {
			m.persistLineLocked(l)
		}
		m.mu.Unlock()
	}
	return charged, nil
}

func (m *Memory) persistLineLocked(line uint64) {
	off := line * LineSize
	copy(m.shadow[off:off+LineSize], m.data[off:off+LineSize])
	m.clearDirtyLocked(line)
}

// BFlush drains the write-combining buffers, persisting all streaming writes
// issued since the previous BFlush.
func (m *Memory) BFlush() { m.BFlushCharged() }

// BFlushCharged is BFlush, additionally returning the injected SCM write
// latency this call charged, in nanoseconds (see FlushCharged).
func (m *Memory) BFlushCharged() int64 {
	// BFlush has no error return (real hardware cannot fail a drain), so
	// only delay and crash rules are meaningful here.
	_ = m.faults.Hit("scm.bflush")
	// On a mapped arena the buffer drain is a durability barrier like
	// Fence: streaming writes must be on media when BFlush returns.
	if m.vol != nil {
		m.vol.syncBarrier(m)
	}
	m.mu.Lock()
	pending := m.pending
	m.pending = nil
	lines := int64(len(pending)) + int64(m.pendingCount)
	m.pendingCount = 0
	m.mu.Unlock()
	if lines == 0 {
		return 0
	}
	m.stats.LinesFlushed.Add(lines)
	m.obsLines.Add(lines)
	var charged int64
	if m.costs != nil && m.costs.SCMWriteLine > 0 {
		costmodel.Spin(time.Duration(lines) * m.costs.SCMWriteLine)
		charged = lines * int64(m.costs.SCMWriteLine)
		m.obsCharged.Add(charged)
	}
	if m.track {
		m.mu.Lock()
		for _, l := range pending {
			m.persistLineLocked(l)
		}
		m.mu.Unlock()
	}
	return charged
}

// Fence orders preceding writes before subsequent ones. In the volatile
// emulation flushes apply to the persistent image immediately and in
// program order, so Fence only counts the event; on an mmap-backed arena it
// is the durability barrier that msyncs every page stored since the last
// barrier (see Volume.syncBarrier).
func (m *Memory) Fence() {
	m.stats.Fences.Add(1)
	m.obsFences.Inc()
	if m.vol != nil {
		m.vol.syncBarrier(m)
	}
}

// AddClientChargedNS attributes d nanoseconds of already-charged SCM write
// latency (a FlushCharged/BFlushCharged return value) to the client side of
// the stack (writes issued through a protected mapping rather than by the
// trusted service). The breakdown derives server-side SCM time as
// charged - client.
func (m *Memory) AddClientChargedNS(d int64) {
	if d > 0 {
		m.obsClient.Add(d)
	}
}

// Atomic64 performs an 8-byte atomic store. The store is never torn across
// a crash once flushed; an unflushed store is lost whole.
func (m *Memory) Atomic64(addr uint64, v uint64) error {
	if addr%8 != 0 {
		return fmt.Errorf("scm: Atomic64 at unaligned address %#x", addr)
	}
	var b [8]byte
	putU64(b[:], v)
	return m.Write(addr, b[:])
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// PersistAll flushes every dirty line, making volatile and persistent images
// identical. Used after mkfs-style initialization.
func (m *Memory) PersistAll() {
	if !m.track {
		return
	}
	m.mu.Lock()
	copy(m.shadow, m.data)
	for i := range m.dirty {
		m.dirty[i] = 0
	}
	m.pending = nil
	m.mu.Unlock()
}

// EvictRandom persists each currently dirty line with probability p,
// modeling uncontrolled cache evictions. Crash-consistency property tests
// call this to make sure recovery does not depend on lines staying cached.
func (m *Memory) EvictRandom(rng *rand.Rand, p float64) {
	if !m.track {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for line := uint64(0); line < uint64(len(m.data))/LineSize; line++ {
		if m.isDirtyLocked(line) && rng.Float64() < p {
			m.persistLineLocked(line)
		}
	}
}

// Crash discards the volatile image, simulating power loss: memory contents
// revert to the persistent image. Panics if persistence tracking is off.
func (m *Memory) Crash() {
	if !m.track {
		panic("scm: Crash requires TrackPersistence")
	}
	m.mu.Lock()
	copy(m.data, m.shadow)
	for i := range m.dirty {
		m.dirty[i] = 0
	}
	m.pending = nil
	m.mu.Unlock()
}

// DirtyLines returns the number of lines written but not yet persistent.
func (m *Memory) DirtyLines() int {
	if !m.track {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.dirty {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
