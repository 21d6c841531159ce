package scm

// An mmap-backed persistent arena: the volume file. The paper's premise is
// that the file system lives in storage-class memory that outlasts any
// process; this backend makes that a testable property instead of a
// simulation. A volume is a regular file whose first page holds a versioned
// superblock (magic, layout version, clean/dirty flag, geometry, checksum)
// and whose remaining pages are the SCM arena, mapped shared into the
// process. Stores hit the mapping directly — the load/store path is
// unchanged — and the persistence primitives map onto msync:
//
//   - Write/WriteStream extend a pending-sync window (the dirty span since
//     the last durability barrier),
//   - Fence and BFlush msync the window's pages (MS_SYNC), so everything
//     flushed before a fence is on media before anything after it,
//   - Close msyncs the whole mapping and clears the superblock's dirty
//     flag, so a clean shutdown is distinguishable from a crash.
//
// A process that dies by SIGKILL loses nothing it stored (the kernel page
// cache outlives the process); what it loses is the chance to clear the
// dirty flag — exactly the signal recovery needs. Machine power loss is the
// stronger adversary and remains the volatile arena's crash simulation.

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/obs"
)

// Typed volume errors. Test with errors.Is.
var (
	// ErrMapFailed: the volume file could not be created, sized, or mapped.
	// internal/core downgrades this to the volatile arena (with the error
	// surfaced) when creating a fresh machine; opening existing data fails
	// hard instead.
	ErrMapFailed = errors.New("scm: volume mapping failed")
	// ErrBadVolume: the file is not a volume (bad magic), is torn or
	// truncated, fails its superblock checksum, or has impossible geometry.
	ErrBadVolume = errors.New("scm: bad volume file")
	// ErrVersionMismatch: the superblock's layout version is newer than this
	// build understands.
	ErrVersionMismatch = errors.New("scm: volume layout version mismatch")
	// ErrReadOnly: a store through a read-only volume mapping.
	ErrReadOnly = errors.New("scm: read-only mapping")
)

// Volume-file superblock, in the first page of the file; the arena proper
// starts at volHdrSize. All fields little-endian.
//
//	0x00 u64 magic
//	0x08 u32 layout version
//	0x0c u32 flags (bit0: dirty — mapped for write and not cleanly closed)
//	0x10 u64 arena size in bytes (file must hold volHdrSize+arena)
//	0x18 u32 page size   0x1c u32 cache-line size
//	0x20 u64 generation (writable opens; recovery epochs are countable)
//	0x28 u64 FNV-1a checksum of this header with flags and checksum zeroed
const (
	volMagic   = 0xae8105c4f11e0001
	volVersion = 1

	offVolMagic   = 0x00
	offVolVersion = 0x08
	offVolFlags   = 0x0c
	offVolArena   = 0x10
	offVolPage    = 0x18
	offVolLine    = 0x1c
	offVolGen     = 0x20
	offVolSum     = 0x28
	volHdrLen     = 0x30

	volFlagDirty = 1

	// volHdrSize is the reserved header region; the arena begins here.
	volHdrSize = PageSize
)

// VolumeOptions configures CreateVolume / OpenVolume.
type VolumeOptions struct {
	// ArenaSize is the data-region size for CreateVolume (rounded up to a
	// page; default one page). Ignored by OpenVolume, which trusts the
	// recorded geometry.
	ArenaSize uint64
	// ReadOnly maps the file PROT_READ (OpenVolume only): loads are
	// zero-copy as usual, stores fail with ErrReadOnly, and the dirty flag
	// is left untouched — the multi-process read-only client mapping.
	ReadOnly bool
	// Costs, Faults, Obs have the same meaning as in Config; the fault
	// point "scm.map" fires before the file is mapped, so an injected error
	// there exercises the mapping-failure degradation path.
	Costs  *costmodel.Costs
	Faults *faultinject.Injector
	Obs    *obs.Sink
}

// Volume is an open mmap-backed arena: the file, its mapping, and the
// Memory serving the arena region. The Memory's persistence primitives
// msync through the volume (see the package comment above).
type Volume struct {
	mem *Memory
	f   *os.File

	mu       sync.Mutex
	full     []byte // whole mapping: header page + arena
	arena    uint64 // recorded arena size
	gen      uint64
	readonly bool
	wasDirty bool
	closed   bool
	syncErr  error // first msync failure, sticky

	obsMsyncs    *obs.Counter
	obsMsyncNS   *obs.Histogram
	obsMsyncByte *obs.Counter
	obsMsyncErrs *obs.Counter
}

// fnv1a64 is the superblock checksum (FNV-1a over b).
func fnv1a64(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// volChecksum computes the header checksum: the first volHdrLen bytes with
// the flags word and the checksum field zeroed, so toggling the dirty flag
// never invalidates the sum of the geometry it guards.
func volChecksum(hdr []byte) uint64 {
	var tmp [volHdrLen]byte
	copy(tmp[:], hdr[:volHdrLen])
	putU64(tmp[offVolSum:], 0)
	tmp[offVolFlags], tmp[offVolFlags+1], tmp[offVolFlags+2], tmp[offVolFlags+3] = 0, 0, 0, 0
	return fnv1a64(tmp[:])
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// CreateVolume creates (or overwrites) a volume file with a fresh arena of
// opts.ArenaSize bytes, maps it read-write, and marks it dirty until Close.
// Any failure to create, size, or map the file is reported as ErrMapFailed
// so callers can downgrade to the volatile arena.
func CreateVolume(path string, opts VolumeOptions) (*Volume, error) {
	if err := opts.Faults.Hit("scm.map"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
	}
	if !mmapSupported {
		return nil, fmt.Errorf("%w: mmap unsupported on this platform", ErrMapFailed)
	}
	arena := (opts.ArenaSize + PageSize - 1) / PageSize * PageSize
	if arena == 0 {
		arena = PageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
	}
	if err := f.Truncate(int64(volHdrSize + arena)); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: size %s: %v", ErrMapFailed, path, err)
	}
	full, err := mapFile(f, int(volHdrSize+arena), false)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
	}
	v := newVolume(f, full, arena, opts, false)
	v.gen = 1
	v.writeHeader(true)
	if err := v.msyncHeader(); err != nil {
		_ = v.teardown()
		return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
	}
	return v, nil
}

// OpenVolume maps an existing volume file after validating its superblock:
// magic, layout version, checksum, and geometry against the actual file
// size. Unlike CreateVolume, failures here are never downgraded — the file
// claims to hold user data, so a torn, truncated, foreign, or
// future-versioned volume is a typed hard error.
func OpenVolume(path string, opts VolumeOptions) (*Volume, error) {
	if err := opts.Faults.Hit("scm.map"); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
	}
	if !mmapSupported {
		return nil, fmt.Errorf("%w: mmap unsupported on this platform", ErrMapFailed)
	}
	flags := os.O_RDWR
	if opts.ReadOnly {
		flags = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flags, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
	}
	if st.Size() < volHdrLen {
		f.Close()
		return nil, fmt.Errorf("%w: %s is %d bytes, smaller than the superblock", ErrBadVolume, path, st.Size())
	}
	var hdr [volHdrLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: reading superblock: %v", ErrBadVolume, err)
	}
	if U64(hdr[offVolMagic:]) != volMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s: bad magic %#x", ErrBadVolume, path, U64(hdr[offVolMagic:]))
	}
	if ver := U32(hdr[offVolVersion:]); ver != volVersion {
		f.Close()
		if ver > volVersion {
			return nil, fmt.Errorf("%w: %s: layout version %d, this build understands %d",
				ErrVersionMismatch, path, ver, volVersion)
		}
		return nil, fmt.Errorf("%w: %s: unsupported layout version %d", ErrBadVolume, path, ver)
	}
	if sum := volChecksum(hdr[:]); sum != U64(hdr[offVolSum:]) {
		f.Close()
		return nil, fmt.Errorf("%w: %s: superblock checksum %#x, want %#x",
			ErrBadVolume, path, U64(hdr[offVolSum:]), sum)
	}
	if U32(hdr[offVolPage:]) != PageSize || U32(hdr[offVolLine:]) != LineSize {
		f.Close()
		return nil, fmt.Errorf("%w: %s: geometry page=%d line=%d, want %d/%d",
			ErrBadVolume, path, U32(hdr[offVolPage:]), U32(hdr[offVolLine:]), PageSize, LineSize)
	}
	arena := U64(hdr[offVolArena:])
	if arena == 0 || arena%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("%w: %s: impossible arena size %d", ErrBadVolume, path, arena)
	}
	if uint64(st.Size()) < volHdrSize+arena {
		f.Close()
		return nil, fmt.Errorf("%w: %s truncated: file %d bytes, superblock claims %d",
			ErrBadVolume, path, st.Size(), volHdrSize+arena)
	}
	full, err := mapFile(f, int(volHdrSize+arena), opts.ReadOnly)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
	}
	v := newVolume(f, full, arena, opts, opts.ReadOnly)
	v.gen = U64(hdr[offVolGen:])
	v.wasDirty = U32(hdr[offVolFlags:])&volFlagDirty != 0
	if !v.readonly {
		// Mark dirty for the lifetime of this writable open; a crash (or
		// SIGKILL) leaves the flag set for the next opener to see.
		v.gen++
		v.writeHeader(true)
		if err := v.msyncHeader(); err != nil {
			_ = v.teardown()
			return nil, fmt.Errorf("%w: %v", ErrMapFailed, err)
		}
	}
	return v, nil
}

// newVolume wraps a fresh mapping and builds the Memory view of its arena
// region. The mapped backend never tracks a persistent shadow (the file is
// the persistent image), so TrackPersistence-style crash simulation stays
// with the volatile arena.
func newVolume(f *os.File, full []byte, arena uint64, opts VolumeOptions, readonly bool) *Volume {
	v := &Volume{
		f: f, full: full, arena: arena, readonly: readonly,
		obsMsyncs:    opts.Obs.Counter("scm.msync.calls"),
		obsMsyncNS:   opts.Obs.Histogram("scm.msync.ns"),
		obsMsyncByte: opts.Obs.Counter("scm.msync.bytes"),
		obsMsyncErrs: opts.Obs.Counter("scm.msync.errors"),
	}
	v.mem = &Memory{
		data:       full[volHdrSize : volHdrSize+arena : volHdrSize+arena],
		costs:      opts.Costs,
		faults:     opts.Faults,
		readonly:   readonly,
		vol:        v,
		obsLines:   opts.Obs.Counter("scm.lines_flushed"),
		obsFences:  opts.Obs.Counter("scm.fences"),
		obsCharged: opts.Obs.Counter("scm.charged_ns"),
		obsClient:  opts.Obs.Counter("scm.client.charged_ns"),
	}
	return v
}

// writeHeader rewrites the superblock through the mapping (checksum last).
func (v *Volume) writeHeader(dirty bool) {
	hdr := v.full[:volHdrLen]
	putU64(hdr[offVolMagic:], volMagic)
	putU32(hdr[offVolVersion:], volVersion)
	flags := uint32(0)
	if dirty {
		flags |= volFlagDirty
	}
	putU32(hdr[offVolFlags:], flags)
	putU64(hdr[offVolArena:], v.arena)
	putU32(hdr[offVolPage:], PageSize)
	putU32(hdr[offVolLine:], LineSize)
	putU64(hdr[offVolGen:], v.gen)
	putU64(hdr[offVolSum:], volChecksum(hdr))
}

func (v *Volume) msyncHeader() error { return msyncRange(v.full, 0, volHdrSize) }

// Abandon drops the mapping and closes the file WITHOUT clearing the dirty
// flag: the in-process stand-in for the process dying mid-run. Dirty pages
// of a MAP_SHARED mapping survive munmap exactly as they survive SIGKILL
// (the kernel writes them back), so the next OpenVolume sees everything
// stored — and a set dirty flag. Tests and benchmarks use this where a real
// kill -9 (internal/crashsweep's process sweep) would be too heavy.
func (v *Volume) Abandon() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return
	}
	_ = v.teardown()
}

// teardown detaches the arena Memory, unmaps, and closes the file without
// touching the dirty flag.
func (v *Volume) teardown() error {
	err := v.mem.release(v.full)
	if err != nil {
		err = fmt.Errorf("scm: unmap: %w", err)
	}
	v.full = nil
	if cerr := v.f.Close(); err == nil {
		err = cerr
	}
	v.closed = true
	return err
}

// Mem returns the arena Memory. Its Space methods are identical to the
// volatile arena's, so every higher layer runs unchanged.
func (v *Volume) Mem() *Memory { return v.mem }

// Generation returns the superblock generation (writable open count).
func (v *Volume) Generation() uint64 { return v.gen }

// WasDirty reports whether the volume's dirty flag was set when this open
// found it — i.e. the previous writer died without a clean Close and the
// opener must treat the journal as possibly non-empty.
func (v *Volume) WasDirty() bool { return v.wasDirty }

// ReadOnly reports whether the mapping is read-only.
func (v *Volume) ReadOnly() bool { return v.readonly }

// SyncErr returns the first msync failure observed on a durability barrier
// (nil when healthy). Barriers have no error return on the Space interface,
// so media failures are sticky here and also counted in scm.msync.errors.
func (v *Volume) SyncErr() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.syncErr
}

// syncBarrier is the durability barrier behind Fence and BFlush on a mapped
// arena: it drains the Memory's pending-store window and msyncs exactly
// those pages, so the paper's "flushed before the fence" ordering holds on
// the backing file.
func (v *Volume) syncBarrier(m *Memory) {
	m.mu.Lock()
	lo, hi := m.syncLo, m.syncHi
	m.syncLo, m.syncHi = 0, 0
	m.mu.Unlock()
	if hi <= lo || v.readonly {
		return
	}
	v.mu.Lock()
	full := v.full
	closed := v.closed
	v.mu.Unlock()
	if closed {
		return
	}
	t0 := time.Now()
	err := msyncRange(full, volHdrSize+lo, hi-lo)
	v.obsMsyncs.Inc()
	v.obsMsyncByte.Add(int64(hi - lo))
	v.obsMsyncNS.ObserveSince(t0)
	if err != nil {
		v.obsMsyncErrs.Inc()
		v.mu.Lock()
		if v.syncErr == nil {
			v.syncErr = err
		}
		v.mu.Unlock()
	}
}

// Close msyncs the whole mapping, clears the dirty flag (writable opens),
// unmaps, and closes the file. The arena Memory is detached the way
// Memory.Close detaches a volatile arena: subsequent accesses fail with
// ErrOutOfRange rather than faulting on unmapped pages. Close is idempotent.
func (v *Volume) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil
	}
	var firstErr error
	if !v.readonly {
		if err := msyncRange(v.full, 0, uint64(len(v.full))); err != nil {
			firstErr = fmt.Errorf("scm: close msync: %w", err)
		}
		if firstErr == nil {
			v.writeHeader(false)
			if err := v.msyncHeader(); err != nil {
				firstErr = fmt.Errorf("scm: close header msync: %w", err)
			}
		}
	}
	if err := v.teardown(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr == nil && v.syncErr != nil {
		firstErr = fmt.Errorf("scm: msync failed during run: %w", v.syncErr)
	}
	return firstErr
}
