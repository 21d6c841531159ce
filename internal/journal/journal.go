// Package journal implements the persistent redo log the TFS uses for
// crash-consistent metadata updates (§5.3.6). Records are appended with
// streaming writes (the paper uses x86 streaming stores into WC buffers for
// high sequential bandwidth), committed by draining the WC buffers (bflush)
// and a fence, and published by an atomic 8-byte tail-pointer update. After
// a crash, Replay re-delivers every committed record in order; applying is
// idempotent redo, so re-execution after a partial checkpoint is safe.
//
// The log is a circular buffer. A record never wraps: when the space to the
// end of the region is too small, a pad record fills it and the next record
// starts at the beginning. Records carry a CRC so a torn (partially
// persisted) record is detected rather than replayed — although the
// commit protocol (publish tail only after records are persistent) already
// prevents torn records from being inside the committed window, the CRC
// guards the window itself against bitmap/model bugs and hostile images.
package journal

import (
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/scm"
)

// Errors.
var (
	ErrFull     = errors.New("journal: log full")
	ErrCorrupt  = errors.New("journal: corrupt record")
	ErrBadMagic = errors.New("journal: region not formatted")
	ErrTooBig   = errors.New("journal: record exceeds log capacity")
)

// Region header layout (one cache line):
//
//	0x00 magic u64
//	0x08 head  u64 (offset of first live byte, relative to ring start)
//	0x10 tail  u64 (offset one past last committed byte)
//	0x18 ring size u64
const (
	magicValue = 0xae81e10900000001
	offMagic   = 0
	offHead    = 8
	offTail    = 16
	offRing    = 24
	headerSize = scm.LineSize
)

// Record header: u32 length (payload bytes; padMark means pad-to-end),
// u32 CRC32 (IEEE) of the payload.
const (
	recHeader = 8
	padMark   = 0xffffffff
)

// Log is a redo log in a region of SCM. It is not internally synchronized:
// the TFS serializes journal access (one committer), matching the paper's
// single trusted writer.
type Log struct {
	mem  scm.Space
	base uint64 // region base (header)
	ring uint64 // ring base = base + headerSize
	size uint64 // ring size

	head uint64 // cached copies of the persistent pointers
	tail uint64
	// staged is the in-flight (appended but uncommitted) tail. Like head and
	// tail it is a ring offset in [0, size): a record that ends on the
	// ring's last byte leaves it at 0, never at size.
	staged uint64
	// hdr is Append's record-header scratch; a local would escape through
	// the Space interface and cost an allocation per record.
	hdr [recHeader]byte

	faults *faultinject.Injector

	// Metrics resolved by SetObs; all nil (free no-ops) until then.
	obsRecords     *obs.Counter
	obsRecordBytes *obs.Counter
	obsReplayed    *obs.Counter
	obsCheckpoints *obs.Counter
	obsCommit      *obs.Histogram
	obsCommitSCM   *obs.Counter // scm.charged_ns consumed inside Commit
	obsSCMCharged  *obs.Counter // the shared scm.charged_ns counter itself
}

// SetFaults arms fault points on the log's mutation paths (journal.append,
// journal.commit, journal.commit.publish, journal.commit.published,
// journal.checkpoint, journal.replay.record). A nil injector is inert.
func (l *Log) SetFaults(inj *faultinject.Injector) { l.faults = inj }

// SetObs attaches an observability sink: journal.records / record_bytes
// count appends, journal.commit times Commit, journal.replayed counts
// redelivered records, journal.checkpoints counts head advances. When the
// sink is shared with the underlying scm.Memory, journal.commit.scm_ns
// accumulates the slice of injected SCM latency charged during commits
// (read as a before/after delta of scm.charged_ns — exact because the TFS
// is the single committer), letting the breakdown separate "journal logic"
// from "media wait inside the journal".
func (l *Log) SetObs(sink *obs.Sink) {
	l.obsRecords = sink.Counter("journal.records")
	l.obsRecordBytes = sink.Counter("journal.record_bytes")
	l.obsReplayed = sink.Counter("journal.replayed")
	l.obsCheckpoints = sink.Counter("journal.checkpoints")
	l.obsCommit = sink.Histogram("journal.commit")
	l.obsCommitSCM = sink.Counter("journal.commit.scm_ns")
	l.obsSCMCharged = sink.Counter("scm.charged_ns")
}

// Format initializes an empty log over region [base, base+size).
func Format(mem scm.Space, base, size uint64) (*Log, error) {
	if size < headerSize+4*scm.PageSize {
		return nil, fmt.Errorf("journal: region too small (%d bytes)", size)
	}
	ringSize := size - headerSize
	if err := scm.Write64(mem, base+offHead, 0); err != nil {
		return nil, err
	}
	if err := scm.Write64(mem, base+offTail, 0); err != nil {
		return nil, err
	}
	if err := scm.Write64(mem, base+offRing, ringSize); err != nil {
		return nil, err
	}
	if err := mem.Flush(base, headerSize); err != nil {
		return nil, err
	}
	mem.Fence()
	if err := scm.Write64Flush(mem, base+offMagic, magicValue); err != nil {
		return nil, err
	}
	return Attach(mem, base)
}

// Attach opens an existing log, e.g. during crash recovery.
func Attach(mem scm.Space, base uint64) (*Log, error) {
	magic, err := scm.Read64(mem, base+offMagic)
	if err != nil {
		return nil, err
	}
	if magic != magicValue {
		return nil, ErrBadMagic
	}
	head, err := scm.Read64(mem, base+offHead)
	if err != nil {
		return nil, err
	}
	tail, err := scm.Read64(mem, base+offTail)
	if err != nil {
		return nil, err
	}
	ringSize, err := scm.Read64(mem, base+offRing)
	if err != nil {
		return nil, err
	}
	// A log written before cursors were normalised may have stored size for
	// "the record ended on the ring's last byte"; it means offset 0.
	if head == ringSize {
		head = 0
	}
	if tail == ringSize {
		tail = 0
	}
	return &Log{
		mem: mem, base: base, ring: base + headerSize, size: ringSize,
		head: head, tail: tail, staged: tail,
	}, nil
}

// used returns bytes in use between head and a candidate tail.
func (l *Log) used(tail uint64) uint64 {
	if tail >= l.head {
		return tail - l.head
	}
	return l.size - l.head + tail
}

// MaxPayload returns the largest payload Append can ever accept, even right
// after a checkpoint: records are capped at half the ring (see ErrTooBig) so
// admission can reject oversized batches before touching the log.
func (l *Log) MaxPayload() uint64 {
	if l.size/2 < recHeader {
		return 0
	}
	return (l.size/2 - recHeader) &^ 7
}

// Append stages a record with the given payload. The record is not
// persistent or replayable until Commit. Returns ErrFull when the log needs
// a checkpoint first.
func (l *Log) Append(payload []byte) error {
	// Records are padded to 8-byte boundaries so the cursor stays
	// aligned and a pad header always fits at the end of the ring.
	need := uint64(recHeader) + align8(uint64(len(payload)))
	if need > l.size/2 {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, len(payload))
	}
	if err := l.faults.Hit("journal.append"); err != nil {
		return err
	}
	pos := l.staged
	// If the record would cross the ring end, a pad record fills the
	// space to the end and the record starts at offset 0. Account for
	// the pad when checking free space, measured from head to the
	// current staged position (which includes everything staged so far).
	padLen := uint64(0)
	if pos+need > l.size {
		padLen = l.size - pos
	}
	if l.used(l.staged)+padLen+need >= l.size {
		return ErrFull
	}
	hdr := l.hdr[:]
	if padLen > 0 {
		putU32(hdr[:4], padMark)
		putU32(hdr[4:], 0)
		if err := l.mem.WriteStream(l.ring+pos, hdr); err != nil {
			return err
		}
		pos = 0
	}
	putU32(hdr[:4], uint32(len(payload)))
	putU32(hdr[4:], crc32.ChecksumIEEE(payload))
	if err := l.mem.WriteStream(l.ring+pos, hdr); err != nil {
		return err
	}
	if err := l.mem.WriteStream(l.ring+pos+recHeader, payload); err != nil {
		return err
	}
	// An exact fit wraps the cursor: left at size, the next record (or its
	// pad header) would be written past the ring.
	l.staged = (pos + need) % l.size
	l.obsRecords.Inc()
	l.obsRecordBytes.Add(int64(len(payload)))
	return nil
}

// Commit makes all staged records persistent and replayable: drain the WC
// buffers, fence, then publish the tail with an atomic flushed store.
func (l *Log) Commit() error {
	if l.staged == l.tail {
		return nil
	}
	obsT0 := l.obsCommit.StartTimer()
	scmBefore := l.obsSCMCharged.Load()
	defer func() {
		l.obsCommitSCM.Add(l.obsSCMCharged.Load() - scmBefore)
		l.obsCommit.ObserveSince(obsT0)
	}()
	if err := l.faults.Hit("journal.commit"); err != nil {
		return err
	}
	l.mem.BFlush()
	l.mem.Fence()
	// A crash between the drain and the tail publish is the classic
	// torn-commit window: records are persistent but unreachable.
	if err := l.faults.Hit("journal.commit.publish"); err != nil {
		return err
	}
	if err := scm.AtomicFlush64(l.mem, l.base+offTail, l.staged); err != nil {
		return err
	}
	// ... and a crash immediately after the publish must replay the batch.
	_ = l.faults.Hit("journal.commit.published")
	l.tail = l.staged
	return nil
}

// Abort discards staged-but-uncommitted records.
func (l *Log) Abort() { l.staged = l.tail }

// Replay delivers every committed record from head to tail, in order. It
// stops with ErrCorrupt if a record fails its CRC.
func (l *Log) Replay(fn func(payload []byte) error) error {
	pos := l.head
	for pos != l.tail {
		var hdr [recHeader]byte
		if err := l.mem.Read(l.ring+pos, hdr[:]); err != nil {
			return err
		}
		length := getU32(hdr[:4])
		if length == padMark {
			pos = 0
			continue
		}
		if uint64(length) > l.size || pos+recHeader+align8(uint64(length)) > l.size {
			return fmt.Errorf("%w: impossible length %d at %d", ErrCorrupt, length, pos)
		}
		payload := make([]byte, length)
		if err := l.mem.Read(l.ring+pos+recHeader, payload); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(payload) != getU32(hdr[4:]) {
			return fmt.Errorf("%w: CRC mismatch at %d", ErrCorrupt, pos)
		}
		// Crash mid-recovery: some records redone, head not yet advanced.
		// Replay after the next attach re-delivers them (idempotent redo).
		if err := l.faults.Hit("journal.replay.record"); err != nil {
			return err
		}
		if err := fn(payload); err != nil {
			return err
		}
		l.obsReplayed.Inc()
		pos = (pos + recHeader + align8(uint64(length))) % l.size
	}
	return nil
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// Checkpoint declares all committed records applied to their home
// locations: the caller must have flushed those home locations first. The
// head pointer advances to the tail with an atomic flushed store.
func (l *Log) Checkpoint() error {
	if err := l.faults.Hit("journal.checkpoint"); err != nil {
		return err
	}
	l.mem.Fence()
	if err := scm.AtomicFlush64(l.mem, l.base+offHead, l.tail); err != nil {
		return err
	}
	l.head = l.tail
	l.obsCheckpoints.Inc()
	return nil
}

// Empty reports whether there are no committed records awaiting checkpoint.
func (l *Log) Empty() bool { return l.head == l.tail }

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
