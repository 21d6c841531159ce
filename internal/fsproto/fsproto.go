// Package fsproto defines the wire protocol between libFS clients and the
// trusted file-system service: RPC method numbers, the metadata-update
// operation log format (§5.3.5 — each log entry identifies the operation,
// the objects it modifies, and the fields it updates), and the encoders and
// decoders both sides share.
//
// Clients buffer Op records locally and ship them in batches; the TFS
// validates each op (structure, locks held, allocations legitimate,
// invariants preserved) before journaling and applying it.
package fsproto

import (
	"encoding/binary"
	"fmt"

	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/wire"
)

// RPC methods (range 0x200 is reserved for the file-system service; 0x100
// belongs to the lock service). Numbers are protocol constants: a retired
// one is never reused, and the service answers it with rpc.ErrNoHandler.
const (
	MethodMount     = 0x201
	MethodChmod     = 0x204
	MethodOpenFile  = 0x205
	MethodCloseFile = 0x206
	MethodStatfs    = 0x209
	// MethodApplyLogShard ships one window batch: a BatchHeader, then the
	// ops. The header addresses the batch to the namespace shard that owns
	// every object in it; a batch addressed to the wrong shard (or stamped
	// with a stale routing epoch) fails with ErrWrongShard carrying the
	// current (shard, epoch) hint so the client re-resolves.
	MethodApplyLogShard = 0x20B
	// MethodPreallocShard asks one shard's allocator for extents: they must
	// come from the partition of the shard that will own the objects built
	// in them.
	MethodPreallocShard = 0x20C
	// MethodTxApply submits one op group whose objects span multiple shards
	// as a cross-shard two-phase mini-transaction. The header names the
	// coordinator shard (lowest participating shard ID); the payload is the
	// plain EncodeOps batch. The call is synchronous: on return the
	// transaction is applied on every participant or rejected on all.
	MethodTxApply = 0x20D
	// MethodTenantCtl sets one tenant's isolation policy (scheduling weight
	// and space quota) on every shard of the trusted service. Administrative:
	// policy is volatile service state, re-applied at boot from service
	// configuration, not stored on the volume.
	MethodTenantCtl = 0x20E
	// MethodTenantStat returns per-tenant, per-shard usage rows: configured
	// policy plus the bytes currently charged (applied) and reserved
	// (admitted but not yet applied) against each tenant on each shard.
	MethodTenantStat = 0x20F

	// Retired numbers, from before every machine was a shard set: unframed
	// prealloc and apply, the two-word StatVol, and the seq-framed apply
	// without a routing header — plus Sync, which never had a handler.
	// Reserved; none is registered.
	MethodPrealloc    = 0x202
	MethodApplyLog    = 0x203
	MethodSync        = 0x207
	MethodStatVol     = 0x208
	MethodApplyLogSeq = 0x20A
)

// BatchHeader is the fixed-size header of a window batch
// (MethodApplyLogShard), little-endian on the wire:
//
//	 0 u32 Shard          4 u32 RoutingEpoch
//	 8 u32 Tenant        12 u32 reserved (zero)
//	16 u64 Seq           24 u32 Epoch
//	28 u8  flags (bit 0 Frag, bit 1 Opener)
type BatchHeader struct {
	// Shard is the target namespace shard, and RoutingEpoch the generation
	// of the shard table the client resolved at mount. The service rejects
	// a stale epoch with ErrWrongShard so clients re-resolve after
	// reconfiguration.
	Shard        uint32
	RoutingEpoch uint32
	// Tenant restates the session's mount-time tenant binding (0 is the
	// default tenant: unlimited quota, weight 1). It makes every batch
	// attributable on the wire; it is not a claim the service trusts — a
	// mismatch with the registration rejects the batch.
	Tenant uint32
	// Seq is the per-session, per-shard window sequence number (1-based).
	Seq uint64
	// Epoch is the session's discard generation: a rejection discards the
	// window suffix client-side and bumps the epoch, so stragglers from
	// the dead window are recognizably stale.
	Epoch uint32
	// Frag marks a fragment of a split batch that is NOT the last one:
	// more fragments with the same Seq follow, and the sequence number
	// completes only with the final fragment.
	Frag bool
	// Opener marks the first batch shipped under a new epoch: it
	// re-baselines the server's expected sequence number (the discarded
	// suffix consumed sequence numbers that will never arrive).
	Opener bool
}

// BatchHeaderLen is the encoded size of a BatchHeader.
const BatchHeaderLen = 29

// AppendBatch lays one window batch — header, then ops — onto dst.
func AppendBatch(dst []byte, h BatchHeader, ops []Op) []byte {
	var flags uint8
	if h.Frag {
		flags |= seqFlagFrag
	}
	if h.Opener {
		flags |= seqFlagOpener
	}
	w := wire.WriterOn(dst)
	w.U32(h.Shard)
	w.U32(h.RoutingEpoch)
	w.U32(h.Tenant)
	w.U32(0) // reserved
	w.U64(h.Seq)
	w.U32(h.Epoch)
	w.U8(flags)
	return AppendOps(w.Bytes(), ops)
}

// DecodeBatch parses a MethodApplyLogShard payload. The bytes are
// client-controlled: a short header is refused before any field is read,
// the reserved word and unknown flag bits are ignored, and the ops go
// through DecodeOps' structural checks.
func DecodeBatch(p []byte) (BatchHeader, []Op, error) {
	if len(p) < BatchHeaderLen {
		return BatchHeader{}, nil, fmt.Errorf("fsproto: short batch header (%d bytes)", len(p))
	}
	le := binary.LittleEndian
	h := BatchHeader{
		Shard:        le.Uint32(p[0:]),
		RoutingEpoch: le.Uint32(p[4:]),
		Tenant:       le.Uint32(p[8:]),
		Seq:          le.Uint64(p[16:]),
		Epoch:        le.Uint32(p[24:]),
		Frag:         p[28]&seqFlagFrag != 0,
		Opener:       p[28]&seqFlagOpener != 0,
	}
	ops, err := DecodeOps(p[BatchHeaderLen:])
	return h, ops, err
}

// The three nested framings below are how the batch header was first built,
// one prefix per feature: shard | tenant | seq. BatchHeader is byte-for-byte
// their concatenation. No product code calls them; they stay as the
// reference append_test.go holds AppendBatch and DecodeBatch to.

// ShardHeader is the routing prefix: BatchHeader's Shard and RoutingEpoch.
type ShardHeader struct {
	Shard uint32
	Epoch uint32
}

// ShardHeaderLen is the encoded size of a ShardHeader prefix.
const ShardHeaderLen = 8

// appendShardHeader appends the routing header to dst.
func appendShardHeader(dst []byte, h ShardHeader) []byte {
	w := wire.WriterOn(dst)
	w.U32(h.Shard)
	w.U32(h.Epoch)
	return w.Bytes()
}

// EncodeShardFramed prefixes an inner payload with the routing header.
func EncodeShardFramed(h ShardHeader, inner []byte) []byte {
	return append(appendShardHeader(make([]byte, 0, ShardHeaderLen+len(inner)), h), inner...)
}

// DecodeShardFramed splits a shard-addressed payload into the routing
// header and the inner payload.
func DecodeShardFramed(p []byte) (ShardHeader, []byte, error) {
	if len(p) < ShardHeaderLen {
		return ShardHeader{}, nil, fmt.Errorf("fsproto: short shard-framed payload (%d bytes)", len(p))
	}
	h := ShardHeader{
		Shard: uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24,
		Epoch: uint32(p[4]) | uint32(p[5])<<8 | uint32(p[6])<<16 | uint32(p[7])<<24,
	}
	return h, p[ShardHeaderLen:], nil
}

// TenantHeader is the tenant-identity prefix: BatchHeader's Tenant and the
// reserved word.
type TenantHeader struct {
	Tenant uint32
}

// TenantHeaderLen is the encoded size of a TenantHeader prefix (the tenant
// ID plus a reserved word kept zero for future policy bits).
const TenantHeaderLen = 8

// appendTenantHeader appends the tenant header to dst.
func appendTenantHeader(dst []byte, h TenantHeader) []byte {
	w := wire.WriterOn(dst)
	w.U32(h.Tenant)
	w.U32(0) // reserved
	return w.Bytes()
}

// EncodeTenantFramed prefixes an inner payload with the tenant header.
func EncodeTenantFramed(h TenantHeader, inner []byte) []byte {
	return append(appendTenantHeader(make([]byte, 0, TenantHeaderLen+len(inner)), h), inner...)
}

// DecodeTenantFramed splits a tenant-framed payload into the tenant header
// and the inner payload.
func DecodeTenantFramed(p []byte) (TenantHeader, []byte, error) {
	if len(p) < TenantHeaderLen {
		return TenantHeader{}, nil, fmt.Errorf("fsproto: short tenant-framed payload (%d bytes)", len(p))
	}
	h := TenantHeader{
		Tenant: uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24,
	}
	return h, p[TenantHeaderLen:], nil
}

// SeqHeader is the completion-window prefix: BatchHeader's Seq, Epoch and
// flags.
type SeqHeader struct {
	Seq    uint64
	Epoch  uint32
	Frag   bool
	Opener bool
}

const (
	seqFlagFrag   = 1 << 0
	seqFlagOpener = 1 << 1
)

// SeqHeaderLen is the encoded size of a SeqHeader prefix.
const SeqHeaderLen = 13

// appendSeqHeader appends the completion-window header to dst.
func appendSeqHeader(dst []byte, h SeqHeader) []byte {
	var flags uint8
	if h.Frag {
		flags |= seqFlagFrag
	}
	if h.Opener {
		flags |= seqFlagOpener
	}
	w := wire.WriterOn(dst)
	w.U64(h.Seq)
	w.U32(h.Epoch)
	w.U8(flags)
	return w.Bytes()
}

// EncodeApplyLogSeq prefixes an encoded ops payload (EncodeOps) with the
// batch's completion-window header.
func EncodeApplyLogSeq(h SeqHeader, ops []byte) []byte {
	return append(appendSeqHeader(make([]byte, 0, SeqHeaderLen+len(ops)), h), ops...)
}

// DecodeApplyLogSeq splits a seq-framed payload into the window header and
// the inner ops payload (still encoded; the caller hands it to DecodeOps).
func DecodeApplyLogSeq(p []byte) (SeqHeader, []byte, error) {
	if len(p) < SeqHeaderLen {
		return SeqHeader{}, nil, fmt.Errorf("fsproto: short ApplyLogSeq payload (%d bytes)", len(p))
	}
	h := SeqHeader{
		Seq: uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56,
		Epoch:  uint32(p[8]) | uint32(p[9])<<8 | uint32(p[10])<<16 | uint32(p[11])<<24,
		Frag:   p[12]&seqFlagFrag != 0,
		Opener: p[12]&seqFlagOpener != 0,
	}
	return h, p[SeqHeaderLen:], nil
}

// Op codes in a metadata-update batch.
const (
	OpCreateObject uint8 = 1 // client-staged object becomes live
	OpInsert       uint8 = 2 // directory/collection insert
	OpRemove       uint8 = 3 // directory/collection remove
	OpRename       uint8 = 4 // atomic two-directory move
	OpAttachExtent uint8 = 5 // link a pre-allocated, pre-written extent
	OpSetSize      uint8 = 6 // mFile logical size
	OpTruncate     uint8 = 7 // shrink an mFile, freeing extents
	OpSetAttr      uint8 = 8 // permission bits / attribute word
	OpReplaceExt   uint8 = 9 // swap a single-extent mFile's extent
)

// Op is one metadata update. Fields are a union across op codes; CoverLock
// names the lock the client claims covers the target (its own lock, or a
// hierarchical ancestor's).
type Op struct {
	Code      uint8
	Target    sobj.OID // object being modified (directory for inserts)
	Child     sobj.OID // inserted/removed object; rename: moved object
	Key       []byte   // collection key (insert/remove; rename: source key)
	Key2      []byte   // rename: destination key
	Dir2      sobj.OID // rename: destination directory
	Val       uint64   // size / blockIdx / perm / attrs
	Val2      uint64   // extent addr / capacity
	CoverLock uint64   // lock claimed to cover Target
	Cover2    uint64   // rename: lock claimed to cover Dir2
}

// minOpLen is the encoded size of an op with empty keys.
const minOpLen = 65

// appendOp encodes op onto w.
func appendOp(w *wire.Writer, op *Op) {
	w.U8(op.Code)
	w.U64(uint64(op.Target))
	w.U64(uint64(op.Child))
	w.Bytes32(op.Key)
	w.Bytes32(op.Key2)
	w.U64(uint64(op.Dir2))
	w.U64(op.Val)
	w.U64(op.Val2)
	w.U64(op.CoverLock)
	w.U64(op.Cover2)
}

// DecodeOps decodes a batch of ops, validating structure.
func DecodeOps(payload []byte) ([]Op, error) {
	r := wire.NewReader(payload)
	n := r.U32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("fsproto: implausible op count %d", n)
	}
	// Bound the preallocation by what the payload could possibly hold (an
	// encoded op is at least minOpLen bytes): the payload is
	// client-controlled, and a forged count must not make the trusted
	// service allocate big slabs before the first field read fails.
	capHint := n
	if most := uint32(len(payload)/minOpLen) + 1; most < capHint {
		capHint = most
	}
	ops := make([]Op, 0, capHint)
	for i := uint32(0); i < n; i++ {
		var op Op
		op.Code = r.U8()
		op.Target = sobj.OID(r.U64())
		op.Child = sobj.OID(r.U64())
		op.Key = append([]byte(nil), r.Bytes32()...)
		op.Key2 = append([]byte(nil), r.Bytes32()...)
		op.Dir2 = sobj.OID(r.U64())
		op.Val = r.U64()
		op.Val2 = r.U64()
		op.CoverLock = r.U64()
		op.Cover2 = r.U64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if op.Code == 0 || op.Code > OpReplaceExt {
			return nil, fmt.Errorf("fsproto: unknown op code %d", op.Code)
		}
		ops = append(ops, op)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return ops, nil
}

// AppendOps appends an ApplyLog payload — the op count, then each op — to
// dst.
func AppendOps(dst []byte, ops []Op) []byte {
	w := wire.WriterOn(dst)
	w.U32(uint32(len(ops)))
	for i := range ops {
		appendOp(&w, &ops[i])
	}
	return w.Bytes()
}

// EncodeOps builds an ApplyLog payload from ops.
func EncodeOps(ops []Op) []byte {
	n := 4 + minOpLen*len(ops)
	for i := range ops {
		n += len(ops[i].Key) + len(ops[i].Key2)
	}
	return AppendOps(make([]byte, 0, n), ops)
}

// ShardInfo describes one namespace shard in a MountReply: its root
// collection, its allocator partition (the client mounts every shard's
// partition and routes by address range), and the heap span that partition
// manages.
type ShardInfo struct {
	Root      sobj.OID
	HeapStart uint64
	HeapSize  uint64
	Partition uint32
}

// MountReply is the response to MethodMount. Root/HeapStart/HeapSize/
// Partition describe shard 0 (the pinned PXFS root shard); Shards lists
// every shard in shard-ID order — one row on a one-shard volume — and
// RoutingEpoch stamps the table's generation for ErrWrongShard
// re-resolution.
type MountReply struct {
	Root         sobj.OID
	HeapStart    uint64
	HeapSize     uint64
	Partition    uint32
	VolumeGID    uint32
	RoutingEpoch uint32
	Shards       []ShardInfo
}

// EncodeMountReply serializes r.
func EncodeMountReply(m *MountReply) []byte {
	w := wire.NewWriter(64 + 32*len(m.Shards))
	w.U64(uint64(m.Root))
	w.U64(m.HeapStart)
	w.U64(m.HeapSize)
	w.U32(m.Partition)
	w.U32(m.VolumeGID)
	w.U32(m.RoutingEpoch)
	w.U32(uint32(len(m.Shards)))
	for i := range m.Shards {
		s := &m.Shards[i]
		w.U64(uint64(s.Root))
		w.U64(s.HeapStart)
		w.U64(s.HeapSize)
		w.U32(s.Partition)
	}
	return w.Bytes()
}

// DecodeMountReply parses a MethodMount response.
func DecodeMountReply(p []byte) (MountReply, error) {
	r := wire.NewReader(p)
	var m MountReply
	m.Root = sobj.OID(r.U64())
	m.HeapStart = r.U64()
	m.HeapSize = r.U64()
	m.Partition = r.U32()
	m.VolumeGID = r.U32()
	m.RoutingEpoch = r.U32()
	n := r.U32()
	if r.Err() != nil {
		return MountReply{}, r.Err()
	}
	if n > 1024 {
		return MountReply{}, fmt.Errorf("fsproto: implausible shard count %d", n)
	}
	for i := uint32(0); i < n; i++ {
		var s ShardInfo
		s.Root = sobj.OID(r.U64())
		s.HeapStart = r.U64()
		s.HeapSize = r.U64()
		s.Partition = r.U32()
		m.Shards = append(m.Shards, s)
	}
	if err := r.Finish(); err != nil {
		return MountReply{}, err
	}
	return m, nil
}

// ShardStat is one shard's row in a StatfsReply: its partition's share of
// the aggregate space and object accounting.
type ShardStat struct {
	TotalBytes     uint64
	FreeBytes      uint64
	ReservedBytes  uint64
	Objects        uint64
	BatchesApplied uint64
}

// StatfsReply is the response to MethodStatfs: volume-wide space and object
// accounting, including bytes held by open admission reservations. The
// top-level fields aggregate across shards and Shards carries the per-shard
// rows in shard-ID order.
type StatfsReply struct {
	TotalBytes     uint64 // managed heap size
	FreeBytes      uint64 // allocatable now (excludes reserved)
	ReservedBytes  uint64 // held by in-flight batch reservations
	Objects        uint64 // objects reachable from the root namespace
	BatchesApplied uint64
	Shards         []ShardStat
}

// EncodeStatfsReply serializes r.
func EncodeStatfsReply(m *StatfsReply) []byte {
	w := wire.NewWriter(48 + 40*len(m.Shards))
	w.U64(m.TotalBytes)
	w.U64(m.FreeBytes)
	w.U64(m.ReservedBytes)
	w.U64(m.Objects)
	w.U64(m.BatchesApplied)
	w.U32(uint32(len(m.Shards)))
	for i := range m.Shards {
		s := &m.Shards[i]
		w.U64(s.TotalBytes)
		w.U64(s.FreeBytes)
		w.U64(s.ReservedBytes)
		w.U64(s.Objects)
		w.U64(s.BatchesApplied)
	}
	return w.Bytes()
}

// DecodeStatfsReply parses a MethodStatfs response.
func DecodeStatfsReply(p []byte) (StatfsReply, error) {
	r := wire.NewReader(p)
	var m StatfsReply
	m.TotalBytes = r.U64()
	m.FreeBytes = r.U64()
	m.ReservedBytes = r.U64()
	m.Objects = r.U64()
	m.BatchesApplied = r.U64()
	n := r.U32()
	if r.Err() != nil {
		return StatfsReply{}, r.Err()
	}
	if n > 1024 {
		return StatfsReply{}, fmt.Errorf("fsproto: implausible shard count %d", n)
	}
	for i := uint32(0); i < n; i++ {
		var s ShardStat
		s.TotalBytes = r.U64()
		s.FreeBytes = r.U64()
		s.ReservedBytes = r.U64()
		s.Objects = r.U64()
		s.BatchesApplied = r.U64()
		m.Shards = append(m.Shards, s)
	}
	if err := r.Finish(); err != nil {
		return StatfsReply{}, err
	}
	return m, nil
}

// PreallocRequest asks one shard's allocator for count extents of size
// bytes each. Shard and RoutingEpoch route it like a BatchHeader's.
type PreallocRequest struct {
	Shard        uint32
	RoutingEpoch uint32
	Size         uint64
	Count        uint32
}

// EncodePrealloc serializes a PreallocRequest.
func EncodePrealloc(q PreallocRequest) []byte {
	w := wire.NewWriter(24)
	w.U32(q.Shard)
	w.U32(q.RoutingEpoch)
	w.U64(q.Size)
	w.U32(q.Count)
	return w.Bytes()
}

// DecodePrealloc parses a PreallocRequest.
func DecodePrealloc(p []byte) (PreallocRequest, error) {
	r := wire.NewReader(p)
	var q PreallocRequest
	q.Shard = r.U32()
	q.RoutingEpoch = r.U32()
	q.Size = r.U64()
	q.Count = r.U32()
	if err := r.Finish(); err != nil {
		return PreallocRequest{}, err
	}
	return q, nil
}

// EncodeAddrs serializes a list of extent addresses.
func EncodeAddrs(addrs []uint64) []byte {
	w := wire.NewWriter(8 + 8*len(addrs))
	w.U32(uint32(len(addrs)))
	for _, a := range addrs {
		w.U64(a)
	}
	return w.Bytes()
}

// TenantCtlRequest sets one tenant's policy: its weighted-fair scheduling
// weight and its space quota in bytes (0 = unlimited). Weight 0 is
// normalized to 1 by the service.
type TenantCtlRequest struct {
	Tenant     uint32
	Weight     uint32
	QuotaBytes uint64
}

// EncodeTenantCtl serializes a TenantCtlRequest.
func EncodeTenantCtl(q TenantCtlRequest) []byte {
	w := wire.NewWriter(16)
	w.U32(q.Tenant)
	w.U32(q.Weight)
	w.U64(q.QuotaBytes)
	return w.Bytes()
}

// DecodeTenantCtl parses a TenantCtlRequest.
func DecodeTenantCtl(p []byte) (TenantCtlRequest, error) {
	r := wire.NewReader(p)
	var q TenantCtlRequest
	q.Tenant = r.U32()
	q.Weight = r.U32()
	q.QuotaBytes = r.U64()
	if err := r.Finish(); err != nil {
		return TenantCtlRequest{}, err
	}
	return q, nil
}

// TenantUsage is one (tenant, shard) accounting row in a TenantStat reply.
// UsedBytes and ReservedBytes are that shard's volatile charge against the
// tenant: used bytes were drawn by applied batches (net of frees the tenant
// performed), reserved bytes are held by admitted-but-unapplied batches.
// The quota check gates on used+reserved, so the rows explain any
// ErrQuotaExceeded exactly.
type TenantUsage struct {
	Tenant        uint32
	Shard         uint32
	Weight        uint32
	QuotaBytes    uint64
	UsedBytes     uint64
	ReservedBytes uint64
	Sheds         uint64 // batches shed by weighted admission for this tenant
	QuotaRejects  uint64 // batches rejected at reservation time by quota
}

// EncodeTenantStatReply serializes per-tenant usage rows.
func EncodeTenantStatReply(rows []TenantUsage) []byte {
	w := wire.NewWriter(8 + 52*len(rows))
	w.U32(uint32(len(rows)))
	for i := range rows {
		u := &rows[i]
		w.U32(u.Tenant)
		w.U32(u.Shard)
		w.U32(u.Weight)
		w.U64(u.QuotaBytes)
		w.U64(u.UsedBytes)
		w.U64(u.ReservedBytes)
		w.U64(u.Sheds)
		w.U64(u.QuotaRejects)
	}
	return w.Bytes()
}

// DecodeTenantStatReply parses a MethodTenantStat response.
func DecodeTenantStatReply(p []byte) ([]TenantUsage, error) {
	r := wire.NewReader(p)
	n := r.U32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	// tenants × shards rows; bound the preallocation like the other
	// list decoders so a corrupt count cannot force a huge slab.
	if n > 1<<16 {
		return nil, fmt.Errorf("fsproto: implausible tenant row count %d", n)
	}
	capHint := n
	if most := uint32(len(p)/52) + 1; most < capHint {
		capHint = most
	}
	rows := make([]TenantUsage, 0, capHint)
	for i := uint32(0); i < n; i++ {
		var u TenantUsage
		u.Tenant = r.U32()
		u.Shard = r.U32()
		u.Weight = r.U32()
		u.QuotaBytes = r.U64()
		u.UsedBytes = r.U64()
		u.ReservedBytes = r.U64()
		u.Sheds = r.U64()
		u.QuotaRejects = r.U64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		rows = append(rows, u)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rows, nil
}

// DecodeAddrs parses a list of extent addresses.
func DecodeAddrs(p []byte) ([]uint64, error) {
	r := wire.NewReader(p)
	n := r.U32()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("fsproto: implausible addr count %d", n)
	}
	addrs := make([]uint64, 0, n)
	for i := uint32(0); i < n; i++ {
		addrs = append(addrs, r.U64())
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return addrs, nil
}
