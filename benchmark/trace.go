package main

import (
	"errors"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/rpc"
)

// Tracing is done from the benchmark's side of every boundary: a span
// around each call the workload makes into pxfs/flatfs/libfs, and a child
// span per RPC from an interposing rpc.Client (tap). Spans stay in one
// preallocated slice until the run ends. Nothing here is compiled into the
// program under test, and an untraced run mounts the product's own client
// with no tap in the path.

type spanKind uint8

const (
	spOp spanKind = iota // one workload op; the root of its calls and RPCs
	spCreate
	spOpen
	spRead
	spWrite
	spClose
	spUnlink
	spRename
	spSync
	spStat
	spReaddir
	spMkdir
	spRmdir
	spRotate
	spGet
	spPut
	spRPC
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "pxfs.create", "pxfs.open", "pxfs.read", "pxfs.write", "pxfs.close",
	"pxfs.unlink", "pxfs.rename", "pxfs.sync", "pxfs.stat", "pxfs.readdir",
	"pxfs.mkdir", "pxfs.rmdir", "libfs.rotate", "flatfs.get", "flatfs.put",
	"rpc",
}

// codeTransport marks an RPC that failed without a coded remote error.
const codeTransport = 0xffff

type span struct {
	Start  int64 // ns since the tracer's epoch
	Dur    int64 // ns
	Parent int32 // index of the span that caused this one; -1 for a root
	Kind   spanKind
	Client uint8
	Method uint16 // RPC method number
	Code   uint16 // RPC error code: 0 ok, codeTransport, or fsproto's code
	Depth  uint16 // this client's RPCs in flight, this one included
	Out    uint32 // RPC request bytes
	In     uint32 // RPC response bytes
}

// maxSpans bounds the span buffer (48 MiB); a traced segment stops at the
// round boundary before it would overflow.
const maxSpans = 1 << 20

type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// on gates recording to the timed part of each round, so population,
	// audits and verification leave no spans.
	on      atomic.Bool
	clients []*clientTrace // filled while mounting, before any span
	// applyDelay is a test hook: the tap sleeps this long inside every
	// ApplyLog* call, standing in for a slower trusted service.
	applyDelay time.Duration
}

func newTracer(applyDelay time.Duration) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, maxSpans), applyDelay: applyDelay}
}

// reserve claims a slot to be filled when the span ends, so children can
// name their parent while it is still open.
func (t *tracer) reserve() int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

func (t *tracer) put(s span) {
	if i := t.reserve(); i >= 0 {
		t.spans[i] = s
	}
}

func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

func (t *tracer) room() int { return len(t.spans) - int(t.n.Load()) }

// clientTrace is one client's handle on the tracer. A nil *clientTrace is
// the untraced run: every method is a nil check and nothing else.
type clientTrace struct {
	tr          *tracer
	id          uint8
	cur         atomic.Int32 // the open op span, -1 between ops
	inflight    atomic.Int32
	revocations atomic.Int64
}

func (t *tracer) client(id int) *clientTrace {
	if t == nil {
		return nil
	}
	c := &clientTrace{tr: t, id: uint8(id)}
	c.cur.Store(-1)
	t.clients = append(t.clients, c)
	return c
}

func (c *clientTrace) beginOp() {
	if c != nil && c.tr.on.Load() {
		c.cur.Store(c.tr.reserve())
	}
}

func (c *clientTrace) endOp(t0 time.Time, d time.Duration) {
	if c == nil {
		return
	}
	if i := c.cur.Swap(-1); i >= 0 {
		c.tr.spans[i] = span{Start: t0.Sub(c.tr.epoch).Nanoseconds(), Dur: d.Nanoseconds(), Parent: -1, Kind: spOp, Client: c.id}
	}
}

// now starts a child span; the zero Time means "not tracing" and makes the
// matching child call a no-op.
func (c *clientTrace) now() time.Time {
	if c == nil || !c.tr.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (c *clientTrace) child(k spanKind, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	c.tr.put(span{Start: t0.Sub(c.tr.epoch).Nanoseconds(), Dur: time.Since(t0).Nanoseconds(),
		Parent: c.cur.Load(), Kind: k, Client: c.id})
}

// tap is the interposing rpc.Client. It forwards Call, ClientID and Close,
// and also rpc.IdempotentCaller, which libfs needs to park a batch and
// re-ship it under the same request ID after a transport failure.
type tap struct {
	inner rpc.Client
	idem  rpc.IdempotentCaller
	ct    *clientTrace
}

var (
	_ rpc.Client           = (*tap)(nil)
	_ rpc.IdempotentCaller = (*tap)(nil)
)

func newTap(inner rpc.Client, ct *clientTrace) *tap {
	return &tap{inner: inner, idem: inner.(rpc.IdempotentCaller), ct: ct}
}

func (t *tap) ClientID() uint64  { return t.inner.ClientID() }
func (t *tap) Close() error      { return t.inner.Close() }
func (t *tap) NextReqID() uint64 { return t.idem.NextReqID() }

func (t *tap) Call(method uint32, req []byte) ([]byte, error) {
	t0, depth := t.begin(method)
	resp, err := t.inner.Call(method, req)
	t.end(method, t0, depth, len(req), len(resp), err)
	return resp, err
}

func (t *tap) CallWithReqID(method uint32, reqID uint64, req []byte) ([]byte, error) {
	t0, depth := t.begin(method)
	resp, err := t.idem.CallWithReqID(method, reqID, req)
	t.end(method, t0, depth, len(req), len(resp), err)
	return resp, err
}

func isApply(method uint32) bool {
	return method == fsproto.MethodApplyLog || method == fsproto.MethodApplyLogSeq || method == fsproto.MethodApplyLogShard
}

func (t *tap) begin(method uint32) (time.Time, int32) {
	t0 := time.Now()
	depth := t.ct.inflight.Add(1)
	if d := t.ct.tr.applyDelay; d > 0 && isApply(method) {
		time.Sleep(d)
	}
	return t0, depth
}

func (t *tap) end(method uint32, t0 time.Time, depth int32, out, in int, err error) {
	d := time.Since(t0)
	t.ct.inflight.Add(-1)
	tr := t.ct.tr
	if !tr.on.Load() {
		return
	}
	var code uint16
	if err != nil {
		code = codeTransport
		var re *rpc.RemoteError
		if errors.As(err, &re) && re.Code != 0 {
			code = uint16(re.Code)
		}
	}
	tr.put(span{Start: t0.Sub(tr.epoch).Nanoseconds(), Dur: d.Nanoseconds(), Parent: t.ct.cur.Load(),
		Kind: spRPC, Client: t.ct.id, Method: uint16(method), Code: code, Depth: uint16(depth),
		Out: uint32(out), In: uint32(in)})
}

// writeSpans dumps the recorded spans as one JSON document: a name table
// and one row per span, [id, parent, kind, client, start_ns, dur_ns, method,
// code, depth, bytes_out, bytes_in]. Hand-rolled because a million rows
// through encoding/json would take longer than the run they describe.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	spans := t.recorded()
	b := make([]byte, 0, 64+72*len(spans))
	b = append(b, `{"workload":"`...)
	b = append(b, workload...)
	b = append(b, `","seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendInt(b, t.dropped.Load(), 10)
	b = append(b, `,"kinds":[`...)
	for i, n := range spanNames {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, n)
	}
	b = append(b, `],"columns":["id","parent","kind","client","start_ns","dur_ns","method","code","depth","bytes_out","bytes_in"],"spans":[`...)
	for i := range spans {
		s := &spans[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n', '[')
		for j, v := range [...]int64{int64(i), int64(s.Parent), int64(s.Kind), int64(s.Client), s.Start, s.Dur,
			int64(s.Method), int64(s.Code), int64(s.Depth), int64(s.Out), int64(s.In)} {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
	}
	b = append(b, "\n]}\n"...)
	return os.WriteFile(path, b, 0o644)
}
