package rpc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/aerie-fs/aerie/internal/costmodel"
)

// InProcClient is the in-process transport: calls run the handler on the
// caller's goroutine after charging the configured RPC round-trip latency.
// It is deterministic (no sockets, no scheduler variance) and is the default
// transport for tests and the benchmark harness. A per-call copy of the
// request and response preserves the no-shared-memory semantics of a real
// socket transport, so handlers cannot accidentally alias client buffers.
// The request copy lands in a recycled buffer under the TCP server's rule:
// a handler may use req only until it returns, and a buffer whose call
// produced a non-empty reply is not reused, as the dedup cache may keep a
// reply that aliases the request.
//
// Fault points rpc.call and rpc.reply bracket the dispatch: a fault at
// rpc.call loses the request before the server sees it, one at rpc.reply
// loses only the response — the asymmetry retried mutations must survive.
type InProcClient struct {
	srv    *Server
	id     uint64
	costs  *costmodel.Costs
	tracer *costmodel.Tracer
	reqSeq atomic.Uint64

	mu     sync.Mutex
	closed bool
	bufs   [][]byte // request buffers free for reuse, at most maxFreeBufs
}

// maxFreeBufs bounds how many request buffers a client keeps: one per call
// it has had in flight at once, up to this many. The benchmark workloads
// peak at 2 calls in flight per client (DESIGN.md §13.3), so 8 leaves room
// and caps what a client keeps at 8 × frameBufKeep.
const maxFreeBufs = 8

// DialInProc connects to srv. cb (may be nil) receives server callbacks;
// costs (may be nil) supplies the injected round-trip latency; tracer (may
// be nil) records server-occupancy phases for the scalability simulator.
func DialInProc(srv *Server, cb CallbackFn, costs *costmodel.Costs, tracer *costmodel.Tracer) *InProcClient {
	id := srv.connect(cb)
	return &InProcClient{srv: srv, id: id, costs: costs, tracer: tracer}
}

// Call implements Client.
func (c *InProcClient) Call(method uint32, req []byte) ([]byte, error) {
	return c.CallWithReqID(method, c.reqSeq.Add(1), req)
}

// NextReqID implements IdempotentCaller.
func (c *InProcClient) NextReqID() uint64 { return c.reqSeq.Add(1) }

// CallWithReqID implements IdempotentCaller.
func (c *InProcClient) CallWithReqID(method uint32, reqID uint64, req []byte) ([]byte, error) {
	return c.call(method, reqID, req, c.tracer)
}

// CallBackground is Call for a request made off the session's own thread,
// such as a lease renewal: it is not part of the operation that thread is
// running, so it skips the tracer, which records that one thread and is not
// safe for concurrent use.
func (c *InProcClient) CallBackground(method uint32, req []byte) ([]byte, error) {
	return c.call(method, c.reqSeq.Add(1), req, nil)
}

// call dispatches one request, recording its server occupancy on tracer
// (nil records nothing).
func (c *InProcClient) call(method uint32, reqID uint64, req []byte, tracer *costmodel.Tracer) ([]byte, error) {
	c.mu.Lock()
	closed := c.closed
	var buf []byte
	if n := len(c.bufs); n > 0 {
		buf = c.bufs[n-1]
		c.bufs[n-1] = nil
		c.bufs = c.bufs[:n-1]
	}
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	callHist := c.srv.callHist()
	t0 := callHist.StartTimer()
	defer func() { callHist.ObserveSince(t0) }()
	if c.costs != nil {
		if c.costs.RPCBlocking {
			costmodel.Block(c.costs.RPCRoundTrip)
		} else {
			costmodel.Spin(c.costs.RPCRoundTrip)
		}
	}
	faults := c.srv.injector()
	if err := faults.Hit("rpc.call"); err != nil {
		// The request never reached the server.
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	reqCopy := append(buf[:0], req...)
	tracer.EnterResource("tfs", costmodel.Exclusive)
	resp, err := c.srv.dispatchDedup(c.id, reqID, method, reqCopy)
	tracer.ExitResource("tfs")
	if len(resp) == 0 {
		c.putBuf(reqCopy)
	}
	if err != nil {
		// Errors cross the transport as strings, as they would over a
		// socket; registered codes survive as typed sentinels.
		return nil, remoteFromErr(err)
	}
	// The server executed the call; a fault here loses the response.
	if ferr := faults.Hit("rpc.reply"); ferr != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, ferr)
	}
	respCopy := make([]byte, len(resp))
	copy(respCopy, resp)
	return respCopy, nil
}

// putBuf keeps b for a later request, unless it has grown past
// frameBufKeep or the client already keeps maxFreeBufs.
func (c *InProcClient) putBuf(b []byte) {
	if b = keepBuf(b); b == nil {
		return
	}
	c.mu.Lock()
	if len(c.bufs) < maxFreeBufs {
		c.bufs = append(c.bufs, b)
	}
	c.mu.Unlock()
}

// ClientID implements Client.
func (c *InProcClient) ClientID() uint64 { return c.id }

// Close implements Client.
func (c *InProcClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.srv.disconnect(c.id)
	return nil
}
