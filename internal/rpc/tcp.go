package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/wire"
)

// TCP transport: the paper's loopback-socket RPC. Request frames are
// [u32 length][u32 tag][u64 reqID][payload] where tag is the method number
// and reqID identifies the call for at-most-once dedup (0 opts out, used by
// the handshake). Response and callback frames are [u32 length][u32 tag]
// [payload] with the status code or callback method as the tag.
//
// A client session may span several connections (so one thread blocked in a
// long call — e.g. waiting for a lock — does not serialize the whole
// process): the first connection performs a HELLO handshake that assigns
// the client ID and optionally registers a callback dial-back address;
// extra connections join the session by quoting the ID. The session is
// refcounted by its live connections and survives losing all of them for a
// grace period, so a client that retries a call across a broken connection
// rejoins the same session (and its dedup cache) instead of being treated
// as a new identity. Only when the grace expires with no connection does
// the server disconnect the session, firing lease/lock cleanup.
const (
	methodHello = 0
	maxFrame    = 64 << 20

	// DefaultSessionGrace is how long a TCP session outlives its last
	// connection before the server declares the client dead.
	DefaultSessionGrace = 2 * time.Second
)

// Default client fault-tolerance parameters (see ClientOptions).
const (
	DefaultCallTimeout = 30 * time.Second
	DefaultMaxRetries  = 3
	DefaultRetryBase   = 25 * time.Millisecond
	DefaultRetryMax    = time.Second
)

// frameBufKeep is the largest frame buffer a connection keeps between
// frames. Frames may reach maxFrame; a buffer that grew for one such frame
// is dropped after it rather than pinned for the connection's lifetime.
const frameBufKeep = 64 << 10

// frameConn is a connection with its framing state: the buffered reader
// frames arrive through (headers are peeked in place, so none escapes to
// the heap) and the buffer an outgoing frame is assembled in. One goroutine
// uses a frameConn at a time.
type frameConn struct {
	net.Conn
	br   *bufio.Reader
	wbuf []byte
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{Conn: c, br: bufio.NewReader(c)}
}

// keepBuf returns b for reuse by the next frame, or nil when it has grown
// past frameBufKeep.
func keepBuf(b []byte) []byte {
	if cap(b) > frameBufKeep {
		return nil
	}
	return b
}

// sendFrame writes a frame whose header the caller has laid at the start
// of *buf, with a single Write of header and payload: with TCP_NODELAY the
// two written separately leave as two segments and cost two system calls.
func sendFrame(w io.Writer, buf *[]byte, hdr, payload []byte) error {
	frame := append(hdr, payload...)
	_, err := w.Write(frame)
	*buf = keepBuf(frame)
	return err
}

// readBody consumes the hdrLen-byte header the caller has just peeked and
// reads the n-byte payload behind it, into buf when that is large enough.
// n is checked against maxFrame before any buffer is sized from it.
func readBody(r *bufio.Reader, hdrLen int, n uint32, buf []byte) ([]byte, error) {
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	_, _ = r.Discard(hdrLen) // cannot fail: the bytes were just peeked
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

func writeFrame(w io.Writer, buf *[]byte, tag uint32, payload []byte) error {
	hdr := binary.LittleEndian.AppendUint32((*buf)[:0], uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, tag)
	return sendFrame(w, buf, hdr, payload)
}

// readFrame reads one response or callback frame, into buf when it fits.
func readFrame(r *bufio.Reader, buf []byte) (uint32, []byte, error) {
	hdr, err := r.Peek(8)
	if err != nil {
		return 0, nil, err
	}
	tag := binary.LittleEndian.Uint32(hdr[4:])
	payload, err := readBody(r, 8, binary.LittleEndian.Uint32(hdr[:4]), buf)
	if err != nil {
		return 0, nil, err
	}
	return tag, payload, nil
}

func writeRequestFrame(w io.Writer, buf *[]byte, method uint32, reqID uint64, payload []byte) error {
	hdr := binary.LittleEndian.AppendUint32((*buf)[:0], uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, method)
	hdr = binary.LittleEndian.AppendUint64(hdr, reqID)
	return sendFrame(w, buf, hdr, payload)
}

// readRequestFrame reads one request frame, into buf when it fits.
func readRequestFrame(r *bufio.Reader, buf []byte) (uint32, uint64, []byte, error) {
	hdr, err := r.Peek(16)
	if err != nil {
		return 0, 0, nil, err
	}
	method := binary.LittleEndian.Uint32(hdr[4:8])
	reqID := binary.LittleEndian.Uint64(hdr[8:])
	payload, err := readBody(r, 16, binary.LittleEndian.Uint32(hdr[:4]), buf)
	if err != nil {
		return 0, 0, nil, err
	}
	return method, reqID, payload, nil
}

// tcpSession is the server-side state of one client session, shared by all
// of its connections.
type tcpSession struct {
	id   uint64
	refs int // live connections; guarded by the listener's mu

	cbMu sync.Mutex
	cb   *frameConn

	graceTimer *time.Timer
}

// TCPListener serves a Server over TCP.
type TCPListener struct {
	srv   *Server
	ln    net.Listener
	grace time.Duration

	mu       sync.Mutex
	sessions map[uint64]*tcpSession
	closed   bool
}

// ListenTCP starts serving srv on addr (e.g. "127.0.0.1:0") and returns the
// listener. Serving proceeds on background goroutines until Close.
func ListenTCP(srv *Server, addr string) (*TCPListener, error) {
	return ListenTCPGrace(srv, addr, DefaultSessionGrace)
}

// ListenTCPGrace is ListenTCP with an explicit session grace period: how
// long a session with no live connections waits for a rejoin before the
// server treats the client as dead. Zero disconnects immediately.
func ListenTCPGrace(srv *Server, addr string, grace time.Duration) (*TCPListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &TCPListener{srv: srv, ln: ln, grace: grace, sessions: make(map[uint64]*tcpSession)}
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listening address.
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting connections.
func (l *TCPListener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	return l.ln.Close()
}

func (l *TCPListener) acceptLoop() {
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return
		}
		go l.serveConn(conn)
	}
}

// joinSession attaches a new connection to an existing session, cancelling
// any pending grace expiry. It returns nil if the session is unknown (never
// existed, or its grace already expired — the client must re-HELLO as a new
// identity).
func (l *TCPListener) joinSession(id uint64) *tcpSession {
	l.mu.Lock()
	defer l.mu.Unlock()
	sess := l.sessions[id]
	if sess == nil {
		return nil
	}
	sess.refs++
	if sess.graceTimer != nil {
		sess.graceTimer.Stop()
		sess.graceTimer = nil
	}
	return sess
}

// releaseSession drops one connection's reference. When the last reference
// goes, the session lingers for the grace period (a retrying client rejoins
// within it), then disconnects.
func (l *TCPListener) releaseSession(sess *tcpSession) {
	l.mu.Lock()
	sess.refs--
	if sess.refs > 0 {
		l.mu.Unlock()
		return
	}
	if l.grace <= 0 {
		delete(l.sessions, sess.id)
		l.mu.Unlock()
		l.endSession(sess)
		return
	}
	sess.graceTimer = time.AfterFunc(l.grace, func() {
		l.mu.Lock()
		if sess.refs > 0 || l.sessions[sess.id] != sess {
			l.mu.Unlock()
			return
		}
		delete(l.sessions, sess.id)
		l.mu.Unlock()
		l.endSession(sess)
	})
	l.mu.Unlock()
}

func (l *TCPListener) endSession(sess *tcpSession) {
	l.srv.disconnect(sess.id)
	sess.cbMu.Lock()
	if sess.cb != nil {
		sess.cb.Close()
		sess.cb = nil
	}
	sess.cbMu.Unlock()
}

func (l *TCPListener) serveConn(nc net.Conn) {
	defer nc.Close()
	conn := newFrameConn(nc)
	method, _, payload, err := readRequestFrame(conn.br, nil)
	if err != nil || method != methodHello {
		return
	}
	r := wire.NewReader(payload)
	existing := r.U64()
	cbAddr := r.Str()
	if r.Finish() != nil {
		return
	}
	var sess *tcpSession
	if existing != 0 {
		if sess = l.joinSession(existing); sess == nil {
			_ = writeFrame(conn.Conn, &conn.wbuf, statusErr, []byte("rpc: unknown session"))
			return
		}
	} else {
		sess = &tcpSession{refs: 1}
		if cbAddr != "" {
			cbConn, err := net.Dial("tcp", cbAddr)
			if err != nil {
				return
			}
			sess.cb = newFrameConn(cbConn)
		}
		sess.id = l.srv.connect(func(cbMethod uint32, p []byte) {
			sess.cbMu.Lock()
			defer sess.cbMu.Unlock()
			if sess.cb != nil {
				_ = writeFrame(sess.cb.Conn, &sess.cb.wbuf, cbMethod, p)
			}
		})
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			l.endSession(sess)
			return
		}
		l.sessions[sess.id] = sess
		l.mu.Unlock()
	}
	defer l.releaseSession(sess)
	w := wire.NewWriter(16)
	w.U64(sess.id)
	if err := writeFrame(conn.Conn, &conn.wbuf, statusOK, w.Bytes()); err != nil {
		return
	}
	// Requests are read into one buffer per connection: a handler may use
	// req only until it returns (Handler). The one thing that outlives the
	// call is the reply the dedup cache keeps, and a reply may be (part of)
	// the request, so only an empty reply leaves the buffer to the next
	// frame — the case of every batch the file-system service applies —
	// and only while it is no larger than frameBufKeep.
	var reqBuf []byte
	for {
		method, reqID, req, err := readRequestFrame(conn.br, reqBuf)
		if err != nil {
			return
		}
		resp, err := l.srv.dispatchDedup(sess.id, reqID, method, req)
		if reqBuf = keepBuf(req); len(resp) > 0 {
			reqBuf = nil
		}
		// Fault point: the server executed the request but the connection
		// dies before the response leaves — the client must retry over a
		// fresh connection and the dedup cache must absorb the duplicate.
		if l.srv.injector().Hit("rpc.tcp.respond") != nil {
			return
		}
		if err != nil {
			status, p := encodeErrFrame(err)
			if werr := writeFrame(conn.Conn, &conn.wbuf, status, p); werr != nil {
				return
			}
			continue
		}
		if err := writeFrame(conn.Conn, &conn.wbuf, statusOK, resp); err != nil {
			return
		}
	}
}

// ClientOptions tunes the TCP client's fault tolerance.
type ClientOptions struct {
	// CallTimeout bounds each call attempt (write + response). On expiry
	// the attempt's connection is torn down and Call returns ErrTimeout.
	// 0 selects DefaultCallTimeout; negative disables the deadline.
	CallTimeout time.Duration
	// MaxRetries is how many times a call is retried after a transient
	// connection failure (broken pipe, reset, refused dial). Retries reuse
	// the call's request ID, so the server applies the mutation at most
	// once. Negative disables retries.
	MaxRetries int
	// RetryBase and RetryMax bound the exponential backoff between
	// retries; the delay doubles from RetryBase and each step is jittered
	// in [delay/2, delay). 0 selects the defaults.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Obs, when non-nil, receives client-side call metrics: the rpc.call
	// latency histogram plus rpc.client.calls / rpc.retries / rpc.timeouts
	// counters. (The server publishes its own rpc.calls / rpc.dispatch on
	// its sink; over TCP the two sinks are different processes' views.)
	Obs *obs.Sink
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.CallTimeout == 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = DefaultRetryBase
	}
	if o.RetryMax <= 0 {
		o.RetryMax = DefaultRetryMax
	}
	return o
}

// TCPClient is a client session over one or more TCP connections.
type TCPClient struct {
	addr   string
	id     uint64
	opts   ClientOptions
	reqSeq atomic.Uint64

	// Metrics resolved once at construction; all nil (free no-ops) when
	// opts.Obs is nil.
	obsCalls    *obs.Counter
	obsRetries  *obs.Counter
	obsTimeouts *obs.Counter
	obsCall     *obs.Histogram

	mu     sync.Mutex
	idle   []*frameConn
	cbLn   net.Listener
	closed bool
}

// DialTCP connects to a TCPListener at addr with default fault-tolerance
// options. cb, if non-nil, receives server callbacks via a dial-back
// connection.
func DialTCP(addr string, cb CallbackFn) (*TCPClient, error) {
	return DialTCPOpts(addr, cb, ClientOptions{})
}

// DialTCPOpts is DialTCP with explicit fault-tolerance options.
func DialTCPOpts(addr string, cb CallbackFn, opts ClientOptions) (*TCPClient, error) {
	c := &TCPClient{addr: addr, opts: opts.withDefaults()}
	c.obsCalls = c.opts.Obs.Counter("rpc.client.calls")
	c.obsRetries = c.opts.Obs.Counter("rpc.retries")
	c.obsTimeouts = c.opts.Obs.Counter("rpc.timeouts")
	c.obsCall = c.opts.Obs.Histogram("rpc.call")
	cbAddr := ""
	if cb != nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.cbLn = ln
		cbAddr = ln.Addr().String()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			for {
				// cb may keep the payload: every callback gets its own.
				method, payload, err := readFrame(br, nil)
				if err != nil {
					return
				}
				cb(method, payload)
			}
		}()
	}
	conn, id, err := c.dialConn(0, cbAddr)
	if err != nil {
		if c.cbLn != nil {
			c.cbLn.Close()
		}
		return nil, err
	}
	c.id = id
	c.idle = append(c.idle, conn)
	return c, nil
}

func (c *TCPClient) dialConn(existing uint64, cbAddr string) (*frameConn, uint64, error) {
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, 0, err
	}
	conn := newFrameConn(nc)
	if c.opts.CallTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.opts.CallTimeout))
	}
	w := wire.NewWriter(32)
	w.U64(existing)
	w.String(cbAddr)
	if err := writeRequestFrame(conn.Conn, &conn.wbuf, methodHello, 0, w.Bytes()); err != nil {
		conn.Close()
		return nil, 0, err
	}
	status, payload, err := readFrame(conn.br, nil)
	if err != nil {
		conn.Close()
		return nil, 0, fmt.Errorf("rpc: hello failed: %v", err)
	}
	if status != statusOK {
		conn.Close()
		return nil, 0, fmt.Errorf("rpc: hello rejected: %s", payload)
	}
	if c.opts.CallTimeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	r := wire.NewReader(payload)
	id := r.U64()
	if err := r.Finish(); err != nil {
		conn.Close()
		return nil, 0, err
	}
	return conn, id, nil
}

// backoff returns the jittered exponential delay before retry attempt n
// (0-based): doubling from RetryBase, capped at RetryMax, jittered into
// [d/2, d) so a herd of retrying clients decorrelates.
func (c *TCPClient) backoff(n int) time.Duration {
	d := c.opts.RetryBase << uint(n)
	if d > c.opts.RetryMax || d <= 0 {
		d = c.opts.RetryMax
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half))
}

// Call implements Client. Each call uses a free connection from the pool,
// dialing a new session connection when all are busy. A per-attempt
// deadline bounds the wait for the response (ErrTimeout on expiry — the
// server may still execute the request); transient connection failures are
// retried with jittered exponential backoff under the same request ID, so
// the server's dedup cache applies a retried mutation at most once. When
// retries are exhausted Call returns ErrUnreachable wrapping the last
// failure.
func (c *TCPClient) Call(method uint32, req []byte) ([]byte, error) {
	return c.CallWithReqID(method, c.reqSeq.Add(1), req)
}

// NextReqID implements IdempotentCaller.
func (c *TCPClient) NextReqID() uint64 { return c.reqSeq.Add(1) }

// CallWithReqID implements IdempotentCaller.
func (c *TCPClient) CallWithReqID(method uint32, reqID uint64, req []byte) ([]byte, error) {
	c.obsCalls.Inc()
	t0 := c.obsCall.StartTimer()
	defer c.obsCall.ObserveSince(t0)
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err, final := c.tryCall(method, reqID, req)
		if final {
			if errors.Is(err, ErrTimeout) {
				c.obsTimeouts.Inc()
			}
			return resp, err
		}
		lastErr = err
		if attempt >= c.opts.MaxRetries {
			break
		}
		c.obsRetries.Inc()
		time.Sleep(c.backoff(attempt))
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
	}
	return nil, fmt.Errorf("%w: %d attempts: %v", ErrUnreachable, c.opts.MaxRetries+1, lastErr)
}

// tryCall makes one attempt. final reports that the result should be
// returned as-is (success, application error, timeout, or client closed)
// rather than retried.
func (c *TCPClient) tryCall(method uint32, reqID uint64, req []byte) (resp []byte, err error, final bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed, true
	}
	var conn *frameConn
	if n := len(c.idle); n > 0 {
		conn = c.idle[n-1]
		c.idle = c.idle[:n-1]
	}
	c.mu.Unlock()
	if conn == nil {
		conn, _, err = c.dialConn(c.id, "")
		if err != nil {
			return nil, err, false
		}
	}
	if c.opts.CallTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.opts.CallTimeout))
	}
	if err := writeRequestFrame(conn.Conn, &conn.wbuf, method, reqID, req); err != nil {
		conn.Close()
		return nil, err, false
	}
	// The reply belongs to the caller: it gets a buffer of its own.
	status, payload, err := readFrame(conn.br, nil)
	if err != nil {
		conn.Close()
		if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
			// The request may be executing; surface the deadline rather
			// than silently waiting forever. The caller may retry — the
			// dedup cache makes that safe — but that is its decision.
			return nil, fmt.Errorf("%w: %v", ErrTimeout, err), true
		}
		return nil, err, false
	}
	if c.opts.CallTimeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	c.mu.Lock()
	if c.closed {
		conn.Close()
	} else {
		c.idle = append(c.idle, conn)
	}
	c.mu.Unlock()
	if status != statusOK {
		return nil, decodeErrFrame(status, payload), true
	}
	return payload, nil, true
}

// encodeErrFrame serializes a handler error for the response frame. Errors
// with a registered stable code travel as statusErrCoded so the client can
// reconstruct the typed sentinel; everything else stays a plain message.
func encodeErrFrame(err error) (uint32, []byte) {
	code := ErrorCode(err)
	if code == 0 {
		return statusErr, []byte(err.Error())
	}
	msg := err.Error()
	p := make([]byte, 8+len(msg))
	binary.LittleEndian.PutUint32(p[0:4], code)
	binary.LittleEndian.PutUint32(p[4:8], retryHint(err))
	copy(p[8:], msg)
	return statusErrCoded, p
}

// decodeErrFrame reconstructs the application error from a non-OK response.
func decodeErrFrame(status uint32, payload []byte) error {
	if status == statusErrCoded && len(payload) >= 8 {
		code := binary.LittleEndian.Uint32(payload[0:4])
		retryMs := binary.LittleEndian.Uint32(payload[4:8])
		return NewRemoteError(string(payload[8:]), code, retryMs)
	}
	return &RemoteError{Msg: string(payload)}
}

// ClientID implements Client.
func (c *TCPClient) ClientID() uint64 { return c.id }

// Close implements Client.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	if c.cbLn != nil {
		c.cbLn.Close()
	}
	return nil
}
