// Package rpc provides the remote-procedure-call layer between libFS clients
// and the trusted file-system service (§5.1). The paper implements RPC with
// sockets on the loopback interface and a multithreaded server; this package
// offers that transport (see tcp.go, used by cmd/aerie-tfsd) plus a
// deterministic in-process transport that charges a calibrated round-trip
// latency, which the test suite and benchmark harness use so results do not
// depend on the host's loopback stack.
//
// The server supports a callback channel from the server to each client,
// used by the distributed lock service to revoke locks.
//
// Fault tolerance: each call carries a per-session request ID, and the
// server keeps a bounded per-session cache of completed results, so a
// mutation retried across a reconnect (the client could not tell whether
// the server executed it) is applied at most once — the retry returns the
// cached result instead of re-dispatching. Transport failures surface as
// typed errors: ErrTimeout when a per-call deadline expires, ErrUnreachable
// when retries are exhausted; IsTransport distinguishes both (and any other
// connection failure) from application errors, which cross the transport as
// *RemoteError.
package rpc

import (
	"errors"
	"fmt"
	"sync"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/obs"
)

// Status codes carried on responses.
const (
	statusOK  = 0
	statusErr = 1
	// statusErrCoded carries an application error with a stable error code
	// and a retry-after hint: payload = [u32 code][u32 retryAfterMs][msg].
	statusErrCoded = 2
)

// Errors.
var (
	ErrNoHandler = errors.New("rpc: no handler for method")
	ErrClosed    = errors.New("rpc: connection closed")
	// ErrTimeout reports that a call's deadline expired before the response
	// arrived. The request may or may not have executed on the server; the
	// request-ID dedup cache makes a retry safe, but Call does not retry
	// after a deadline on its own — the caller decides.
	ErrTimeout = errors.New("rpc: call deadline exceeded")
	// ErrUnreachable reports that the transport failed and bounded retries
	// with backoff did not restore it.
	ErrUnreachable = errors.New("rpc: server unreachable")
)

// RemoteError is an application error returned by a handler, reconstructed
// on the client side. Errors registered with RegisterErrorCode additionally
// carry a stable Code across the wire and unwrap to their sentinel, so
// errors.Is(err, sentinel) holds on the client while IsTransport stays
// false.
type RemoteError struct {
	Msg string
	// Code is the stable application error code (0 = uncoded).
	Code uint32
	// RetryAfterMs is the server's backpressure hint (0 = none); set on
	// shed requests so the client's jittered backoff has a floor.
	RetryAfterMs uint32

	sentinel error
}

func (e *RemoteError) Error() string { return "rpc: remote: " + e.Msg }

// Unwrap exposes the registered sentinel for the error's code, making
// errors.Is work across the transport.
func (e *RemoteError) Unwrap() error { return e.sentinel }

// NewRemoteError reconstructs a client-side RemoteError, resolving the
// code's registered sentinel. Transports use it when decoding responses.
func NewRemoteError(msg string, code, retryAfterMs uint32) *RemoteError {
	return &RemoteError{Msg: msg, Code: code, RetryAfterMs: retryAfterMs, sentinel: sentinelFor(code)}
}

// RetryAfterHinter is implemented by server-side errors that carry a
// backpressure hint (e.g. the TFS's admission-control shed error).
type RetryAfterHinter interface{ RetryAfterMs() uint32 }

// Error-code registry: protocol packages (fsproto) register stable codes
// for sentinel errors that must survive the wire typed. The registry is
// process-global because both ends must agree on it, exactly like method
// numbers.
var (
	codeMu     sync.RWMutex
	codeToErr  = map[uint32]error{}
	codedErrs  []error
	codedCodes []uint32
)

// RegisterErrorCode maps a stable nonzero application error code to a
// sentinel error. Server transports stamp the code onto responses whose
// handler error errors.Is the sentinel; client transports resolve the code
// back so the sentinel survives the round trip.
func RegisterErrorCode(code uint32, sentinel error) {
	if code == 0 || sentinel == nil {
		panic("rpc: RegisterErrorCode requires a nonzero code and a sentinel")
	}
	codeMu.Lock()
	defer codeMu.Unlock()
	if old, ok := codeToErr[code]; ok && old != sentinel {
		panic(fmt.Sprintf("rpc: error code %d registered twice", code))
	}
	codeToErr[code] = sentinel
	codedErrs = append(codedErrs, sentinel)
	codedCodes = append(codedCodes, code)
}

// ErrorCode returns the registered code err matches, or 0.
func ErrorCode(err error) uint32 {
	if err == nil {
		return 0
	}
	codeMu.RLock()
	defer codeMu.RUnlock()
	for i, sentinel := range codedErrs {
		if errors.Is(err, sentinel) {
			return codedCodes[i]
		}
	}
	return 0
}

func sentinelFor(code uint32) error {
	if code == 0 {
		return nil
	}
	codeMu.RLock()
	defer codeMu.RUnlock()
	return codeToErr[code]
}

// retryHint extracts a server-side error's backpressure hint, if any.
func retryHint(err error) uint32 {
	var h RetryAfterHinter
	if errors.As(err, &h) {
		return h.RetryAfterMs()
	}
	return 0
}

// remoteFromErr builds the client-visible RemoteError for a handler error,
// used by the in-process transport (the TCP transport performs the same
// mapping through the statusErrCoded frame).
func remoteFromErr(err error) *RemoteError {
	return NewRemoteError(err.Error(), ErrorCode(err), retryHint(err))
}

// IsTransport reports whether err is a transport-level failure (timeout,
// unreachable, dropped connection, closed client) rather than an
// application error returned by the remote handler. Application errors
// always cross the transport as *RemoteError; everything else means the
// request's fate is unknown to the caller.
func IsTransport(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	return !errors.As(err, &re)
}

// Handler processes one request from the identified client. req belongs to
// the transport and is valid only until the handler returns: a handler
// copies out whatever it keeps. The reply alone may alias req.
type Handler func(client uint64, req []byte) ([]byte, error)

// CallbackFn receives one-way server-to-client notifications.
type CallbackFn func(method uint32, payload []byte)

// Client is the caller's view of a connection to a Server.
type Client interface {
	// Call invokes method with req and returns the response.
	Call(method uint32, req []byte) ([]byte, error)
	// ClientID returns the server-assigned identity of this client.
	ClientID() uint64
	// Close tears down the connection.
	Close() error
}

// IdempotentCaller is the optional client capability for caller-managed
// retries: the caller reserves a request ID once, then replays the same
// call under it after transport failures — across however many connections
// it takes — and the server's dedup cache guarantees at most one execution.
// Both built-in transports implement it.
type IdempotentCaller interface {
	// NextReqID reserves a fresh request ID.
	NextReqID() uint64
	// CallWithReqID is Call under a caller-chosen request ID. Calls with
	// the same ID return the first execution's result.
	CallWithReqID(method uint32, reqID uint64, req []byte) ([]byte, error)
}

// dedupCap bounds the per-session result cache. Retries arrive promptly
// (within the client's backoff schedule), so only a small window of recent
// results is ever consulted; older entries are evicted FIFO.
const dedupCap = 1024

// dedupEntry is one cached (or in-flight) request result. Entries live in
// the session's map by value, so the common call — executed once, never
// retried — allocates nothing for its bookkeeping.
type dedupEntry struct {
	done bool     // resp/err are valid
	dup  *dupWait // set by a duplicate that found the call in flight
	resp []byte
	err  error
}

// dupWait is where duplicates of an in-flight call wait for its result.
type dupWait struct {
	done chan struct{} // closed when resp/err are valid
	resp []byte
	err  error
}

// session holds the per-client at-most-once state.
type session struct {
	mu    sync.Mutex
	cache map[uint64]dedupEntry
	order []uint64 // insertion order for FIFO eviction
}

// Server dispatches requests to registered handlers and can push callbacks
// to connected clients. It serves both transports simultaneously.
type Server struct {
	mu        sync.RWMutex
	handlers  map[uint32]Handler
	callbacks map[uint64]CallbackFn
	sessions  map[uint64]*session
	onClose   map[uint64]func()
	nextID    uint64
	closed    bool

	faults *faultinject.Injector

	// Metrics resolved by SetObs; all nil (free no-ops) until then.
	obsDispatch  *obs.Histogram // server-side handler time, per request
	obsCall      *obs.Histogram // client-observed call time (in-proc transport)
	obsCalls     *obs.Counter
	obsCrossings *obs.Counter
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers:  make(map[uint32]Handler),
		callbacks: make(map[uint64]CallbackFn),
		sessions:  make(map[uint64]*session),
		onClose:   make(map[uint64]func()),
	}
}

// SetObs wires an observability sink: rpc.dispatch times every handler
// execution server-side, rpc.calls counts requests, and rpc.crossings
// counts simulated protection-domain crossings (each RPC models one
// user→TFS crossing and back, the kernel-crossing analogue this emulation
// charges via costmodel.RPCRoundTrip). A nil sink is inert.
func (s *Server) SetObs(sink *obs.Sink) {
	s.mu.Lock()
	s.obsDispatch = sink.Histogram("rpc.dispatch")
	s.obsCall = sink.Histogram("rpc.call")
	s.obsCalls = sink.Counter("rpc.calls")
	s.obsCrossings = sink.Counter("rpc.crossings")
	s.mu.Unlock()
}

// callHist returns the client-observed call histogram (may be nil). The
// in-proc transport shares the server's sink, as both live in one process.
func (s *Server) callHist() *obs.Histogram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obsCall
}

// obsMetrics returns the resolved metrics (any may be nil).
func (s *Server) obsMetrics() (*obs.Histogram, *obs.Counter, *obs.Counter) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obsDispatch, s.obsCalls, s.obsCrossings
}

// SetFaults arms fault points on the server's transports (rpc.call,
// rpc.reply, rpc.tcp.respond). A nil injector is inert.
func (s *Server) SetFaults(inj *faultinject.Injector) {
	s.mu.Lock()
	s.faults = inj
	s.mu.Unlock()
}

func (s *Server) injector() *faultinject.Injector {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.faults
}

// Register installs the handler for a method. Method 0 is reserved.
func (s *Server) Register(method uint32, h Handler) {
	if method == 0 {
		panic("rpc: method 0 is reserved")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// OnDisconnect installs a hook invoked when the given client disconnects.
func (s *Server) OnDisconnect(client uint64, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onClose[client] = fn
}

// dispatch runs the handler for one request.
func (s *Server) dispatch(client uint64, method uint32, req []byte) ([]byte, error) {
	s.mu.RLock()
	h, ok := s.handlers[method]
	hist := s.obsDispatch
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %d", ErrNoHandler, method)
	}
	t0 := hist.StartTimer()
	resp, err := h(client, req)
	hist.ObserveSince(t0)
	return resp, err
}

// dispatchDedup runs the handler for one request at most once per (client,
// reqID): a duplicate — a retry of a call whose response was lost — returns
// the cached result of the original execution, and a duplicate racing the
// original waits for it instead of re-executing. reqID 0 opts out (used by
// the handshake and non-idempotent-unaware legacy callers).
func (s *Server) dispatchDedup(client uint64, reqID uint64, method uint32, req []byte) ([]byte, error) {
	_, calls, crossings := s.obsMetrics()
	calls.Inc()
	// One request = one user→service protection crossing and its return.
	crossings.Add(2)
	if reqID == 0 {
		return s.dispatch(client, method, req)
	}
	s.mu.RLock()
	sess := s.sessions[client]
	s.mu.RUnlock()
	if sess == nil {
		return s.dispatch(client, method, req)
	}
	sess.mu.Lock()
	if e, ok := sess.cache[reqID]; ok {
		if e.dup == nil && !e.done {
			e.dup = &dupWait{done: make(chan struct{})}
			sess.cache[reqID] = e
		}
		sess.mu.Unlock()
		if e.done {
			return e.resp, e.err
		}
		<-e.dup.done
		return e.dup.resp, e.dup.err
	}
	sess.cache[reqID] = dedupEntry{}
	sess.order = append(sess.order, reqID)
	// Never evict an in-flight entry: a racing duplicate may be parked on
	// it.
	for len(sess.order) > dedupCap && sess.cache[sess.order[0]].done {
		delete(sess.cache, sess.order[0])
		sess.order = sess.order[1:]
	}
	sess.mu.Unlock()
	resp, err := s.dispatch(client, method, req)
	sess.mu.Lock()
	if dup := sess.cache[reqID].dup; dup != nil {
		dup.resp, dup.err = resp, err
		close(dup.done)
	}
	sess.cache[reqID] = dedupEntry{done: true, resp: resp, err: err}
	sess.mu.Unlock()
	return resp, err
}

// Callback pushes a one-way notification to a client. It is a no-op for
// unknown (already departed) clients.
func (s *Server) Callback(client uint64, method uint32, payload []byte) {
	s.mu.RLock()
	cb := s.callbacks[client]
	s.mu.RUnlock()
	if cb != nil {
		cb(method, payload)
	}
}

// connect registers a new client and returns its ID.
func (s *Server) connect(cb CallbackFn) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.callbacks[id] = cb
	s.sessions[id] = &session{cache: make(map[uint64]dedupEntry)}
	return id
}

// disconnect removes a client and fires its disconnect hook.
func (s *Server) disconnect(client uint64) {
	s.mu.Lock()
	delete(s.callbacks, client)
	delete(s.sessions, client)
	fn := s.onClose[client]
	delete(s.onClose, client)
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}
