package lockservice

import (
	"sync"

	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/wire"
)

// RPC method and callback numbers (range 0x100 is reserved for the lock
// service).
const (
	MethodAcquire = 0x101
	MethodRelease = 0x102
	MethodRenew   = 0x103

	// CallbackRevoke asks a client to release a lock.
	CallbackRevoke = 0x181
)

// revokeLen is the size of a CallbackRevoke payload: lock ID and class.
const revokeLen = 9

// Serve creates a Service wired to srv: handlers registered, revocations
// delivered via the server's callback channel. cfg.Revoke is overridden.
func Serve(srv *rpc.Server, cfg Config) *Service {
	// A revoke payload is encoded into a pooled buffer (a stack one would
	// escape through the callback): a callback uses its payload only until
	// it returns, as the TCP writer copies it into its frame.
	var bufs sync.Pool
	cfg.Revoke = func(holder uint64, lockID uint64, wanted Class) {
		b, _ := bufs.Get().(*[revokeLen]byte)
		if b == nil {
			b = new([revokeLen]byte)
		}
		w := wire.WriterOn(b[:0])
		w.U64(lockID)
		w.U8(uint8(wanted))
		srv.Callback(holder, CallbackRevoke, w.Bytes())
		bufs.Put(b)
	}
	svc := New(cfg)
	srv.Register(MethodAcquire, func(client uint64, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		id := r.U64()
		class := Class(r.U8())
		hier := r.Bool()
		if err := r.Finish(); err != nil {
			return nil, err
		}
		if err := svc.Acquire(client, id, class, hier); err != nil {
			return nil, err
		}
		return nil, nil
	})
	srv.Register(MethodRelease, func(client uint64, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		id := r.U64()
		if err := r.Finish(); err != nil {
			return nil, err
		}
		if err := svc.Release(client, id); err != nil {
			return nil, err
		}
		return nil, nil
	})
	srv.Register(MethodRenew, func(client uint64, _ []byte) ([]byte, error) {
		svc.renew(client)
		return nil, nil
	})
	return svc
}
