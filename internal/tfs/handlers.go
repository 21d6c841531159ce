package tfs

import (
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/journal"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/sobj"
	"github.com/aerie-fs/aerie/internal/wire"
)

// lockX aliases the exclusive lock class for validation checks.
const (
	lockX  = lockservice.X
	lockIX = lockservice.IX
)

func journalErrFull() error { return journal.ErrFull }

// registerHandlers wires the set's RPC methods: batches and prealloc
// requests name their shard and routing epoch, OID-addressed methods route
// by the object's owning shard. The numbers fsproto lists as retired get no
// handler.
func (set *ShardSet) registerHandlers() {
	srv := set.srv
	srv.Register(fsproto.MethodMount, func(client uint64, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		uid := r.U32()
		// Optional tenant binding after the UID; a mount without one lands
		// in the default tenant (0: weight 1, no quota).
		var tenant uint32
		if len(req) >= 8 {
			tenant = r.U32()
		}
		if err := r.Finish(); err != nil {
			return nil, err
		}
		reply := set.Mount(client, uid, tenant)
		return fsproto.EncodeMountReply(&reply), nil
	})
	srv.Register(fsproto.MethodPreallocShard, func(client uint64, req []byte) ([]byte, error) {
		q, err := fsproto.DecodePrealloc(req)
		if err != nil {
			return nil, err
		}
		if err := set.checkFrame(q.Shard, q.RoutingEpoch); err != nil {
			return nil, err
		}
		addrs, err := set.shards[q.Shard].Prealloc(client, q.Size, q.Count)
		if err != nil {
			return nil, err
		}
		return fsproto.EncodeAddrs(addrs), nil
	})
	srv.Register(fsproto.MethodApplyLogShard, func(client uint64, req []byte) ([]byte, error) {
		return nil, set.ApplyBatch(client, req)
	})
	srv.Register(fsproto.MethodTxApply, func(client uint64, req []byte) ([]byte, error) {
		return nil, set.TxApply(client, req)
	})
	srv.Register(fsproto.MethodChmod, func(client uint64, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		oid := sobj.OID(r.U64())
		perm := r.U32()
		hw := r.Bool()
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return nil, set.ownerOf(oid.Addr()).Chmod(client, oid, perm, hw)
	})
	srv.Register(fsproto.MethodOpenFile, func(client uint64, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		oid := sobj.OID(r.U64())
		if err := r.Finish(); err != nil {
			return nil, err
		}
		set.ownerOf(oid.Addr()).OpenFile(client, oid)
		return nil, nil
	})
	srv.Register(fsproto.MethodCloseFile, func(client uint64, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		oid := sobj.OID(r.U64())
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return nil, set.ownerOf(oid.Addr()).CloseFile(client, oid)
	})
	srv.Register(fsproto.MethodStatfs, func(client uint64, _ []byte) ([]byte, error) {
		rep, err := set.Statfs()
		if err != nil {
			return nil, err
		}
		return fsproto.EncodeStatfsReply(&rep), nil
	})
	srv.Register(fsproto.MethodTenantCtl, func(client uint64, req []byte) ([]byte, error) {
		q, err := fsproto.DecodeTenantCtl(req)
		if err != nil {
			return nil, err
		}
		set.TenantCtl(q)
		return nil, nil
	})
	srv.Register(fsproto.MethodTenantStat, func(client uint64, _ []byte) ([]byte, error) {
		return fsproto.EncodeTenantStatReply(set.TenantStat()), nil
	})
}
