package tfs

import (
	"errors"
	"strings"
	"testing"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/wire"
)

// refusedWith reports whether err is the given refusal. Handler errors cross
// the transport as strings; only the sentinels fsproto registers a code for
// come back typed, the rest are recognizable by their text.
func refusedWith(err, sentinel error) bool {
	return err != nil && (errors.Is(err, sentinel) || strings.Contains(err.Error(), sentinel.Error()))
}

// TestRequestSurface pins the trusted service's request surface: every
// method number in the 0x200 range is either live (a handler answers) or
// retired (rpc.ErrNoHandler), with nothing in between — and the batch
// header's checks all run on a set of ONE shard, where routing and the
// tenant binding are as much the service's defence as on a set of many.
func TestRequestSurface(t *testing.T) {
	svc, srv := newService(t)
	client := rpc.DialInProc(srv, nil, nil, nil)
	defer client.Close()

	methods := []struct {
		name    string
		num     uint32
		retired bool
	}{
		{"Mount", fsproto.MethodMount, false},
		{"Prealloc", fsproto.MethodPrealloc, true},
		{"ApplyLog", fsproto.MethodApplyLog, true},
		{"Chmod", fsproto.MethodChmod, false},
		{"OpenFile", fsproto.MethodOpenFile, false},
		{"CloseFile", fsproto.MethodCloseFile, false},
		{"Sync", fsproto.MethodSync, true},
		{"StatVol", fsproto.MethodStatVol, true},
		{"Statfs", fsproto.MethodStatfs, false},
		{"ApplyLogSeq", fsproto.MethodApplyLogSeq, true},
		{"ApplyLogShard", fsproto.MethodApplyLogShard, false},
		{"PreallocShard", fsproto.MethodPreallocShard, false},
		{"TxApply", fsproto.MethodTxApply, false},
		{"TenantCtl", fsproto.MethodTenantCtl, false},
		{"TenantStat", fsproto.MethodTenantStat, false},
	}
	// The table is the whole range: a new method number must be added here.
	for i, m := range methods {
		if want := uint32(0x201 + i); m.num != want {
			t.Fatalf("method table row %d is %s = %#x, want %#x", i, m.name, m.num, want)
		}
	}
	if _, err := client.Call(0x201+uint32(len(methods)), nil); !refusedWith(err, rpc.ErrNoHandler) {
		t.Fatalf("method past the table: %v, want ErrNoHandler", err)
	}
	for _, m := range methods {
		// An empty payload: live handlers that take arguments refuse it on
		// their own terms, so probing has no effect on the volume.
		_, err := client.Call(m.num, nil)
		if got := refusedWith(err, rpc.ErrNoHandler); got != m.retired {
			t.Errorf("%s (%#x): err = %v, retired = %v", m.name, m.num, err, m.retired)
		}
	}

	// Bind the session to tenant 7, as libfs does at mount.
	w := wire.NewWriter(8)
	w.U32(1)
	w.U32(7)
	if _, err := client.Call(fsproto.MethodMount, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	epoch := svc.set.RoutingEpoch()
	good := fsproto.BatchHeader{RoutingEpoch: epoch, Tenant: 7, Seq: 1, Epoch: 1, Opener: true}
	with := func(f func(*fsproto.BatchHeader)) []byte {
		h := good
		f(&h)
		return fsproto.AppendBatch(nil, h, nil)
	}
	for _, c := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"short header", with(func(*fsproto.BatchHeader) {})[:fsproto.BatchHeaderLen-1], ErrValidation},
		{"sequence 0", with(func(h *fsproto.BatchHeader) { h.Seq = 0 }), ErrValidation},
		{"foreign tenant", with(func(h *fsproto.BatchHeader) { h.Tenant = 8 }), ErrValidation},
		{"stale routing epoch", with(func(h *fsproto.BatchHeader) { h.RoutingEpoch = epoch + 1 }), fsproto.ErrWrongShard},
		{"shard out of range", with(func(h *fsproto.BatchHeader) { h.Shard = 1 }), fsproto.ErrWrongShard},
	} {
		_, err := client.Call(fsproto.MethodApplyLogShard, c.frame)
		if !refusedWith(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if errors.Is(c.want, fsproto.ErrWrongShard) {
			if shard, ep, ok := fsproto.WrongShardHint(err); !ok || shard != 0 || ep != epoch {
				t.Errorf("%s: hint = (%d, %d, %v), want (0, %d)", c.name, shard, ep, ok, epoch)
			}
		}
	}
	// None of the refusals reached the window gate: the same sequence
	// number, well-formed, is accepted.
	if _, err := client.Call(fsproto.MethodApplyLogShard, with(func(*fsproto.BatchHeader) {})); err != nil {
		t.Fatalf("well-formed batch: %v", err)
	}
	if got := svc.BatchesApplied.Load(); got != 1 {
		t.Fatalf("BatchesApplied = %d, want 1", got)
	}

	// Prealloc routes by the same two words.
	q := fsproto.PreallocRequest{RoutingEpoch: epoch + 1, Size: 4096, Count: 1}
	if _, err := client.Call(fsproto.MethodPreallocShard, fsproto.EncodePrealloc(q)); !errors.Is(err, fsproto.ErrWrongShard) {
		t.Fatalf("stale prealloc: %v, want ErrWrongShard", err)
	}
	q.RoutingEpoch = epoch
	if _, err := client.Call(fsproto.MethodPreallocShard, fsproto.EncodePrealloc(q)); err != nil {
		t.Fatalf("prealloc: %v", err)
	}
}
