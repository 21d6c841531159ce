package libfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/lockservice"
	"github.com/aerie-fs/aerie/internal/rpc"
	"github.com/aerie-fs/aerie/internal/sobj"
)

// waitHits waits until point has been hit n times.
func waitHits(t *testing.T, inj *faultinject.Injector, point string, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); inj.Counts()[point] < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached hit %d", point, n)
		}
	}
}

// TestStagedKeysOutliveRetire: a batch that retires while a later op is
// staged leaves the view, and so the key arena its entries point into,
// alone. A synchronous Sync ships k1 and, in the same drain, the batch k2
// joined during k1's ship; keys staged while that second ship waits must
// not land on k2's bytes, or the view would lose k2 before SCM has it.
func TestStagedKeysOutliveRetire(t *testing.T) {
	inj := faultinject.New()
	s, _ := newSess(t, libfs.Config{UID: 1, Faults: inj})
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	child, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return fmt.Appendf(nil, "key-%04d", i) }
	if err := s.DirInsert(s.Root, key(0), child, lock); err != nil {
		t.Fatal(err)
	}
	const delay = 500 * time.Millisecond
	pre := inj.Counts()["libfs.flush.preship"]
	post := inj.Counts()["libfs.flush.postship"]
	inj.DelayAt("libfs.flush.preship", pre+1, delay)
	inj.DelayAt("libfs.flush.preship", pre+2, delay)
	synced := make(chan error, 1)
	go func() { synced <- s.Sync() }()

	// During k1's ship: stage k2, so k1 retires with the batch not empty.
	waitHits(t, inj, "libfs.flush.preship", pre+1)
	if err := s.DirInsert(s.Root, key(1), child, lock); err != nil {
		t.Fatal(err)
	}
	if inj.Counts()["libfs.flush.postship"] != post {
		t.Fatal("k1's ship finished before k2 was staged")
	}
	// During k2's ship: stage keys of k2's length, then look k2 up.
	waitHits(t, inj, "libfs.flush.preship", pre+2)
	const more = 1000
	for i := 2; i < 2+more; i++ {
		if err := s.DirInsert(s.Root, key(i), child, lock); err != nil {
			t.Fatal(err)
		}
	}
	if inj.Counts()["libfs.flush.postship"] != post+1 {
		t.Fatal("k2's ship finished before the keys were staged")
	}
	// The view answers at once; a lookup that reads SCM waits for the ship.
	got, ok, err := s.DirLookup(s.Root, key(1))
	if inj.Counts()["libfs.flush.postship"] != post+1 {
		t.Fatal("the view no longer answers for k2: its lookup waited for k2's ship")
	}
	if err != nil || !ok || got != child {
		t.Fatalf("staged k2: %v %v %v, want %v", got, ok, err, child)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := s.PendingOps(); n != 0 {
		t.Fatalf("%d ops pending after Sync", n)
	}
	for i := 0; i < 2+more; i++ {
		if got, ok, err := s.DirLookup(s.Root, key(i)); err != nil || !ok || got != child {
			t.Fatalf("%s in SCM: %v %v %v, want %v", key(i), got, ok, err, child)
		}
	}
}

// TestDirIterateSnapshotOwnsKeys: DirIterate hands fn its staged names from
// a snapshot, and fn may Sync, which lets the key arena be reused, and stage
// keys of the same length into it. The names fn gets are still the ones
// that were staged.
func TestDirIterateSnapshotOwnsKeys(t *testing.T) {
	s, _ := newSess(t, libfs.Config{UID: 1})
	lock := s.Root.Lock()
	if err := s.Clerk.Acquire(lock, lockservice.X, true); err != nil {
		t.Fatal(err)
	}
	defer s.Clerk.Release(lock, lockservice.X)
	child, err := s.CreateMFileStaged(0, 0644, sobj.DefaultExtentLog)
	if err != nil {
		t.Fatal(err)
	}
	staged := map[string]bool{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("stg-%04d", i)
		staged[k] = true
		if err := s.DirInsert(s.Root, []byte(k), child, lock); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	others := 0
	if err := s.DirIterate(s.Root, func(key []byte, _ sobj.OID) error {
		if !staged[string(key)] || seen[string(key)] {
			return fmt.Errorf("fn got %q, which is not a staged name or came twice", key)
		}
		seen[string(key)] = true
		if err := s.Sync(); err != nil {
			return err
		}
		for i := 0; i < len(staged); i++ {
			if err := s.DirInsert(s.Root, fmt.Appendf(nil, "oth-%04d", others), child, lock); err != nil {
				return err
			}
			others++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(staged) {
		t.Fatalf("fn got %d names, want the %d staged", len(seen), len(staged))
	}
}

// payloadRecorder keeps the payload of the first batch a session ships and
// refuses it.
type payloadRecorder struct {
	rpc.Client
	payload []byte
}

func (r *payloadRecorder) CallWithReqID(method uint32, reqID uint64, req []byte) ([]byte, error) {
	if method == fsproto.MethodApplyLogShard {
		r.payload = bytes.Clone(req)
		return nil, errors.New("recorded")
	}
	return r.Client.CallWithReqID(method, reqID, req)
}

// TestLoggedOpShipsEveryField: logOps builds the batch op field by field,
// so an fsproto.Op field it forgets would ship as zero. An op with every
// field set, each found by reflection, must decode from the shipped
// payload unchanged; a field added to Op fails here until logOps copies it.
func TestLoggedOpShipsEveryField(t *testing.T) {
	sys, err := core.New(core.Options{ArenaSize: 64 << 20, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	rec := &payloadRecorder{Client: rpc.DialInProc(sys.Srv, func(uint32, []byte) {}, nil, nil)}
	s, err := libfs.Mount(rec, sys.Mgr, libfs.Config{UID: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	var op fsproto.Op
	v := reflect.ValueOf(&op).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint8, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Slice:
			f.SetBytes(fmt.Appendf(nil, "field-%d", i))
		default:
			t.Fatalf("fsproto.Op.%s is a %s: teach this test to set it", v.Type().Field(i).Name, f.Kind())
		}
	}
	op.Code = fsproto.OpRename
	want := op
	want.Key, want.Key2 = bytes.Clone(op.Key), bytes.Clone(op.Key2)
	if err := s.LogOp(op); err != nil {
		t.Fatal(err)
	}
	// The caller's keys are its own again once LogOp returns.
	copy(op.Key, "XXXXXXX")
	copy(op.Key2, "XXXXXXX")
	if err := s.Sync(); err == nil {
		t.Fatal("the recorder refused the batch, but Sync succeeded")
	}
	_, body, err := fsproto.DecodeBatchHeader(rec.payload)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := fsproto.DecodeOps(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || !reflect.DeepEqual(ops[0], want) {
		t.Fatalf("shipped %+v, logged %+v", ops, want)
	}
}
