package tfs

import (
	"errors"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/rpc"
)

func newAdmitService(cfg Config) *Service {
	return &Service{cfg: cfg, admPerClient: make(map[uint64]int)}
}

// TestAdmitShedsOverByteLimit checks the backpressure byte bound — and its
// anti-wedge escape hatch: a batch over the limit is still admitted when
// nothing else is in flight, so a single huge batch cannot starve forever.
func TestAdmitShedsOverByteLimit(t *testing.T) {
	s := newAdmitService(Config{MaxInflightBytes: 1000, RetryAfterHint: 7 * time.Millisecond})
	if err := s.admit(1, 0, 900); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	err := s.admit(2, 0, 200)
	if !errors.Is(err, fsproto.ErrBusy) {
		t.Fatalf("over-limit admit: %v", err)
	}
	var h rpc.RetryAfterHinter
	if !errors.As(err, &h) || h.RetryAfterMs() != 7 {
		t.Fatalf("shed error retry hint: %v", err)
	}
	if s.batchesShed.Load() != 1 {
		t.Fatalf("batchesShed = %d", s.batchesShed.Load())
	}
	s.admitDone(1, 0, 900)
	// Idle again: even a batch alone over the whole limit is admitted.
	if err := s.admit(2, 0, 5000); err != nil {
		t.Fatalf("anti-wedge admit: %v", err)
	}
	s.admitDone(2, 0, 5000)
}

// TestAdmitShedsOverClientDepth checks the per-client depth bound and that
// admitDone fully releases the debt.
func TestAdmitShedsOverClientDepth(t *testing.T) {
	s := newAdmitService(Config{MaxClientInflight: 2, RetryAfterHint: time.Millisecond})
	if err := s.admit(7, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.admit(7, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.admit(7, 0, 10); !errors.Is(err, fsproto.ErrBusy) {
		t.Fatalf("third in-flight request for one client: %v", err)
	}
	// Another client is not affected by the first one's depth.
	if err := s.admit(8, 0, 10); err != nil {
		t.Fatalf("other client shed by a neighbor's depth: %v", err)
	}
	s.admitDone(7, 0, 10)
	if err := s.admit(7, 0, 10); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	s.admitDone(7, 0, 10)
	s.admitDone(7, 0, 10)
	s.admitDone(8, 0, 10)
	if len(s.admPerClient) != 0 || s.admBytes != 0 {
		t.Fatalf("debt left after release: bytes=%d clients=%v", s.admBytes, s.admPerClient)
	}
}

// TestStatfsIdleVolume sanity-checks the accounting a fresh volume reports:
// the numbers libfs surfaces to df and to the admission heuristics.
func TestStatfsIdleVolume(t *testing.T) {
	svc, _ := newService(t)
	st, err := svc.set.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalBytes == 0 || st.FreeBytes == 0 {
		t.Fatalf("empty statfs: %+v", st)
	}
	if st.FreeBytes > st.TotalBytes {
		t.Fatalf("free %d > total %d", st.FreeBytes, st.TotalBytes)
	}
	if st.ReservedBytes != 0 {
		t.Fatalf("idle volume holds %d reserved bytes", st.ReservedBytes)
	}
	if st.Objects == 0 {
		t.Fatalf("no objects on a formatted volume: %+v", st)
	}
	if st.BatchesApplied != 0 {
		t.Fatalf("fresh volume claims %d applied batches", st.BatchesApplied)
	}
}
