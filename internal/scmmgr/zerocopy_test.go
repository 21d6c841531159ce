package scmmgr

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/aerie-fs/aerie/internal/scm"
)

// TestMappingSliceEquivalence checks that Slice and Read through a mapping
// return the same bytes and enforce the same ACL failures.
func TestMappingSliceEquivalence(t *testing.T) {
	mgr := newMgr(t, 16<<20)
	tfs := NewProcess(1)
	part, err := mgr.CreatePartition(1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := mgr.Partition(part)
	// First half readable by group 7, second half not.
	half := int(info.Size / scm.PageSize / 2)
	if err := mgr.CreateExtent(tfs, part, info.Start, half, MakeACL(7, RightRead|RightWrite)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.CreateExtent(tfs, part, info.Start+uint64(half)*scm.PageSize, half, MakeACL(8, RightRead)); err != nil {
		t.Fatal(err)
	}
	proc := NewProcess(100, 7)
	mp, err := mgr.Mount(proc, part)
	if err != nil {
		t.Fatal(err)
	}
	pattern := bytes.Repeat([]byte{0xa5, 0x5a}, scm.PageSize)
	if err := mgr.Mem().Write(info.Start, pattern); err != nil {
		t.Fatal(err)
	}

	got, err := mp.Slice(info.Start, len(pattern))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(pattern))
	if err := mp.Read(info.Start, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !bytes.Equal(got, pattern) {
		t.Fatal("slice != read through mapping")
	}

	denied := info.Start + uint64(half)*scm.PageSize
	if _, err := mp.Slice(denied, 8); !errors.Is(err, ErrProtection) {
		t.Fatalf("slice of unreadable extent: %v", err)
	}
	if err := mp.Read(denied, make([]byte, 8)); !errors.Is(err, ErrProtection) {
		t.Fatalf("read of unreadable extent: %v", err)
	}
	// A slice spanning the permission boundary must fail as a whole.
	if _, err := mp.Slice(denied-4, 8); !errors.Is(err, ErrProtection) {
		t.Fatalf("boundary-spanning slice: %v", err)
	}
}

// TestMappingLastReadCache checks the single-page hit cache: repeated reads
// of one page fault once, and a shootdown drops the cached page so revoked
// permissions are enforced on the next access.
func TestMappingLastReadCache(t *testing.T) {
	mgr := newMgr(t, 16<<20)
	tfs := NewProcess(1)
	part, _ := mgr.CreatePartition(1<<20, 1)
	info, _ := mgr.Partition(part)
	if err := mgr.CreateExtent(tfs, part, info.Start, 2, MakeACL(7, RightRead)); err != nil {
		t.Fatal(err)
	}
	proc := NewProcess(100, 7)
	mp, _ := mgr.Mount(proc, part)

	before := mgr.Faults.Load()
	for i := 0; i < 64; i++ {
		if _, err := mp.Slice(info.Start+uint64(i)*8, 8); err != nil {
			t.Fatal(err)
		}
	}
	if got := mgr.Faults.Load() - before; got != 1 {
		t.Fatalf("faults for repeated same-page slices = %d, want 1", got)
	}

	if err := mgr.MProtectExtent(tfs, part, info.Start, 2, MakeACL(8, RightRead)); err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Slice(info.Start, 8); !errors.Is(err, ErrProtection) {
		t.Fatalf("slice after revoke: %v", err)
	}
}

// TestMappingLastReadCacheShootdownRace reproduces the interleaving where a
// reader passes the bitmap check, a shootdown then clears the bits, and the
// reader stores its cache entry afterwards. With a plain cleared-on-shootdown
// cache that stale entry would serve hits indefinitely, bypassing the revoked
// bitmap; the epoch tag must make it unconsultable.
func TestMappingLastReadCacheShootdownRace(t *testing.T) {
	mgr := newMgr(t, 16<<20)
	tfs := NewProcess(1)
	part, _ := mgr.CreatePartition(1<<20, 1)
	info, _ := mgr.Partition(part)
	if err := mgr.CreateExtent(tfs, part, info.Start, 2, MakeACL(7, RightRead)); err != nil {
		t.Fatal(err)
	}
	proc := NewProcess(100, 7)
	mp, _ := mgr.Mount(proc, part)

	// The racing reader loads the epoch and passes the bitmap check...
	if _, err := mp.Slice(info.Start, 8); err != nil {
		t.Fatal(err)
	}
	staleEpoch := mp.readEpoch.Load()
	// ...then the shootdown revokes the page and bumps the epoch...
	if err := mgr.MProtectExtent(tfs, part, info.Start, 2, MakeACL(8, RightRead)); err != nil {
		t.Fatal(err)
	}
	// ...and only now does the reader's cache store land, tagged with the
	// pre-shootdown epoch (exactly what access() would store).
	rel := (info.Start - mp.start) / scm.PageSize
	mp.lastRead.Store(staleEpoch<<32 | (rel + 1))

	// Every later single-page read of the revoked page must miss the cache
	// and fail the bitmap/ACL check, not hit the stale entry.
	for i := 0; i < 3; i++ {
		if _, err := mp.Slice(info.Start, 8); !errors.Is(err, ErrProtection) {
			t.Fatalf("read %d after raced shootdown: %v, want ErrProtection", i, err)
		}
	}
}

// TestMappingSliceConcurrentFaults runs many readers slicing random ranges
// of a shared mapping while the trusted side repeatedly fires TLB
// shootdowns (MProtectExtent with unchanged rights). Run with -race: the
// soft-TLB bitmaps, the lastRead hit cache, and the fault path must be safe
// for concurrent threads of one process.
func TestMappingSliceConcurrentFaults(t *testing.T) {
	mgr := newMgr(t, 32<<20)
	tfs := NewProcess(1)
	part, err := mgr.CreatePartition(2<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := mgr.Partition(part)
	npages := int(info.Size / scm.PageSize)
	acl := MakeACL(7, RightRead|RightWrite)
	if err := mgr.CreateExtent(tfs, part, info.Start, npages, acl); err != nil {
		t.Fatal(err)
	}
	proc := NewProcess(100, 7)
	mp, err := mgr.Mount(proc, part)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic content so readers can validate what they slice.
	fill := make([]byte, info.Size)
	for i := range fill {
		fill[i] = byte(i * 7)
	}
	if err := mgr.Mem().Write(info.Start, fill); err != nil {
		t.Fatal(err)
	}

	// Pre-fault every page so the first shootdown finds referenced TLB
	// entries regardless of reader scheduling.
	for p := 0; p < npages; p++ {
		if _, err := mp.Slice(info.Start+uint64(p)*scm.PageSize, 8); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := uint64(rng.Intn(int(info.Size) - 512))
				n := 1 + rng.Intn(512)
				b, err := mp.Slice(info.Start+off, n)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(b, fill[off:off+uint64(n)]) {
					errs <- errors.New("sliced bytes differ from written pattern")
					return
				}
			}
		}(int64(r))
	}
	// The shootdown side: protection rewrites with identical rights, so
	// readers never lose access but their TLB entries are invalidated.
	for i := 0; i < 200; i++ {
		page := uint64(i % npages)
		if err := mgr.MProtectExtent(tfs, part, info.Start+page*scm.PageSize, 1, acl); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if mgr.Shootdowns.Load() == 0 {
		t.Fatal("expected shootdowns during concurrent slicing")
	}
}

// storeRig is one manager with a partition whose first half the client may
// write and whose second half it may only read.
type storeRig struct {
	mgr   *Manager
	tfs   *Process
	part  PartitionID
	start uint64
	half  int // pages per half
	mp    *Mapping
}

func newStoreRig(t *testing.T) *storeRig {
	t.Helper()
	r := &storeRig{mgr: newMgr(t, 16<<20), tfs: NewProcess(1)}
	var err error
	if r.part, err = r.mgr.CreatePartition(1<<20, 1); err != nil {
		t.Fatal(err)
	}
	info, _ := r.mgr.Partition(r.part)
	r.start, r.half = info.Start, int(info.Size/scm.PageSize/2)
	if err := r.mgr.CreateExtent(r.tfs, r.part, r.start, r.half, MakeACL(7, RightRead|RightWrite)); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.CreateExtent(r.tfs, r.part, r.start+uint64(r.half)*scm.PageSize, r.half, MakeACL(7, RightRead)); err != nil {
		t.Fatal(err)
	}
	if r.mp, err = r.mgr.Mount(NewProcess(100, 7), r.part); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMappingStoreEquivalence: through a mapping, Store and Write of the
// same bytes fault the same pages, fail with the same typed error on a page
// without RightWrite, outside the partition and after an MProtect, and
// leave identical arenas.
func TestMappingStoreEquivalence(t *testing.T) {
	a, b := newStoreRig(t), newStoreRig(t)
	rng := rand.New(rand.NewSource(11))
	span := uint64(2*a.half) * scm.PageSize
	for step := 0; step < 4000; step++ {
		if step == 2000 {
			// Revoke write on the first pages, mid-run, on both sides.
			for _, r := range []*storeRig{a, b} {
				if err := r.mgr.MProtectExtent(r.tfs, r.part, r.start, 4, MakeACL(7, RightRead)); err != nil {
					t.Fatal(err)
				}
			}
		}
		width := 2 << rng.Intn(3)
		off := uint64(rng.Int63n(int64(span) + 64)) // sometimes past the partition
		if rng.Intn(4) == 0 {
			off = uint64(rng.Intn(8 * scm.PageSize)) // the pages the MProtect hits
		}
		v := rng.Uint64()
		p := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56)}
		errA, errB := a.mp.Store(a.start+off, v, width), b.mp.Write(b.start+off, p[:width])
		if (errA == nil) != (errB == nil) || errors.Is(errA, ErrProtection) != errors.Is(errB, ErrProtection) ||
			errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("step %d, %d bytes at +%#x: Store %v, Write %v", step, width, off, errA, errB)
		}
		if fa, fb := a.mgr.Faults.Load(), b.mgr.Faults.Load(); fa != fb {
			t.Fatalf("step %d: %d faults through Store, %d through Write", step, fa, fb)
		}
	}
	got, want := make([]byte, span), make([]byte, span)
	if err := errors.Join(a.mgr.Mem().Read(a.start, got), b.mgr.Mem().Read(b.start, want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("arenas differ after the same stores")
	}
	sa, sb := a.mgr.Mem().Stats(), b.mgr.Mem().Stats()
	if sa.Writes.Load() != sb.Writes.Load() || sa.BytesWritten.Load() != sb.BytesWritten.Load() {
		t.Fatalf("write counters differ: %d/%d vs %d/%d", sa.Writes.Load(), sa.BytesWritten.Load(), sb.Writes.Load(), sb.BytesWritten.Load())
	}
}

// TestMappingStoreConcurrentShootdowns stores through one mapping from
// several threads while the trusted side flips a page range between
// writable and read-only. Run with -race. A store either lands whole or
// fails with ErrProtection; on pages never revoked it always lands.
func TestMappingStoreConcurrentShootdowns(t *testing.T) {
	r := newStoreRig(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Each thread owns one 8-byte slot per page, so stores never
			// overlap (conflicting access is the caller's bug, as on real
			// memory).
			for {
				select {
				case <-stop:
					return
				default:
				}
				page := uint64(rng.Intn(r.half))
				addr := r.start + page*scm.PageSize + uint64(w)*8
				v := rng.Uint64()
				err := scm.Write64(r.mp, addr, v)
				if err != nil && (page >= 4 || !errors.Is(err, ErrProtection)) {
					errs <- err
					return
				}
				if got, rerr := scm.Read64(r.mp, addr); err == nil && (rerr != nil || got != v) {
					errs <- errors.New("stored value did not land")
					return
				}
			}
		}(w)
	}
	for i := 0; i < 300; i++ {
		rights := uint32(RightRead)
		if i%2 == 1 {
			rights |= RightWrite
		}
		if err := r.mgr.MProtectExtent(r.tfs, r.part, r.start, 4, MakeACL(7, rights)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
