package scmmgr

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/aerie-fs/aerie/internal/costmodel"
	"github.com/aerie-fs/aerie/internal/scm"
)

func newMgr(t *testing.T, size uint64) *Manager {
	t.Helper()
	mem := scm.New(scm.Config{Size: size})
	t.Cleanup(func() { mem.Close() })
	mgr, err := FormatAndAttach(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func TestFormatAndAttach(t *testing.T) {
	mem := scm.New(scm.Config{Size: 8 << 20})
	defer mem.Close()
	if _, err := Attach(mem, nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("attach unformatted: %v", err)
	}
	if err := format(mem); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(mem, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreatePartitionFirstFit(t *testing.T) {
	mgr := newMgr(t, 16<<20)
	a, err := mgr.CreatePartition(1<<20, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.CreatePartition(2<<20, 100)
	if err != nil {
		t.Fatal(err)
	}
	ia, _ := mgr.Partition(a)
	ib, _ := mgr.Partition(b)
	if ia.Size != 1<<20 || ib.Size != 2<<20 {
		t.Fatalf("sizes %d %d", ia.Size, ib.Size)
	}
	if ia.Start+ia.Size > ib.Start && ib.Start+ib.Size > ia.Start {
		t.Fatal("partitions overlap")
	}
	region, _ := scm.Read64(mgr.Mem(), offRegionSize)
	if ia.Start < region || ib.Start < region {
		t.Fatal("partition inside manager region")
	}
	if ia.Owner != 100 {
		t.Fatalf("owner = %d", ia.Owner)
	}
}

func TestCreatePartitionExhaustion(t *testing.T) {
	mgr := newMgr(t, 4<<20)
	if _, err := mgr.CreatePartition(64<<20, 1); err == nil {
		t.Fatal("want out-of-space error")
	}
}

func TestPartitionLookupErrors(t *testing.T) {
	mgr := newMgr(t, 4<<20)
	if _, err := mgr.Partition(7); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("unused slot: %v", err)
	}
	if _, err := mgr.Partition(999); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("out-of-range slot: %v", err)
	}
}

func TestExtentProtectionEnforced(t *testing.T) {
	mgr := newMgr(t, 16<<20)
	tfs := NewProcess(0)
	part, err := mgr.CreatePartition(4<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := mgr.Partition(part)

	// Grant group 7 read/write on the first 4 pages, read-only on the next 4.
	if err := mgr.CreateExtent(tfs, part, info.Start, 4, MakeACL(7, RightRead|RightWrite)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.CreateExtent(tfs, part, info.Start+4*scm.PageSize, 4, MakeACL(7, RightRead)); err != nil {
		t.Fatal(err)
	}

	member := NewProcess(42, 7)
	outsider := NewProcess(43, 9)
	mm, err := mgr.Mount(member, part)
	if err != nil {
		t.Fatal(err)
	}
	om, err := mgr.Mount(outsider, part)
	if err != nil {
		t.Fatal(err)
	}

	buf := []byte("data")
	if err := mm.Write(info.Start, buf); err != nil {
		t.Fatalf("member write rw extent: %v", err)
	}
	if err := mm.Read(info.Start, buf); err != nil {
		t.Fatalf("member read rw extent: %v", err)
	}
	if err := mm.Write(info.Start+4*scm.PageSize, buf); !errors.Is(err, ErrProtection) {
		t.Fatalf("member write ro extent: %v", err)
	}
	if err := mm.Read(info.Start+4*scm.PageSize, buf); err != nil {
		t.Fatalf("member read ro extent: %v", err)
	}
	if err := om.Read(info.Start, buf); !errors.Is(err, ErrProtection) {
		t.Fatalf("outsider read: %v", err)
	}
	// Pages with no extent at all deny everything.
	if err := mm.Read(info.Start+100*scm.PageSize, buf); !errors.Is(err, ErrProtection) {
		t.Fatalf("unmapped page read: %v", err)
	}
	// Accesses outside the partition bounds fail even for members.
	if err := mm.Read(0, buf); !errors.Is(err, ErrProtection) {
		t.Fatalf("read outside partition: %v", err)
	}
}

func TestOnlyOwnerManipulatesExtents(t *testing.T) {
	mgr := newMgr(t, 8<<20)
	part, _ := mgr.CreatePartition(1<<20, 0)
	info, _ := mgr.Partition(part)
	interloper := NewProcess(99)
	if err := mgr.CreateExtent(interloper, part, info.Start, 1, MakeACL(7, RightRead)); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("non-owner create extent: %v", err)
	}
	if err := mgr.MProtectExtent(interloper, part, info.Start, 1, MakeACL(7, RightRead)); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("non-owner mprotect: %v", err)
	}
}

func TestMProtectInvalidatesAndRevokes(t *testing.T) {
	mgr := newMgr(t, 8<<20)
	tfs := NewProcess(0)
	part, _ := mgr.CreatePartition(1<<20, 0)
	info, _ := mgr.Partition(part)
	if err := mgr.CreateExtent(tfs, part, info.Start, 2, MakeACL(7, RightRead|RightWrite)); err != nil {
		t.Fatal(err)
	}
	proc := NewProcess(42, 7)
	mp, _ := mgr.Mount(proc, part)
	buf := []byte("x")
	if err := mp.Write(info.Start, buf); err != nil {
		t.Fatal(err)
	}
	faultsBefore := mgr.Faults.Load()
	// Second access hits the soft TLB: no new fault.
	if err := mp.Write(info.Start+8, buf); err != nil {
		t.Fatal(err)
	}
	if mgr.Faults.Load() != faultsBefore {
		t.Fatal("soft TLB did not cache the fault")
	}
	// Revoke write; referenced page must be shot down and writes must fail.
	if err := mgr.MProtectExtent(tfs, part, info.Start, 2, MakeACL(7, RightRead)); err != nil {
		t.Fatal(err)
	}
	if mgr.Shootdowns.Load() != 1 {
		t.Fatalf("shootdowns = %d, want 1 (only referenced pages)", mgr.Shootdowns.Load())
	}
	if err := mp.Write(info.Start, buf); !errors.Is(err, ErrProtection) {
		t.Fatalf("write after revoke: %v", err)
	}
	if err := mp.Read(info.Start, buf); err != nil {
		t.Fatalf("read after downgrade to ro: %v", err)
	}
}

func TestUnmountStopsShootdowns(t *testing.T) {
	mgr := newMgr(t, 8<<20)
	tfs := NewProcess(0)
	part, _ := mgr.CreatePartition(1<<20, 0)
	info, _ := mgr.Partition(part)
	_ = mgr.CreateExtent(tfs, part, info.Start, 1, MakeACL(7, RightRead|RightWrite))
	proc := NewProcess(42, 7)
	mp, _ := mgr.Mount(proc, part)
	_ = mp.Write(info.Start, []byte("x"))
	mgr.Unmount(mp)
	_ = mgr.MProtectExtent(tfs, part, info.Start, 1, MakeACL(7, RightRead))
	if mgr.Shootdowns.Load() != 0 {
		t.Fatal("unmounted mapping still shot down")
	}
}

func TestAttachSurvivesCrash(t *testing.T) {
	mem := scm.New(scm.Config{Size: 8 << 20, TrackPersistence: true})
	defer mem.Close()
	mgr, err := FormatAndAttach(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	tfs := NewProcess(0)
	part, err := mgr.CreatePartition(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := mgr.Partition(part)
	if err := mgr.CreateExtent(tfs, part, info.Start, 2, MakeACL(7, RightRead|RightWrite)); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	mgr2, err := Attach(mem, nil)
	if err != nil {
		t.Fatalf("attach after crash: %v", err)
	}
	info2, err := mgr2.Partition(part)
	if err != nil {
		t.Fatalf("partition lost in crash: %v", err)
	}
	if info2 != info {
		t.Fatalf("partition info changed: %+v vs %+v", info2, info)
	}
	// The extent ACLs persist too.
	proc := NewProcess(42, 7)
	mp, _ := mgr2.Mount(proc, part)
	if err := mp.Write(info.Start, []byte("y")); err != nil {
		t.Fatalf("extent ACL lost in crash: %v", err)
	}
}

func TestACLPacking(t *testing.T) {
	a := MakeACL(0x3fffffff, RightRead|RightWrite)
	if a.gid() != 0x3fffffff || a.rights() != 3 {
		t.Fatalf("gid=%#x rights=%#x", a.gid(), a.rights())
	}
}

// Property: a mapping never grants access that the extent ACL plus the
// process's groups don't allow.
func TestQuickProtectionSound(t *testing.T) {
	mgr := newMgr(t, 16<<20)
	tfs := NewProcess(0)
	part, err := mgr.CreatePartition(2<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := mgr.Partition(part)
	npages := int(info.Size / scm.PageSize)

	f := func(gid8 uint8, rights uint8, procGid8 uint8, pageSel uint16, writeOp bool) bool {
		gid := uint32(gid8)%4 + 1
		procGid := uint32(procGid8)%4 + 1
		r := uint32(rights) % 4
		page := int(pageSel) % npages
		addr := info.Start + uint64(page)*scm.PageSize
		if err := mgr.MProtectExtent(tfs, part, addr, 1, MakeACL(gid, r)); err != nil {
			return false
		}
		proc := NewProcess(1000, procGid)
		mp, err := mgr.Mount(proc, part)
		if err != nil {
			return false
		}
		defer mgr.Unmount(mp)
		var opErr error
		if writeOp {
			opErr = mp.Write(addr, []byte{1})
		} else {
			opErr = mp.Read(addr, []byte{0})
		}
		need := uint32(RightRead)
		if writeOp {
			need = RightWrite
		}
		allowed := procGid == gid && r&need != 0
		return (opErr == nil) == allowed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShootdownCostCharged(t *testing.T) {
	costs := &costmodel.Costs{TLBShootdown: 1} // nonzero but negligible
	mem := scm.New(scm.Config{Size: 8 << 20})
	defer mem.Close()
	mgr, err := FormatAndAttach(mem, costs)
	if err != nil {
		t.Fatal(err)
	}
	tfs := NewProcess(0)
	part, _ := mgr.CreatePartition(1<<20, 0)
	info, _ := mgr.Partition(part)
	_ = mgr.CreateExtent(tfs, part, info.Start, 8, MakeACL(7, RightRead|RightWrite))
	proc := NewProcess(42, 7)
	mp, _ := mgr.Mount(proc, part)
	for i := 0; i < 8; i++ {
		_ = mp.Write(info.Start+uint64(i)*scm.PageSize, []byte{1})
	}
	_ = mgr.MProtectExtent(tfs, part, info.Start, 8, MakeACL(7, RightRead))
	if got := mgr.Shootdowns.Load(); got != 8 {
		t.Fatalf("shootdowns = %d, want 8", got)
	}
}
