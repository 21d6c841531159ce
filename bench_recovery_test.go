// Recovery-path benchmarks for the mmap-backed volume: how long does it
// take to come back from a kill, as a function of how much the volume
// holds? Each size populates a volume file with N 8KiB files, leaves a
// non-empty redo journal behind (an in-process crash armed at
// tfs.apply.checkpoint — records committed but not yet checkpointed), and
// abandons the mapping without a clean close, exactly the state a SIGKILL
// leaves. The measured phase then reopens the file with core.Open and runs
// Fsck(repair), splitting the open into the obs phase counters
// core.open.{map,attach,recover}_ns — the same -breakdown machinery the
// other benches use. BENCH_recovery.json records a snapshot;
// `make bench-recovery` reproduces it.
package aerie_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/obs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

const (
	recFileSize = 8 << 10
	// recDirtyTail is how many extra inserts run after the crash is armed:
	// the journal the reopen must replay holds the committed-but-not-
	// checkpointed slice of these.
	recDirtyTail = 32
)

// buildDirtyVolume populates a volume with nFiles 8KiB files, then crashes
// the machine in-process between journal commit and checkpoint and abandons
// the mapping — a corpse with a dirty flag and a non-empty journal.
func buildDirtyVolume(b *testing.B, path string, nFiles int) {
	b.Helper()
	inj := faultinject.New()
	inj.Disable()
	sys, err := core.New(core.Options{
		ArenaSize:      128 << 20,
		VolumePath:     path,
		Lease:          time.Hour,
		AcquireTimeout: 30 * time.Second,
		Faults:         inj,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Degraded(); err != nil {
		b.Fatal(err)
	}
	sess, err := sys.NewSession(libfs.Config{UID: 1000, RenewEvery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	fs := pxfs.New(sess, pxfs.Options{NameCache: true})
	buf := make([]byte, recFileSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := 0; i < nFiles; i++ {
		f, err := fs.Create(fmt.Sprintf("/f%04d", i), 0o644)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Write(buf); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		b.Fatal(err)
	}
	// Dirty tail: arm the crash between commit and checkpoint, then keep
	// inserting until it fires.
	inj.CrashAt("tfs.apply.checkpoint", 1)
	inj.Enable()
	crash, _ := faultinject.Run(func() error {
		for i := 0; i < recDirtyTail; i++ {
			f, err := fs.Create(fmt.Sprintf("/tail%02d", i), 0o644)
			if err != nil {
				return err
			}
			if _, err := f.Write(buf); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			if err := fs.Sync(); err != nil {
				return err
			}
		}
		return nil
	})
	inj.Disable()
	if crash == nil {
		b.Fatal("dirty-tail crash never fired")
	}
	sys.Set.Locks.Shutdown()
	sys.Vol.Abandon()
}

// BenchmarkRecovery measures reopening the corpse: core.Open (map +
// manager attach + journal replay) and Fsck(repair), per populated size.
// Run with -benchtime 1x; each iteration rebuilds its own corpse.
func BenchmarkRecovery(b *testing.B) {
	for _, nFiles := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("files=%d", nFiles), func(b *testing.B) {
			var openNS, fsckNS, mapNS, attachNS, recoverNS int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				path := filepath.Join(b.TempDir(), "corpse.aerie")
				buildDirtyVolume(b, path, nFiles)
				sink := obs.New()
				b.StartTimer()

				t0 := time.Now()
				sys, err := core.Open(path, core.Options{
					Lease:          time.Hour,
					AcquireTimeout: 30 * time.Second,
					Obs:            sink,
				})
				if err != nil {
					b.Fatal(err)
				}
				openNS += time.Since(t0).Nanoseconds()
				t1 := time.Now()
				rep, err := sys.Set.Fsck(true)
				if err != nil {
					b.Fatal(err)
				}
				fsckNS += time.Since(t1).Nanoseconds()

				b.StopTimer()
				if !sys.Vol.WasDirty() {
					b.Fatal("corpse volume reopened clean")
				}
				if rep.LostBlocks != 0 {
					b.Fatalf("recovery lost blocks: %v", rep)
				}
				// Spot-check: the last synced pre-tail file survived intact.
				sess, err := sys.NewSession(libfs.Config{UID: 2000, RenewEvery: time.Hour})
				if err != nil {
					b.Fatal(err)
				}
				fs := pxfs.New(sess, pxfs.Options{})
				f, err := fs.Open(fmt.Sprintf("/f%04d", nFiles-1), pxfs.O_RDONLY)
				if err != nil {
					b.Fatalf("populated file lost: %v", err)
				}
				probe := make([]byte, recFileSize)
				if n, err := f.ReadAt(probe, 0); err != nil || n != recFileSize {
					b.Fatalf("populated file short: %d, %v", n, err)
				}
				_ = f.Close()
				_ = sess.Close()
				snap := sink.Snapshot()
				mapNS += snap.Counter("core.open.map_ns")
				attachNS += snap.Counter("core.open.attach_ns")
				recoverNS += snap.Counter("core.open.recover_ns")
				if err := sys.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			n := int64(b.N)
			b.ReportMetric(float64(openNS/n)/1e6, "open-ms")
			b.ReportMetric(float64(fsckNS/n)/1e6, "fsck-ms")
			b.Logf("files=%d: open %.3fms (map %.3fms, attach %.3fms, recover %.3fms), fsck %.3fms, volume bytes %d",
				nFiles,
				float64(openNS/n)/1e6, float64(mapNS/n)/1e6, float64(attachNS/n)/1e6,
				float64(recoverNS/n)/1e6, float64(fsckNS/n)/1e6, int64(nFiles)*recFileSize)
		})
	}
}
