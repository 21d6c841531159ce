package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/aerie-fs/aerie/internal/core"
	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/libfs"
	"github.com/aerie-fs/aerie/internal/pxfs"
)

// TestENOSPCSyncEpochs drives PXFS on a nearly-too-small volume against an
// in-memory model with sync-epoch granularity: mutations buffer in an
// overlay until Sync. A Sync that returns typed ENOSPC must reject the
// whole epoch atomically — the session rolls back to committed state, so
// the model drops its overlay — while a successful Sync commits it. After
// every sync (either outcome) the volume must byte-match the model. Once
// space runs out, deleting files must still succeed (the degraded-remove
// guarantee) and writes must make progress again.
func TestENOSPCSyncEpochs(t *testing.T) {
	sys, err := core.New(core.Options{
		ArenaSize:        8 << 20,
		JournalSize:      256 << 10,
		TrackPersistence: true,
		Lease:            time.Hour,
		AcquireTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
	sess, err := sys.NewSession(libfs.Config{
		UID:        1000,
		BatchLimit: 1 << 20,
		PoolRefill: 8,
		RenewEvery: time.Hour,
	})
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	fs := pxfs.New(sess, pxfs.Options{NameCache: true})
	const dir = "/ep"
	if err := fs.Mkdir(dir, 0755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync mkdir: %v", err)
	}

	// Model: committed state plus the pending epoch's overlay
	// (nil value = deleted in this epoch).
	committed := map[string][]byte{}
	overlay := map[string]*[]byte{}
	visible := func(p string) ([]byte, bool) {
		if v, ok := overlay[p]; ok {
			if v == nil {
				return nil, false
			}
			return *v, true
		}
		v, ok := committed[p]
		return v, ok
	}

	putWhole := func(p string, data []byte) error {
		f, err := fs.OpenFile(p, pxfs.O_RDWR|pxfs.O_CREATE|pxfs.O_TRUNC, 0644)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.Write(data)
		return err
	}
	enospc := func(err error) bool {
		return errors.Is(err, fsproto.ErrNoSpace)
	}
	// A mid-op ENOSPC (extent staging failed partway through a write)
	// can leave a prefix of the op's sub-ops in the pending batch, so
	// the path's pending state is unknown. Deleting it needs no space
	// and supersedes whatever was logged, restoring a known state.
	poison := func(p string) {
		err := fs.Unlink(p)
		if err != nil && !errors.Is(err, pxfs.ErrNotExist) {
			t.Fatalf("poison unlink %s: %v", p, err)
		}
		if err == nil || visibleHas(committed, overlay, p) {
			null := (*[]byte)(nil)
			overlay[p] = null
		}
	}

	verify := func(tag string) {
		ents, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: readdir: %v", tag, err)
		}
		var got []string
		for _, e := range ents {
			got = append(got, dir+"/"+e.Name)
		}
		sort.Strings(got)
		var want []string
		for p := range committed {
			want = append(want, p)
		}
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: listing mismatch\n got %v\nwant %v", tag, got, want)
		}
		for p, data := range committed {
			fi, err := fs.Stat(p)
			if err != nil {
				t.Fatalf("%s: stat %s: %v", tag, p, err)
			}
			if fi.Size != uint64(len(data)) {
				t.Fatalf("%s: %s size %d, model %d", tag, p, fi.Size, len(data))
			}
			f, err := fs.Open(p, pxfs.O_RDONLY)
			if err != nil {
				t.Fatalf("%s: open %s: %v", tag, p, err)
			}
			buf := make([]byte, len(data))
			if len(buf) > 0 {
				if _, err := f.ReadAt(buf, 0); err != nil {
					f.Close()
					t.Fatalf("%s: read %s: %v", tag, p, err)
				}
			}
			f.Close()
			if !bytes.Equal(buf, data) {
				t.Fatalf("%s: %s content diverged from model", tag, p)
			}
		}
	}

	sync := func(tag string) (rejected bool) {
		err := fs.Sync()
		switch {
		case err == nil:
			for p, v := range overlay {
				if v == nil {
					delete(committed, p)
				} else {
					committed[p] = *v
				}
			}
		case enospc(err):
			if !errors.Is(err, libfs.ErrStaleBatch) {
				t.Fatalf("%s: ENOSPC not typed as a rejected batch: %v", tag, err)
			}
			rejected = true
		default:
			t.Fatalf("%s: sync: %v", tag, err)
		}
		overlay = map[string]*[]byte{}
		verify(tag)
		return rejected
	}

	rng := rand.New(rand.NewSource(11))
	content := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Int())
		}
		return b
	}
	path := func(i int) string { return fmt.Sprintf("%s/f%02d", dir, i) }

	sawENOSPC := false
	progressAfter := false
	for step := 0; step < 120; step++ {
		// One epoch: a few mutations, then a sync point.
		for op := 0; op < 3; op++ {
			p := path(rng.Intn(14))
			switch k := rng.Intn(10); {
			case k < 6: // write/overwrite; sizes grow until the volume fills
				data := content((1+step)*(16<<10) + rng.Intn(16<<10))
				if err := putWhole(p, data); err != nil {
					if !enospc(err) {
						t.Fatalf("put %s: %v", p, err)
					}
					sawENOSPC = true
					poison(p)
					continue
				}
				d := data
				overlay[p] = &d
				// Stat the staged file: this caches its path→OID mapping,
				// which must not survive a later batch rejection (the
				// discard hook flushes it).
				fi, err := fs.Stat(p)
				if err != nil {
					t.Fatalf("stat staged %s: %v", p, err)
				}
				if fi.Size != uint64(len(data)) {
					t.Fatalf("staged %s size %d, wrote %d", p, fi.Size, len(data))
				}
			case k < 8: // delete
				err := fs.Unlink(p)
				if err != nil {
					if errors.Is(err, pxfs.ErrNotExist) {
						continue
					}
					t.Fatalf("unlink %s: %v", p, err)
				}
				overlay[p] = nil
			default: // rename
				q := path(rng.Intn(14))
				if p == q {
					continue
				}
				err := fs.Rename(p, q)
				if err != nil {
					if errors.Is(err, pxfs.ErrNotExist) {
						continue
					}
					t.Fatalf("rename %s %s: %v", p, q, err)
				}
				v, ok := visible(p)
				if !ok {
					t.Fatalf("rename %s succeeded but model has no source", p)
				}
				d := v
				overlay[q] = &d
				overlay[p] = nil
			}
		}
		rejected := sync(fmt.Sprintf("epoch %d", step))
		if rejected {
			sawENOSPC = true
			// Degrade gracefully: delete half the files — removes must
			// commit even on a full volume — then keep writing.
			var names []string
			for p := range committed {
				names = append(names, p)
			}
			sort.Strings(names)
			for i, p := range names {
				if i%2 == 0 {
					if err := fs.Unlink(p); err != nil {
						t.Fatalf("degrade unlink %s: %v", p, err)
					}
					overlay[p] = nil
				}
			}
			if fs.Sync() != nil {
				t.Fatalf("delete-only epoch must commit on a full volume")
			}
			for p, v := range overlay {
				if v == nil {
					delete(committed, p)
				}
			}
			overlay = map[string]*[]byte{}
			verify(fmt.Sprintf("epoch %d degrade", step))
		} else if sawENOSPC {
			progressAfter = true
		}
	}
	if !sawENOSPC {
		t.Fatalf("volume never filled; shrink the arena or grow the writes")
	}
	if !progressAfter {
		t.Fatalf("no committed epoch after space was freed")
	}
}

func visibleHas(committed map[string][]byte, overlay map[string]*[]byte, p string) bool {
	if v, ok := overlay[p]; ok {
		return v != nil
	}
	_, ok := committed[p]
	return ok
}
