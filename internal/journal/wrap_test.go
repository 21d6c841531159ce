package journal

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/aerie-fs/aerie/internal/scm"
)

// minRegion is the smallest region Format accepts: a 16 KiB ring, small
// enough that the tests below wrap it thousands of times.
const minRegion = headerSize + 4*scm.PageSize

func checkCursors(t *testing.T, l *Log) {
	t.Helper()
	if l.staged >= l.size || l.tail >= l.size || l.head >= l.size {
		t.Fatalf("cursor out of the ring: head %d tail %d staged %d, ring %d", l.head, l.tail, l.staged, l.size)
	}
}

func mustReplay(t *testing.T, l *Log, want [][]byte) {
	t.Helper()
	got := replayAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %d bytes differ from the %d committed", i, len(got[i]), len(want[i]))
		}
	}
}

// A record that ends on the ring's last byte must leave the cursor at 0:
// left at size, the next append writes past the ring and every append after
// that — after a checkpoint too — fails with ErrFull.
func TestExactFitWrap(t *testing.T) {
	l, mem := newLog(t, minRegion)
	fill := func(need uint64) []byte {
		p := make([]byte, need-recHeader)
		rand.New(rand.NewSource(int64(need))).Read(p)
		if err := l.Append(p); err != nil {
			t.Fatalf("append of %d bytes at %d: %v", need, l.staged, err)
		}
		checkCursors(t, l)
		return p
	}
	// Move head off 0 (an exact fit with head at 0 is a full ring and is
	// refused), then end a record exactly on the last byte.
	fill(6000)
	fill(6000)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	last := fill(l.size - l.staged)
	if l.staged != 0 {
		t.Fatalf("staged = %d after an exact fit, want 0", l.staged)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	mustReplay(t, l, [][]byte{last})

	// A volume written before the fix stored tail == size for this state.
	if err := scm.Write64Flush(mem, scm.PageSize+offTail, l.size); err != nil {
		t.Fatal(err)
	}
	old, err := Attach(mem, scm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	checkCursors(t, old)
	mustReplay(t, old, [][]byte{last})
	l = old

	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	next := fill(4096)
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	mustReplay(t, l, [][]byte{next})
	// Nothing may have been written past the ring.
	tailGuard := make([]byte, 64)
	if err := mem.Read(scm.PageSize+headerSize+l.size, tailGuard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tailGuard, make([]byte, 64)) {
		t.Fatal("bytes written past the end of the ring")
	}
}

// Property: over random ring sizes and record sequences with Commit,
// Checkpoint and crash+Attach interleaved — biased towards records that end
// exactly on the ring's last byte — every cursor stays inside the ring, an
// append that found the log full succeeds after a checkpoint, and Replay
// returns exactly the committed, un-checkpointed records.
func TestQuickWrapKeepsCursorsInRing(t *testing.T) {
	wraps := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		region := uint64(minRegion + 8*rng.Intn(64))
		mem := scm.New(scm.Config{Size: region + 2*scm.PageSize, TrackPersistence: true})
		l, err := Format(mem, scm.PageSize, region)
		if err != nil {
			t.Fatal(err)
		}
		var committed, staged [][]byte
		commit := func() {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			committed, staged = append(committed, staged...), nil
		}
		checkpoint := func() {
			mustReplay(t, l, committed)
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			committed = nil
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				need := uint64(recHeader + 8*rng.Intn(256))
				if fit := l.size - l.staged; rng.Intn(3) == 0 && fit >= recHeader && fit <= l.size/2 {
					need = fit
				}
				// The payload need not fill its 8-byte-aligned slot.
				p := make([]byte, need-recHeader)
				if len(p) > 0 {
					p = p[:len(p)-rng.Intn(8)]
				}
				rng.Read(p)
				before := l.staged
				err := l.Append(p)
				if errors.Is(err, ErrFull) {
					commit()
					checkpoint()
					before = l.staged
					err = l.Append(p)
				}
				if err != nil {
					t.Fatalf("seed %d step %d: append of %d bytes at %d (head %d): %v", seed, step, len(p), before, l.head, err)
				}
				staged = append(staged, p)
				if l.staged < before {
					wraps++
				}
			case op < 8:
				commit()
			case op < 9:
				checkpoint()
			default:
				mem.Crash()
				if l, err = Attach(mem, scm.PageSize); err != nil {
					t.Fatal(err)
				}
				staged = nil
				mustReplay(t, l, committed)
			}
			checkCursors(t, l)
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	t.Logf("the ring wrapped %d times", wraps)
	if wraps < 200 {
		t.Fatalf("the ring wrapped only %d times", wraps)
	}
}
