package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/aerie-fs/aerie/internal/faultinject"
	"github.com/aerie-fs/aerie/internal/scm"
)

func newLog(t *testing.T, size uint64) (*Log, *scm.Memory) {
	t.Helper()
	mem := scm.New(scm.Config{Size: size + 2*scm.PageSize, TrackPersistence: true})
	t.Cleanup(func() { mem.Close() })
	l, err := Format(mem, scm.PageSize, size)
	if err != nil {
		t.Fatal(err)
	}
	return l, mem
}

func replayAll(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var got [][]byte
	if err := l.Replay(func(p []byte) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		got = append(got, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendCommitReplay(t *testing.T) {
	l, _ := newLog(t, 64*1024)
	msgs := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, m := range msgs {
		if err := l.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != len(msgs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], msgs[i])
		}
	}
}

func TestUncommittedRecordsLostInCrash(t *testing.T) {
	l, mem := newLog(t, 64*1024)
	if err := l.Append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	l2, err := Attach(mem, scm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l2)
	if len(got) != 1 || string(got[0]) != "committed" {
		t.Fatalf("replay after crash = %q", got)
	}
}

func TestAbortDiscardsStaged(t *testing.T) {
	l, _ := newLog(t, 64*1024)
	if err := l.Append([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	l.Abort()
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 0 {
		t.Fatalf("aborted record replayed: %q", got)
	}
}

func TestCheckpointAdvancesHead(t *testing.T) {
	l, mem := newLog(t, 64*1024)
	_ = l.Append([]byte("applied"))
	_ = l.Commit()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !l.Empty() {
		t.Fatal("log not empty after checkpoint")
	}
	mem.Crash()
	l2, err := Attach(mem, scm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l2); len(got) != 0 {
		t.Fatalf("checkpointed record replayed: %q", got)
	}
}

func TestWrapAround(t *testing.T) {
	l, _ := newLog(t, 16*1024+headerSize)
	payload := bytes.Repeat([]byte{7}, 3000)
	total := 0
	// Fill, checkpoint, fill again several times so the cursor wraps.
	for round := 0; round < 10; round++ {
		n := 0
		for {
			err := l.Append(payload)
			if errors.Is(err, ErrFull) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, l); len(got) != n {
			t.Fatalf("round %d: replayed %d, want %d", round, len(got), n)
		}
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total < 40 {
		t.Fatalf("wrap test appended only %d records", total)
	}
}

func TestRecordTooBig(t *testing.T) {
	l, _ := newLog(t, 32*1024)
	if err := l.Append(make([]byte, 20*1024)); !errors.Is(err, ErrTooBig) {
		t.Fatalf("want ErrTooBig, got %v", err)
	}
}

func TestAttachUnformatted(t *testing.T) {
	mem := scm.New(scm.Config{Size: 64 * 1024})
	defer mem.Close()
	if _, err := Attach(mem, 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestCorruptRecordDetected(t *testing.T) {
	mem := scm.New(scm.Config{Size: 128 * 1024})
	defer mem.Close()
	l, err := Format(mem, 0, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Append([]byte("record"))
	_ = l.Commit()
	// Corrupt the payload behind the log's back.
	if err := mem.Write(headerSize+recHeader, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// Property: crash at any point (with random cache evictions) yields a log
// that replays exactly the committed prefix of transactions, each intact.
func TestQuickCrashReplaysCommittedPrefix(t *testing.T) {
	f := func(seed int64, txSizes []uint8, crashAfter uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := scm.New(scm.Config{Size: 256 * 1024, TrackPersistence: true})
		defer mem.Close()
		l, err := Format(mem, scm.PageSize, 128*1024)
		if err != nil {
			return false
		}
		if len(txSizes) > 12 {
			txSizes = txSizes[:12]
		}
		committed := 0
		recs := 0
		for i, sz := range txSizes {
			// Each transaction is 1-3 records.
			n := int(sz)%3 + 1
			for j := 0; j < n; j++ {
				payload := []byte(fmt.Sprintf("tx%d-rec%d-%d", i, j, rng.Int()))
				if err := l.Append(payload); err != nil {
					return false
				}
			}
			if int(crashAfter) == i {
				break // crash with this tx staged but uncommitted
			}
			if err := l.Commit(); err != nil {
				return false
			}
			committed++
			recs += n
			mem.EvictRandom(rng, 0.2)
		}
		mem.Crash()
		l2, err := Attach(mem, scm.PageSize)
		if err != nil {
			return false
		}
		var got []string
		if err := l2.Replay(func(p []byte) error {
			got = append(got, string(p))
			return nil
		}); err != nil {
			return false
		}
		if len(got) != recs {
			return false
		}
		// Records of committed transactions appear in order with the right
		// prefixes.
		k := 0
		for i := 0; i < committed; i++ {
			n := int(txSizes[i])%3 + 1
			for j := 0; j < n; j++ {
				want := fmt.Sprintf("tx%d-rec%d-", i, j)
				if len(got[k]) < len(want) || got[k][:len(want)] != want {
					return false
				}
				k++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendCommit128B(b *testing.B) {
	mem := scm.New(scm.Config{Size: 8 << 20})
	b.Cleanup(func() { mem.Close() })
	l, err := Format(mem, 0, 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 128)
	b.SetBytes(128)
	for i := 0; i < b.N; i++ {
		if err := l.Append(payload); err != nil {
			if err2 := l.Checkpoint(); err2 != nil {
				b.Fatal(err2)
			}
			if err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQuickReplayIdempotent: replay of a committed log is idempotent —
// redo records are absolute writes, so applying them a second time over the
// post-replay image leaves the volume byte-identical, and a fresh image
// converges to the same state. Holds also when the writer crashes inside
// the commit publish window (tail flushed but not yet published), which is
// exactly the case recovery re-runs replay for.
func TestQuickReplayIdempotent(t *testing.T) {
	f := func(seed int64, nTx uint8, crashTx uint8, tornCommit bool) bool {
		rng := rand.New(rand.NewSource(seed))
		const volSize = 4096
		mem := scm.New(scm.Config{Size: 256 * 1024, TrackPersistence: true})
		defer mem.Close()
		l, err := Format(mem, scm.PageSize, 128*1024)
		if err != nil {
			return false
		}
		inj := faultinject.New()
		l.SetFaults(inj)
		n := int(nTx)%10 + 1
		crash := int(crashTx) % n
		_, _ = faultinject.Run(func() error {
			for i := 0; i < n; i++ {
				recs := rng.Intn(3) + 1
				for j := 0; j < recs; j++ {
					data := make([]byte, rng.Intn(48)+1)
					rng.Read(data)
					payload := make([]byte, 4+len(data))
					putU32(payload, uint32(rng.Intn(volSize-64)))
					copy(payload[4:], data)
					if err := l.Append(payload); err != nil {
						return err
					}
				}
				if tornCommit && i == crash {
					// Crash between the records' flush+fence and the tail
					// publish: the transaction must vanish on replay.
					inj.CrashAt("journal.commit.publish", inj.Counts()["journal.commit.publish"]+1)
				}
				if err := l.Commit(); err != nil {
					return err
				}
			}
			return nil
		})
		mem.Crash()
		l2, err := Attach(mem, scm.PageSize)
		if err != nil {
			return false
		}
		apply := func(vol []byte) bool {
			return l2.Replay(func(p []byte) error {
				if len(p) < 4 {
					return errors.New("short record")
				}
				copy(vol[getU32(p):], p[4:])
				return nil
			}) == nil
		}
		vol := make([]byte, volSize)
		if !apply(vol) {
			return false
		}
		once := make([]byte, volSize)
		copy(once, vol)
		// Second replay over the already-recovered image: must be a no-op.
		if !apply(vol) || !bytes.Equal(vol, once) {
			return false
		}
		// Replay is stable: a fresh image converges to the same state.
		fresh := make([]byte, volSize)
		if !apply(fresh) || !apply(fresh) {
			return false
		}
		return bytes.Equal(fresh, once)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
