package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"github.com/aerie-fs/aerie/internal/race"
)

// countingWriter records how many Write calls carried the bytes it holds.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// A frame leaves in one Write, whatever its size, and is read back
// identically however the stream is chopped up on the way in.
func TestFrameRoundTrip(t *testing.T) {
	choppers := map[string]func(io.Reader) io.Reader{
		"whole": func(r io.Reader) io.Reader { return r },
		"half":  iotest.HalfReader,
		"byte":  iotest.OneByteReader,
	}
	for _, n := range []int{0, 1, 100, 4096, frameBufKeep, frameBufKeep + 1, 3 * frameBufKeep} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*31 + n)
		}
		var w countingWriter
		var wbuf []byte
		if err := writeRequestFrame(&w, &wbuf, 0x20A, 0xfeedface12345678, payload); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(&w, &wbuf, statusErrCoded, payload); err != nil {
			t.Fatal(err)
		}
		if w.writes != 2 {
			t.Fatalf("%d-byte payload: two frames took %d writes, want 2", n, w.writes)
		}
		if cap(wbuf) > frameBufKeep {
			t.Fatalf("%d-byte payload: a %d-byte write buffer is kept", n, cap(wbuf))
		}
		// The wire format is unchanged: [u32 len][u32 method][u64 reqID] payload, [u32 len][u32 tag] payload.
		wire := w.Bytes()
		if len(wire) != 16+n+8+n || binary.LittleEndian.Uint32(wire) != uint32(n) ||
			binary.LittleEndian.Uint32(wire[4:]) != 0x20A || binary.LittleEndian.Uint64(wire[8:]) != 0xfeedface12345678 ||
			!bytes.Equal(wire[16:16+n], payload) || binary.LittleEndian.Uint32(wire[16+n+4:]) != statusErrCoded {
			t.Fatalf("%d-byte payload: unexpected bytes on the wire", n)
		}
		for name, chop := range choppers {
			r := bufio.NewReader(chop(bytes.NewReader(wire)))
			method, reqID, got, err := readRequestFrame(r, nil)
			if err != nil || method != 0x20A || reqID != 0xfeedface12345678 || !bytes.Equal(got, payload) {
				t.Fatalf("%s reader, %d bytes: request frame came back as method %#x reqID %#x len %d err %v", name, n, method, reqID, len(got), err)
			}
			tag, got, err := readFrame(r, make([]byte, 0, 64))
			if err != nil || tag != statusErrCoded || !bytes.Equal(got, payload) {
				t.Fatalf("%s reader, %d bytes: reply frame came back as tag %d len %d err %v", name, n, tag, len(got), err)
			}
			if _, _, err := readFrame(r, nil); err != io.EOF {
				t.Fatalf("%s reader: read past the last frame: %v", name, err)
			}
		}
	}
}

// A length over maxFrame is refused from the header alone: the stream holds
// nothing after it, so sizing a buffer first and reading into it would
// surface as an unexpected EOF (after a 64 MiB allocation) instead.
func TestFrameLengthLimit(t *testing.T) {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	for name, read := range map[string]func(*bufio.Reader) error{
		"request": func(r *bufio.Reader) error { _, _, _, err := readRequestFrame(r, nil); return err },
		"reply":   func(r *bufio.Reader) error { _, _, err := readFrame(r, nil); return err },
	} {
		var err error
		allocs := testing.AllocsPerRun(1, func() {
			err = read(bufio.NewReaderSize(bytes.NewReader(hdr[:]), 16))
		})
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("%s frame of maxFrame+1 bytes: %v", name, err)
		}
		if !race.Enabled && allocs > 8 {
			t.Fatalf("%s frame: %v allocations before the refusal", name, allocs)
		}
	}
	if _, _, _, err := readRequestFrame(bufio.NewReader(bytes.NewReader(hdr[:9])), nil); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestAllocPins: in steady state a request frame is written from, and read
// into, buffers the connection already owns.
func TestAllocPins(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	payload := bytes.Repeat([]byte{0xa5}, 300)
	var pipe bytes.Buffer
	r := bufio.NewReader(&pipe)
	var wbuf, rbuf []byte
	got := testing.AllocsPerRun(100, func() {
		if err := writeRequestFrame(&pipe, &wbuf, 0x20A, 77, payload); err != nil {
			t.Fatal(err)
		}
		_, _, req, err := readRequestFrame(r, rbuf)
		if err != nil || len(req) != len(payload) {
			t.Fatal(len(req), err)
		}
		rbuf = req
		if err := writeFrame(&pipe, &wbuf, statusOK, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readFrame(r, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("request + reply frame, write and read: %v allocs/op, want 0", got)
	}
}

// A large request does not stay pinned by the connections it crossed: after
// it and a few small ones, neither the client's write buffer nor the
// server's request buffer (kept across empty replies) still holds it.
func TestTCPLargeFrameBufferNotRetained(t *testing.T) {
	srv := NewServer()
	srv.Register(2, func(_ uint64, req []byte) ([]byte, error) { return nil, nil })
	ln, err := ListenTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialTCP(ln.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const large = 16 << 20
	before := heap()
	if _, err := c.Call(2, make([]byte, large)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Call(2, []byte("small")); err != nil {
			t.Fatal(err)
		}
	}
	if after := heap(); after > before+large/2 {
		t.Fatalf("heap grew from %d to %d bytes across a %d-byte request: a connection kept its buffer", before, after, large)
	}
}

// Concurrent calls on one client (and the connections it pools) never see
// each other's reused buffers: every reply matches its own request, whether
// the handler builds a fresh reply or answers with the request itself. Run
// with -race.
func TestTCPConcurrentCallsOwnBuffers(t *testing.T) {
	srv := NewServer()
	srv.Register(1, func(_ uint64, req []byte) ([]byte, error) { return req, nil })
	srv.Register(2, func(_ uint64, req []byte) ([]byte, error) {
		out := make([]byte, len(req))
		for i, b := range req {
			out[i] = ^b
		}
		return out, nil
	})
	ln, err := ListenTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialTCP(ln.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kept [][]byte
			for i := 0; i < 200; i++ {
				req := bytes.Repeat([]byte{byte(g), byte(i)}, 1+(g*37+i*11)%3000)
				method := uint32(1 + i%2)
				resp, err := c.Call(method, req)
				if err != nil {
					errs <- err
					return
				}
				want := req
				if method == 2 {
					want = make([]byte, len(req))
					for k, b := range req {
						want[k] = ^b
					}
				}
				if !bytes.Equal(resp, want) {
					errs <- fmt.Errorf("goroutine %d call %d: reply is not this call's", g, i)
					return
				}
				kept = append(kept, resp, want)
			}
			// Replies stay the caller's: later calls must not have touched them.
			for k := 0; k < len(kept); k += 2 {
				if !bytes.Equal(kept[k], kept[k+1]) {
					errs <- fmt.Errorf("goroutine %d: reply %d changed after the call returned", g, k/2)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// The dedup cache keeps replies, so a reply that is (part of) the request
// must take the connection's request buffer with it: replaying an old
// request ID after later calls still returns the original bytes.
func TestTCPDedupReplyOutlivesRequestBuffer(t *testing.T) {
	srv := NewServer()
	srv.Register(1, func(_ uint64, req []byte) ([]byte, error) { return req[:len(req):len(req)], nil })
	srv.Register(2, func(_ uint64, req []byte) ([]byte, error) { return nil, nil })
	ln, err := ListenTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialTCP(ln.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An empty reply leaves the server a request buffer longer than the
	// echoed request that follows.
	if _, err := c.Call(2, bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	first := c.NextReqID()
	if _, err := c.CallWithReqID(1, first, []byte("first request")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Call(1+uint32(i%2), []byte("later, longer request")); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.CallWithReqID(1, first, []byte("ignored: a duplicate"))
	if err != nil || string(resp) != "first request" {
		t.Fatalf("replayed request returned %q, %v", resp, err)
	}
}
