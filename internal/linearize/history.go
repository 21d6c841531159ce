// Package linearize records concurrent file-system histories and checks
// them for linearizability against a sequential specification model.
//
// The conformance harness (internal/conformance) replays one deterministic
// trace in lockstep, which can never catch interleaving bugs: the pipelined
// write window and group commit reorder work that a lockstep replay
// serializes away. This package is the
// complementary safety net, in the specification style of the formal VFS
// models (PAPERS.md, arXiv:1211.6187): N clients run concurrently against a
// live system, every operation records its invocation/response window plus
// the value it observed, and a Wing-Gong-style search then decides whether
// some legal sequential order of the operations — one respecting real time
// (op A before op B whenever A responded before B invoked) — explains every
// observation under the sequential model.
//
// Soundness of the real-time order rests on the recorder's clock: a single
// shared atomic counter stamped before each invocation and after each
// response. If entry A's response stamp is below entry B's invocation
// stamp, the stamping events really were ordered that way, A responded
// before its stamp, and B invoked after its stamp — so A truly preceded B.
// Concurrent operations may interleave their stamps arbitrarily; that only
// loosens the order, which can hide a violation but never fabricate one.
package linearize

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind enumerates the operations the history model understands. They map
// one-to-one onto the FS surface the concurrent harness drives.
type Kind int

const (
	// KPut creates path or fully replaces its contents.
	KPut Kind = iota
	// KAppend appends to an existing path (error when absent).
	KAppend
	// KRead returns the full contents (error when absent).
	KRead
	// KTruncate resizes to Size bytes, zero-filling growth.
	KTruncate
	// KDelete unlinks the path (error when absent).
	KDelete
	// KRename moves Path to Path2, replacing any existing Path2.
	KRename
	// KBarrier is a script synchronization point, not an operation: every
	// client must reach its nth barrier before any proceeds past it.
	// Barriers are never recorded into the history.
	KBarrier
)

func (k Kind) String() string {
	switch k {
	case KPut:
		return "put"
	case KAppend:
		return "append"
	case KRead:
		return "read"
	case KTruncate:
		return "truncate"
	case KDelete:
		return "delete"
	case KRename:
		return "rename"
	case KBarrier:
		return "barrier"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Op is one operation descriptor. Only the fields the kind needs are set.
type Op struct {
	Kind  Kind
	Path  string
	Path2 string // rename destination
	Size  int64  // truncate size
	Data  []byte // put/append payload
}

func (op Op) String() string {
	switch op.Kind {
	case KPut, KAppend:
		return fmt.Sprintf("%s(%s, %dB)", op.Kind, op.Path, len(op.Data))
	case KTruncate:
		return fmt.Sprintf("truncate(%s, %d)", op.Path, op.Size)
	case KRename:
		return fmt.Sprintf("rename(%s -> %s)", op.Path, op.Path2)
	default:
		return fmt.Sprintf("%s(%s)", op.Kind, op.Path)
	}
}

// Canonical outcome error classes. The live adapters map implementation
// errors onto these so the model and the system compare on equal terms.
const (
	OutOK    = ""
	OutNoEnt = "noent"
)

// Outcome is what an operation was observed to do: a canonical error class
// and, for reads, the bytes returned.
type Outcome struct {
	Err  string
	Data []byte // read result (nil for non-reads and failed reads)
}

func (o Outcome) String() string {
	if o.Err != "" {
		return "err:" + o.Err
	}
	if o.Data != nil {
		return fmt.Sprintf("ok[%dB]", len(o.Data))
	}
	return "ok"
}

// Entry is one completed operation in a recorded history.
type Entry struct {
	// ID is the entry's index in recording order (unique).
	ID int
	// Client identifies the session that issued the operation.
	Client int
	// Step is the operation's index within its client's script.
	Step int
	// Invoke and Return are the operation's window stamps from the shared
	// history clock: the op invoked after Invoke was stamped and responded
	// before Return was stamped.
	Invoke, Return uint64
	Op             Op
	Out            Outcome
}

func (e Entry) String() string {
	return fmt.Sprintf("c%d#%d %s -> %s @[%d,%d]", e.Client, e.Step, e.Op, e.Out, e.Invoke, e.Return)
}

// History is a recorded set of completed operations.
type History struct {
	Entries []Entry
}

// ByInvoke returns the entries sorted by invocation stamp.
func (h History) ByInvoke() []Entry {
	out := append([]Entry(nil), h.Entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Invoke < out[j].Invoke })
	return out
}

// Recorder stamps operation windows against one shared atomic clock and
// collects the entries. Safe for concurrent use by the client goroutines.
type Recorder struct {
	clock atomic.Uint64
	mu    sync.Mutex
	done  []Entry
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Now advances and returns the shared clock. Exposed so mutation layers can
// order their own bookkeeping against recorded windows.
func (r *Recorder) Now() uint64 { return r.clock.Add(1) }

// Invoke opens an operation window. The returned pending token carries the
// invocation stamp; complete it with Done.
func (r *Recorder) Invoke(client, step int, op Op) Pending {
	return Pending{r: r, client: client, step: step, op: op, invoke: r.Now()}
}

// Pending is an invoked-but-unanswered operation.
type Pending struct {
	r            *Recorder
	client, step int
	op           Op
	invoke       uint64
}

// InvokeStamp returns the pending operation's invocation stamp.
func (p Pending) InvokeStamp() uint64 { return p.invoke }

// Done closes the window with the observed outcome and records the entry.
func (p Pending) Done(out Outcome) {
	ret := p.r.Now()
	p.r.mu.Lock()
	p.r.done = append(p.r.done, Entry{
		ID: len(p.r.done), Client: p.client, Step: p.step,
		Invoke: p.invoke, Return: ret, Op: p.op, Out: out,
	})
	p.r.mu.Unlock()
}

// History returns the recorded entries. Call after all clients joined.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return History{Entries: append([]Entry(nil), r.done...)}
}

// CompletedPutsBefore returns the payloads of every successful KPut on
// path whose response stamp is below stamp, ordered oldest to newest by
// response. Mutation layers use it to pick provably stale values: a put
// that completed before a read invoked must be ordered before that read in
// every legal linearization, so returning any but the newest such value
// (with the writes ordered among themselves) is a violation.
func (r *Recorder) CompletedPutsBefore(path string, stamp uint64) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	type rec struct {
		ret  uint64
		data []byte
	}
	var puts []rec
	for i := range r.done {
		e := &r.done[i]
		if e.Op.Kind == KPut && e.Op.Path == path && e.Out.Err == OutOK && e.Return < stamp {
			puts = append(puts, rec{e.Return, e.Op.Data})
		}
	}
	sort.Slice(puts, func(i, j int) bool { return puts[i].ret < puts[j].ret })
	out := make([][]byte, len(puts))
	for i, p := range puts {
		out[i] = p.data
	}
	return out
}

// Seed resolves the deterministic seed a randomized harness should run
// under: the AERIE_SEED environment variable when set (so any failure can
// be replayed exactly), otherwise def. Harnesses log the value they used so
// a failure report always names its seed.
func Seed(def int64) int64 {
	if v := os.Getenv("AERIE_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}
