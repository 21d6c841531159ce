// Package filebench reimplements the FileBench profiles the paper evaluates
// with (§7.2.2): Fileserver, Webserver, and Webproxy, with the paper's
// parameters (file counts, directory widths, mean file sizes, I/O sizes),
// plus the FlatFS-converted Webproxy where create/write/close becomes put,
// open/read/close becomes get, and delete becomes erase (§7.3.2). A Scale
// parameter shrinks the working set proportionally so the suite fits small
// test arenas; the benchmark harness runs larger scales.
//
// Workloads run against any file system through the FS adapter interface
// (adapters for PXFS and the VFS baselines live in adapters.go) and measure
// per-operation latency (mean and 95th percentile) and throughput in
// workload operations per second, the quantities Tables 1–3 and Figures 5–6
// report.
package filebench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/aerie-fs/aerie/internal/costmodel"
)

// File is an open file in a workload.
type File interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Close() error
}

// FS is the adapter interface workloads drive.
type FS interface {
	Create(path string) (File, error)
	Open(path string) (File, error)
	OpenAppend(path string) (File, error)
	Delete(path string) error
	Mkdir(path string) error
	Stat(path string) error
	Sync() error
}

// KV is the put/get/erase interface for the FlatFS-converted Webproxy.
// Get reuses buf's storage when possible (the paper's get copies the file
// into an application buffer, §6.2).
type KV interface {
	Put(key string, val []byte) error
	Get(key string, buf []byte) ([]byte, error)
	Erase(key string) error
}

// Profile describes one workload.
type Profile struct {
	Name string
	// NFiles is the working-set size.
	NFiles int
	// DirWidth is the mean directory width.
	DirWidth int
	// MeanFileSize in bytes.
	MeanFileSize int
	// IOSize bounds a single read/write call.
	IOSize int
	// AppendSize for log appends.
	AppendSize int
	// ReadsPerIter: open/read/close repetitions per iteration.
	ReadsPerIter int
	// Metadata mix flags.
	DoCreateDelete bool
	DoStat         bool
	// WholeFileRewrite adds a whole-file overwrite of a random file each
	// iteration (the fileserver mix's write).
	WholeFileRewrite bool
	// FsyncEvery issues an explicit Sync every N iterations (1 = every
	// iteration, the varmail durability discipline). 0 disables.
	FsyncEvery int
	// RotateEvery switches the log append to a thread-private log that is
	// deleted and restarted every N appends (log-structured append+rotate:
	// a steady allocate/free churn that ages the allocator). 0 keeps the
	// shared append-only log.
	RotateEvery int
}

// Fileserver is the paper's file-server profile: creates, deletes, appends,
// whole reads and writes on 10,000 files of mean size 128 KB, directory
// width 20, 1 MB I/O size.
func Fileserver(scale float64) Profile {
	return Profile{
		Name:             "fileserver",
		NFiles:           scaled(10000, scale),
		DirWidth:         20,
		MeanFileSize:     128 * 1024,
		IOSize:           1 << 20,
		AppendSize:       16 * 1024,
		ReadsPerIter:     1,
		DoCreateDelete:   true,
		DoStat:           true,
		WholeFileRewrite: true,
	}
}

// Varmail is the fsync-heavy mail-server profile (filebench's varmail):
// small files, a create/delete plus append per iteration, and an explicit
// fsync after every iteration — the durability discipline of an MTA
// spooling messages. Under multi-tenant runs it is the well-behaved,
// latency-sensitive victim workload: every iteration ships a small batch
// and waits for it.
func Varmail(scale float64) Profile {
	return Profile{
		Name:           "varmail",
		NFiles:         scaled(1000, scale),
		DirWidth:       100,
		MeanFileSize:   16 * 1024,
		IOSize:         1 << 20,
		AppendSize:     8 * 1024,
		ReadsPerIter:   1,
		DoCreateDelete: true,
		FsyncEvery:     1,
	}
}

// LogRotate is the log-structured append+rotate profile: large appends to a
// thread-private log restarted every few appends. The steady stream of big
// batches makes it the natural aggressor workload in multi-tenant runs, and
// the allocate-grow-free churn ages the allocator.
func LogRotate(scale float64) Profile {
	return Profile{
		Name:         "logrotate",
		NFiles:       scaled(100, scale),
		DirWidth:     20,
		MeanFileSize: 16 * 1024,
		IOSize:       1 << 20,
		AppendSize:   64 * 1024,
		RotateEvery:  8,
	}
}

// Webserver is the read-mostly profile: 10 open/read/close sequences on
// 16 KB files plus a log append.
func Webserver(scale float64) Profile {
	return Profile{
		Name:         "webserver",
		NFiles:       scaled(10000, scale),
		DirWidth:     20,
		MeanFileSize: 16 * 1024,
		IOSize:       1 << 20,
		AppendSize:   16 * 1024,
		ReadsPerIter: 10,
	}
}

// Webproxy stresses a single wide directory: create/write/close,
// 5 open/read/close, delete, and a log append on 1,000 16 KB files with
// directory width 1500 (i.e. one directory).
func Webproxy(scale float64) Profile {
	return Profile{
		Name:           "webproxy",
		NFiles:         scaled(1000, scale),
		DirWidth:       1500,
		MeanFileSize:   16 * 1024,
		IOSize:         1 << 20,
		AppendSize:     16 * 1024,
		ReadsPerIter:   5,
		DoCreateDelete: true,
	}
}

func scaled(n int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	v := int(float64(n) * scale)
	if v < 20 {
		v = 20
	}
	return v
}

// fileName maps index i into the profile's directory tree.
func (p Profile) fileName(i int) string {
	dir := i / p.DirWidth
	return fmt.Sprintf("/bench/dir%04d/f%06d", dir, i)
}

func (p Profile) dirName(d int) string { return fmt.Sprintf("/bench/dir%04d", d) }

// key maps index i to a FlatFS key.
func (p Profile) key(i int) string { return fmt.Sprintf("bench-f%06d", i) }

// fileSize draws file i's size: exponential around the mean, clamped, and
// deterministic per index.
func (p Profile) fileSize(i int) int {
	rng := rand.New(rand.NewSource(int64(i)*2654435761 + 12345))
	size := int(rng.ExpFloat64() * float64(p.MeanFileSize))
	if size < 512 {
		size = 512
	}
	if size > 8*p.MeanFileSize {
		size = 8 * p.MeanFileSize
	}
	return size
}

// Setup populates the working set (and the append log).
func Setup(fsys FS, p Profile) error {
	if err := fsys.Mkdir("/bench"); err != nil {
		return fmt.Errorf("setup mkdir: %w", err)
	}
	ndirs := (p.NFiles + p.DirWidth - 1) / p.DirWidth
	for d := 0; d < ndirs; d++ {
		if err := fsys.Mkdir(p.dirName(d)); err != nil {
			return fmt.Errorf("setup mkdir %d: %w", d, err)
		}
	}
	buf := make([]byte, p.IOSize)
	fillPattern(buf)
	for i := 0; i < p.NFiles; i++ {
		if err := writeWhole(fsys, p.fileName(i), buf[:min(p.fileSize(i), len(buf))]); err != nil {
			return fmt.Errorf("setup file %d: %w", i, err)
		}
	}
	if err := writeWhole(fsys, "/bench/logfile", buf[:p.AppendSize]); err != nil {
		return err
	}
	return fsys.Sync()
}

// SetupKV populates the working set for the KV-converted workload.
func SetupKV(kv KV, p Profile) error {
	buf := make([]byte, p.MeanFileSize*8)
	fillPattern(buf)
	for i := 0; i < p.NFiles; i++ {
		if err := kv.Put(p.key(i), buf[:p.fileSize(i)]); err != nil {
			return fmt.Errorf("setup key %d: %w", i, err)
		}
	}
	return kv.Put("bench-logfile", buf[:p.AppendSize])
}

func fillPattern(buf []byte) {
	for i := range buf {
		buf[i] = byte(i*31 + 7)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func writeWhole(fsys FS, path string, data []byte) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Result summarizes a run.
type Result struct {
	Profile    string
	Threads    int
	Iterations int64
	Ops        int64
	Elapsed    time.Duration
	// MeanOpLatency is elapsed wall time per workload operation (the
	// Table 2 quantity).
	MeanOpLatency time.Duration
	// P95OpLatency is the 95th-percentile per-op latency, from
	// per-iteration samples.
	P95OpLatency time.Duration
	// Throughput in workload operations per second (Figures 5–6).
	Throughput float64
}

// RunOpts controls a run.
type RunOpts struct {
	// Threads is the number of concurrent workload threads.
	Threads int
	// Iterations per thread.
	Iterations int
	// Seed for workload randomness.
	Seed int64
	// Tracer records phase traces (single-threaded capture runs).
	Tracer *costmodel.Tracer
}

func (o *RunOpts) defaults() {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}
