package main

// metricDef names one reported metric. The tables below are what the
// program emits; BENCHMARK.json at the repository root must list the same
// names, units, directions and bounds (the smoke test compares the two).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base a metric may worsen by
}

// endToEnd is reported by an untraced run, once per workload, and is what
// BENCHMARK.json lists as end_to_end: the metrics a change is gated on. Only
// metrics that repeat on the build sandbox are here. The sandbox is a shared
// two-core VM whose speed moves by a quarter and more for minutes at a time,
// and every timing below moves with it (README.md, "Why no timing is
// bounded"), so the timings are reported beside these, without a bound.
var endToEnd = []metricDef{
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"space_amp", "ratio", "lower", 0.05},
	{"rss_peak_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// timing is reported by the same untraced run, printed and stored with the
// rest and compared by -compare, but carries no bound: on this sandbox no
// bound the driver accepts (a quarter at most) is wider than the spread
// between two runs of one build. A traced run reports the same four from
// its untraced segment as the per-layer rows e2e.*.
var timing = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_us", Unit: "us", Better: "lower"},
	{Name: "op_p99_us", Unit: "us", Better: "lower"},
	{Name: "cpu_ms_per_kop", Unit: "ms", Better: "lower"},
}

// untraced is everything an untraced run reports, in printing order.
var untraced = append(append([]metricDef(nil), timing...), endToEnd...)

// perLayer is reported by a traced run, once per workload. Rows come from
// four places, all in this directory: the run's untraced segment (e2e.*),
// spans around the workload's calls (pxfs.*, flatfs.*, libfs.*), the
// interposing rpc.Client (lock.*, rpc.*, tfs.*), and probes that drive one
// layer in isolation (*.probe.*). Rows
// that are ratios of counts the program keeps in its obs sink are null when
// the program keeps no such count on that machine.
var perLayer = []metricDef{
	{Name: "trace_overhead", Unit: "ratio", Better: "higher"},

	{Name: "e2e.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "e2e.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "e2e.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "e2e.cpu_ms_per_kop", Unit: "ms", Better: "lower"},

	{Name: "pxfs.create_us_p50", Unit: "us", Better: "lower"},
	{Name: "pxfs.open_us_p50", Unit: "us", Better: "lower"},
	{Name: "pxfs.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "pxfs.write_us_p50", Unit: "us", Better: "lower"},
	{Name: "pxfs.close_us_p50", Unit: "us", Better: "lower"},
	{Name: "pxfs.unlink_us_p50", Unit: "us", Better: "lower"},
	{Name: "pxfs.rename_us_p50", Unit: "us", Better: "lower"},
	{Name: "pxfs.sync_us_p50", Unit: "us", Better: "lower"},
	{Name: "pxfs.sync_us_p99", Unit: "us", Better: "lower"},
	{Name: "pxfs.namecache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "flatfs.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "flatfs.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "flatfs.probe.erase_put_us", Unit: "us", Better: "lower"},

	{Name: "libfs.client_self_share", Unit: "ratio", Better: "lower"},
	{Name: "libfs.batches", Unit: "count", Better: "lower"},
	{Name: "libfs.ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "libfs.batch_bytes_mean", Unit: "B", Better: "lower"},
	{Name: "libfs.rotate_wait_us_p99", Unit: "us", Better: "lower"},

	{Name: "lock.calls_per_kop", Unit: "count", Better: "lower"},
	{Name: "lock.rpc_us_p50", Unit: "us", Better: "lower"},
	{Name: "lock.revocations", Unit: "count", Better: "lower"},
	{Name: "lockservice.probe.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "lockservice.probe.clerk_hit_ns", Unit: "ns", Better: "lower"},

	{Name: "rpc.calls_per_kop", Unit: "count", Better: "lower"},
	{Name: "rpc.apply_calls_per_kop", Unit: "count", Better: "lower"},
	{Name: "rpc.prealloc_calls_per_kop", Unit: "count", Better: "lower"},
	{Name: "rpc.file_calls_per_kop", Unit: "count", Better: "lower"},
	{Name: "rpc.bytes_out_per_op", Unit: "B", Better: "lower"},
	{Name: "rpc.call_us_p50", Unit: "us", Better: "lower"},
	{Name: "rpc.call_us_p99", Unit: "us", Better: "lower"},
	{Name: "rpc.inflight_max", Unit: "count", Better: "higher"},
	{Name: "rpc.time_share", Unit: "ratio", Better: "lower"},
	{Name: "rpc.errors", Unit: "count", Better: "lower"},
	{Name: "rpc.probe.inproc_rtt_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.probe.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "rpc.probe.tcp_rtt_4k_us", Unit: "us", Better: "lower"},

	{Name: "fsproto.probe.seal_ns", Unit: "ns", Better: "lower"},
	{Name: "fsproto.probe.seal_allocs", Unit: "count", Better: "lower"},
	{Name: "fsproto.probe.seal_bytes_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fsproto.probe.open_ns", Unit: "ns", Better: "lower"},

	{Name: "tfs.apply_us_p50", Unit: "us", Better: "lower"},
	{Name: "tfs.apply_us_p99", Unit: "us", Better: "lower"},
	{Name: "tfs.tx_calls", Unit: "count", Better: "lower"},
	{Name: "tfs.tx_us_p50", Unit: "us", Better: "lower"},
	{Name: "tfs.rejects", Unit: "count", Better: "lower"},
	{Name: "tfs.batches_per_fence", Unit: "count", Better: "higher"},
	{Name: "tfs.probe.fsck_ms", Unit: "ms", Better: "lower"},

	{Name: "journal.records_per_kop", Unit: "count", Better: "lower"},
	{Name: "journal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "journal.probe.commit_us", Unit: "us", Better: "lower"},
	{Name: "journal.probe.commit_scm_share", Unit: "ratio", Better: "lower"},
	{Name: "journal.probe.wrap_cycle_us", Unit: "us", Better: "lower"},

	{Name: "alloc.probe.alloc_free_ns", Unit: "ns", Better: "lower"},

	{Name: "sobj.probe.col_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "sobj.probe.col_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "sobj.probe.mfile_read_16k_ns", Unit: "ns", Better: "lower"},
	{Name: "sobj.probe.mfile_write_4k_ns", Unit: "ns", Better: "lower"},

	{Name: "scmmgr.probe.read_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "scmmgr.probe.first_touch_ns", Unit: "ns", Better: "lower"},

	{Name: "scm.fences_per_op", Unit: "count", Better: "lower"},
	{Name: "scm.msync_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "scm.msync_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "scm.lines_flushed_per_op", Unit: "count", Better: "lower"},
	{Name: "scm.msync_time_share", Unit: "ratio", Better: "lower"},
	{Name: "scm.probe.fence_ns", Unit: "ns", Better: "lower"},
	{Name: "scm.probe.vol_fence_us", Unit: "us", Better: "lower"},
	{Name: "scm.probe.vol_fence_4k_us", Unit: "us", Better: "lower"},

	{Name: "core.open_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fsck_ms", Unit: "ms", Better: "lower"},
	{Name: "core.probe.new_ms", Unit: "ms", Better: "lower"},
}
