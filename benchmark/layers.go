package main

import (
	"slices"
	"sort"
	"strings"

	"github.com/aerie-fs/aerie/internal/fsproto"
	"github.com/aerie-fs/aerie/internal/obs"
)

// layerInput is everything a traced run collected.
type layerInput struct {
	tr            *tracer
	seg           *segment // the traced segment
	base          *segment // the untraced segment measured first in the same process
	before, after obs.Snapshot
	clients       int

	cacheHits, cacheMisses int64
	openNS, fsckNS         int64 // mail_sync_vol's abandon-and-reopen; 0 elsewhere
}

// durs collects span durations for percentiles.
type durs []int64

func (d durs) pct(q float64) *float64 {
	if len(d) == 0 {
		return nil
	}
	slices.Sort(d)
	return num(pct(d, q))
}

// layerValues turns spans, tap records and obs counts into the per-layer
// rows. A row with no samples on this workload is nil (printed null).
func layerValues(in *layerInput) map[string]*float64 {
	spans := in.tr.recorded()
	ops := float64(in.seg.ops)
	kop := ops / 1e3
	wall := float64(in.seg.wall.Nanoseconds())

	var (
		byKind             [numSpanKinds]durs
		lockRPC, applyRPC  durs
		txRPC, allRPC      durs
		opTime             float64
		nested             []span // RPCs that ran inside one op while its caller waited
		rpcCalls, applyN   float64
		preallocN, fileN   float64
		bytesOut, applyOut float64
		inflightMax        float64
		rpcErrors, rejects float64
	)
	for i := range spans {
		s := &spans[i]
		byKind[s.Kind] = append(byKind[s.Kind], s.Dur)
		switch s.Kind {
		case spOp:
			opTime += float64(s.Dur)
		case spRPC:
			rpcCalls++
			allRPC = append(allRPC, s.Dur)
			bytesOut += float64(s.Out)
			if d := float64(s.Depth); d > inflightMax {
				inflightMax = d
			}
			if s.Code != 0 {
				rpcErrors++
			}
			m := uint32(s.Method)
			switch {
			case m&^0xff == 0x100:
				lockRPC = append(lockRPC, s.Dur)
			case isApply(m), m == fsproto.MethodTxApply:
				applyN++
				applyOut += float64(s.Out)
				if m == fsproto.MethodTxApply {
					txRPC = append(txRPC, s.Dur)
				} else {
					applyRPC = append(applyRPC, s.Dur)
				}
				if s.Code != 0 && s.Code != codeTransport {
					rejects++
				}
			case m == fsproto.MethodPrealloc, m == fsproto.MethodPreallocShard:
				preallocN++
			case m == fsproto.MethodOpenFile, m == fsproto.MethodCloseFile:
				fileN++
			}
			// An RPC that starts and ends inside one op ran on that op's
			// behalf while its caller waited: it is the op's child. An RPC
			// a pipelined shipper still has in flight when the op returns
			// overlapped the caller's work and is not charged to it.
			if p := s.Parent; p >= 0 && s.Start+s.Dur <= spans[p].Start+spans[p].Dur {
				nested = append(nested, *s)
			}
		}
	}

	v := map[string]*float64{
		"trace_overhead": num(in.seg.opsPerSec() / in.base.opsPerSec()),

		"pxfs.create_us_p50": byKind[spCreate].pct(0.5),
		"pxfs.open_us_p50":   byKind[spOpen].pct(0.5),
		"pxfs.read_us_p50":   byKind[spRead].pct(0.5),
		"pxfs.write_us_p50":  byKind[spWrite].pct(0.5),
		"pxfs.close_us_p50":  byKind[spClose].pct(0.5),
		"pxfs.unlink_us_p50": byKind[spUnlink].pct(0.5),
		"pxfs.rename_us_p50": byKind[spRename].pct(0.5),
		"pxfs.sync_us_p50":   byKind[spSync].pct(0.5),
		"pxfs.sync_us_p99":   byKind[spSync].pct(0.99),

		"flatfs.get_us_p50": byKind[spGet].pct(0.5),
		"flatfs.put_us_p50": byKind[spPut].pct(0.5),

		"libfs.batches":            num(applyN),
		"libfs.rotate_wait_us_p99": byKind[spRotate].pct(0.99),

		"lock.calls_per_kop": num(float64(len(lockRPC)) / kop),
		"lock.rpc_us_p50":    lockRPC.pct(0.5),
		"lock.revocations":   num(in.revocations()),

		"rpc.calls_per_kop":          num(rpcCalls / kop),
		"rpc.apply_calls_per_kop":    num(applyN / kop),
		"rpc.prealloc_calls_per_kop": num(preallocN / kop),
		"rpc.file_calls_per_kop":     num(fileN / kop),
		"rpc.bytes_out_per_op":       num(bytesOut / ops),
		"rpc.call_us_p50":            allRPC.pct(0.5),
		"rpc.call_us_p99":            allRPC.pct(0.99),
		"rpc.inflight_max":           num(inflightMax),
		"rpc.time_share":             num(covered(spans, in.clients) / (wall * float64(in.clients))),
		"rpc.errors":                 num(rpcErrors),

		"tfs.apply_us_p50": applyRPC.pct(0.5),
		"tfs.apply_us_p99": applyRPC.pct(0.99),
		"tfs.tx_calls":     num(float64(len(txRPC))),
		"tfs.tx_us_p50":    txRPC.pct(0.5),
		"tfs.rejects":      num(rejects),
	}
	for name, val := range timingValues(in.base) {
		v["e2e."+name] = val
	}
	if opTime > 0 {
		// Self time is the op's span minus the part of it its child RPCs
		// cover; a client's ops do not overlap, so the union of its nested
		// RPC spans is the sum of that cover over its ops.
		v["libfs.client_self_share"] = num(1 - covered(nested, in.clients)/opTime)
	}
	if applyN > 0 {
		v["libfs.ops_per_batch"] = num(ops / applyN)
		v["libfs.batch_bytes_mean"] = num(applyOut / applyN)
	}
	if lookups := in.cacheHits + in.cacheMisses; lookups > 0 {
		v["pxfs.namecache_hit_ratio"] = num(float64(in.cacheHits) / float64(lookups))
	}
	if in.openNS > 0 {
		v["core.open_ms"] = num(float64(in.openNS) / 1e6)
		v["core.fsck_ms"] = num(float64(in.fsckNS) / 1e6)
	}

	// Counts the program keeps itself, read from its obs sink as deltas over
	// the traced segment. The sink also sees the untimed work between rounds
	// (audits), which on these workloads only reads.
	delta := func(name string) *float64 {
		a, ok := counter(in.after, name)
		if !ok {
			return nil
		}
		b, _ := counter(in.before, name)
		return num(float64(a - b))
	}
	per := func(name string, div float64) *float64 {
		if d := delta(name); d != nil {
			return num(*d / div)
		}
		return nil
	}
	v["journal.records_per_kop"] = per("journal.records", kop)
	v["journal.bytes_per_op"] = per("journal.record_bytes", ops)
	v["scm.fences_per_op"] = per("scm.fences", ops)
	v["scm.lines_flushed_per_op"] = per("scm.lines_flushed", ops)
	v["scm.msync_calls_per_op"] = per("scm.msync.calls", ops)
	v["scm.msync_mb_per_op"] = per("scm.msync.bytes", ops*1e6)
	if a, ok := in.after.Histogram("scm.msync.ns"); ok {
		b, _ := in.before.Histogram("scm.msync.ns")
		v["scm.msync_time_share"] = num(float64(a.SumNS-b.SumNS) / wall)
	}
	// tfs.groupcommit.batches observes the batches published by each fenced
	// group commit: sum ÷ count is batches per fence, over every shard.
	var batches, fences int64
	for _, h := range in.after.Histograms {
		if strings.HasPrefix(h.Name, "tfs.") && strings.HasSuffix(h.Name, "groupcommit.batches") {
			b, _ := in.before.Histogram(h.Name)
			batches += h.SumNS - b.SumNS
			fences += h.Count - b.Count
		}
	}
	if fences > 0 {
		v["tfs.batches_per_fence"] = num(float64(batches) / float64(fences))
	}
	return v
}

func counter(s obs.Snapshot, name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

func (in *layerInput) revocations() float64 {
	var n int64
	for _, ct := range in.tr.clients {
		n += ct.revocations.Load()
	}
	return float64(n)
}

// covered is the time, summed over clients, during which a client had at
// least one of the given RPC spans open: the union of the spans per client.
func covered(spans []span, clients int) float64 {
	type iv struct{ lo, hi int64 }
	per := make([][]iv, clients)
	for i := range spans {
		if s := &spans[i]; s.Kind == spRPC && int(s.Client) < clients {
			per[s.Client] = append(per[s.Client], iv{s.Start, s.Start + s.Dur})
		}
	}
	var busy int64
	for _, ivs := range per {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var end int64
		for _, x := range ivs {
			if x.lo > end {
				end = x.lo
			}
			if x.hi > end {
				busy += x.hi - end
				end = x.hi
			}
		}
	}
	return float64(busy)
}
