package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// endToEndNames are the metrics of an untraced run; they must match
// the end_to_end list of BENCHMARK.json.
var endToEndNames = []string{"setup_s", "throughput_ops_s", "mutation_p50_ms", "read_p50_ms"}

// overheadOf are the end-to-end metrics whose traced-minus-untraced
// difference a traced run reports.
var overheadOf = []string{"throughput_ops_s", "mutation_p50_ms", "read_p50_ms"}

// perLayerNames are the metrics of a traced run; they must match the
// per_layer list of BENCHMARK.json. The first ones are user-visible but
// not gated: each is zero, undefined or too unsteady on at least one
// workload (see BENCHMARK.json).
var perLayerNames = []string{
	"mutation_p99_ms", "read_p99_ms", "listing_p50_ms", "unavail_ms", "rejoin_ms",
	"failed_frac", "slo_miss_frac",
	"joshua.attempts_per_op", "joshua.bytes_per_listing",
	"joshua.call_ms.submit.p50", "joshua.call_ms.submit.p99",
	"joshua.call_ms.delete.p50", "joshua.call_ms.delete.p99",
	"joshua.call_ms.stat.p50", "joshua.call_ms.stat.p99",
	"joshua.call_ms.stat_ordered.p50", "joshua.call_ms.stat_ordered.p99",
	"joshua.call_ms.listing.p50", "joshua.call_ms.listing.p99",
	"rsm.apply_barrier_frac", "rsm.apply_parallel_runs_per_op",
	"rsm.durability_lag_max_ms", "rsm.fsync_overlap_ms_per_s",
	"rsm.dedup_hits", "rsm.reply_queue_drops", "rsm.lease_hit_ratio",
	"rsm.read_cache_hit_ratio", "rsm.read_queue_depth_max",
	"rsm.ckpt_ms", "rsm.ckpt_bytes", "rsm.ckpt_failures",
	"rsm.transfer_delta", "rsm.transfer_hybrid", "rsm.transfer_full",
	"rsm.transfer_bytes", "rsm.recovery_replayed",
	"rsm.allocs_per_cmd", "rsm.gc_pause_ms",
	"wal.fsyncs_per_mutation", "wal.appends_per_fsync", "wal.bytes_per_mutation",
	"gcs.msgs_per_batch", "gcs.acks_coalesced_per_op", "gcs.retransmits", "gcs.nacks",
	"gcs.view_change_ms", "gcs.flush_attempts",
	"simnet.datagrams_per_op", "simnet.bytes_per_op", "simnet.dropped_full",
	"pbs.status_rebuild_ratio", "pbs.queue_depth", "pbs.submit_us", "pbs.statusall_us",
	"pbs.snapshot_ms", "pbs.executions_per_job",
	"cluster.restart_ms", "cluster.catchup_ms",
	"proc.cpu_util", "proc.heap_mb",
	"load.late_p99_ms", "load.late_max_ms",
	"trace.overhead.throughput_ops_s", "trace.overhead.mutation_p50_ms", "trace.overhead.read_p50_ms",
	"baseline1.throughput_ops_s", "baseline1.mutation_p50_ms",
}

func isEndToEnd(name string) bool {
	for _, n := range endToEndNames {
		if n == name {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct is the nearest-rank percentile of ds in ms (0 when empty).
func pct(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return ms(s[max(0, min(k, len(s)-1))])
}

// endToEnd adds every user-visible metric of the phase. Latency runs
// from when an op was due, so a stall also delays the ops queued
// behind it.
func (p *phase) endToEnd(res *result) {
	res.add("setup_s", "s", medianDur(p.setups).Seconds())
	var mut, read, list []time.Duration
	okOps, miss := 0, 0
	for _, rec := range p.lr.recs {
		lat := rec.end - rec.due
		if !rec.ok || lat > sloLimit {
			miss++
		}
		if !rec.ok {
			continue
		}
		okOps++
		switch {
		case rec.class.mutation():
			mut = append(mut, lat)
		case rec.class.read():
			read = append(read, lat)
		default:
			list = append(list, lat)
		}
	}
	n := float64(max(1, len(p.lr.recs)))
	res.add("throughput_ops_s", "ops/s", float64(okOps)/p.lr.elapsed.Seconds())
	res.add("mutation_p50_ms", "ms", pct(mut, 0.50))
	res.add("mutation_p99_ms", "ms", pct(mut, 0.99))
	res.add("read_p50_ms", "ms", pct(read, 0.50))
	res.add("read_p99_ms", "ms", pct(read, 0.99))
	res.add("listing_p50_ms", "ms", pct(list, 0.50))
	res.add("failed_frac", "ratio", float64(n-float64(okOps))/n)
	res.add("slo_miss_frac", "ratio", float64(miss)/n)
	res.add("unavail_ms", "ms", ms(unavailable(p.lr.recs)))
	res.add("rejoin_ms", "ms", ms(p.ctl.restartCall+p.ctl.catchup))
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// unavailable is the longest interval in which ops of one kind
// (mutations, reads or listings) were due and not yet finished while
// none of that kind succeeded. Kinds are taken apart because heads
// fail differently for them: reads rotate over every head and keep
// succeeding while the sticky head that takes mutations is down.
func unavailable(recs []opRec) time.Duration {
	var longest time.Duration
	for _, kind := range []func(opClass) bool{opClass.mutation, opClass.read, func(c opClass) bool { return c == opListing }} {
		var sel []opRec
		for _, r := range recs {
			if kind(r.class) {
				sel = append(sel, r)
			}
		}
		longest = max(longest, unavailableIn(sel))
	}
	return longest
}

// unavailableIn cuts the union of the ops' [due, end] intervals at
// every successful completion and returns the longest piece.
func unavailableIn(recs []opRec) time.Duration {
	if len(recs) == 0 {
		return 0
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].due < recs[j].due })
	var okEnds []time.Duration
	for _, r := range recs {
		if r.ok {
			okEnds = append(okEnds, r.end)
		}
	}
	sort.Slice(okEnds, func(i, j int) bool { return okEnds[i] < okEnds[j] })

	var longest time.Duration
	cut := func(a, b time.Duration) {
		k := sort.Search(len(okEnds), func(i int) bool { return okEnds[i] >= a })
		from := a
		for ; k < len(okEnds) && okEnds[k] <= b; k++ {
			longest = max(longest, okEnds[k]-from)
			from = okEnds[k]
		}
		longest = max(longest, b-from)
	}
	a, b := recs[0].due, recs[0].end
	for _, r := range recs[1:] {
		if r.due > b {
			cut(a, b)
			a, b = r.due, r.end
			continue
		}
		b = max(b, r.end)
	}
	cut(a, b)
	return longest
}

// perLayer adds the metrics of single layers, measured from outside
// through their public counters.
func (p *phase) perLayer(res *result) {
	c := p.ctl
	ops := float64(max(1, len(p.lr.recs)))
	mutations := 0
	calls := make([][]time.Duration, numClasses)
	for _, rec := range p.lr.recs {
		if rec.ok {
			calls[rec.class] = append(calls[rec.class], rec.end-rec.start)
			if rec.class.mutation() {
				mutations++
			}
		}
	}
	mut := float64(max(1, mutations))
	heads := float64(p.heads)

	rd := func(f func(rsm.Stats) uint64) float64 {
		var s uint64
		for _, in := range c.insts {
			s += f(in.last.rsm) - f(in.first.rsm)
		}
		return float64(s)
	}
	gd := func(f func(gcs.Stats) uint64) float64 {
		var s uint64
		for _, in := range c.insts {
			s += f(in.last.gcs) - f(in.first.gcs)
		}
		return float64(s)
	}
	rmax := func(f func(rsm.Stats) uint64) float64 {
		var m uint64
		for _, in := range c.insts {
			m = max(m, f(in.last.rsm))
		}
		return float64(m)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	res.add("joshua.attempts_per_op", "dgram/op", float64(p.sent)/ops)
	res.add("joshua.bytes_per_listing", "B", p.listingBytes)
	for k := opClass(0); k < numClasses; k++ {
		res.add("joshua.call_ms."+classNames[k]+".p50", "ms", pct(calls[k], 0.50))
		res.add("joshua.call_ms."+classNames[k]+".p99", "ms", pct(calls[k], 0.99))
	}

	applied := rd(func(s rsm.Stats) uint64 { return s.Applied })
	res.add("rsm.apply_barrier_frac", "ratio", ratio(rd(func(s rsm.Stats) uint64 { return s.ApplyBarriers }), applied))
	res.add("rsm.apply_parallel_runs_per_op", "ratio", ratio(rd(func(s rsm.Stats) uint64 { return s.ApplyParallelRuns }), applied))
	res.add("rsm.durability_lag_max_ms", "ms", rmax(func(s rsm.Stats) uint64 { return s.DurabilityLagMax })/1e6)
	res.add("rsm.fsync_overlap_ms_per_s", "ms/s", rd(func(s rsm.Stats) uint64 { return s.FsyncOverlapNs })/1e6/heads/p.lr.elapsed.Seconds())
	res.add("rsm.dedup_hits", "count", rd(func(s rsm.Stats) uint64 { return s.DedupHits }))
	res.add("rsm.reply_queue_drops", "count", rd(func(s rsm.Stats) uint64 { return s.ReplyQueueDrops }))
	leased := rd(func(s rsm.Stats) uint64 { return s.LeaseReads })
	res.add("rsm.lease_hit_ratio", "ratio", ratio(leased, leased+rd(func(s rsm.Stats) uint64 { return s.LeaseFallbacks })))
	var hits, misses uint64
	for _, in := range c.insts {
		hits += in.last.rcHits - in.first.rcHits
		misses += in.last.rcMisses - in.first.rcMisses
	}
	// A read-cache lookup either hits (a status snapshot or encoded
	// listing served as cached) or rebuilds the status snapshot.
	cacheHits := rd(func(s rsm.Stats) uint64 { return s.ReadCacheHits })
	res.add("rsm.read_cache_hit_ratio", "ratio", ratio(cacheHits, cacheHits+float64(misses)))
	depth, heap, queued, nq := 0, uint64(0), 0.0, 0
	for _, row := range c.samples {
		for _, s := range row {
			depth = max(depth, s.rsm.ReadQueueDepth)
			heap = max(heap, s.rsm.HeapAllocBytes)
			queued += float64(s.queued)
			nq++
		}
	}
	res.add("rsm.read_queue_depth_max", "count", float64(depth))
	res.add("rsm.ckpt_ms", "ms", rmax(func(s rsm.Stats) uint64 { return s.CkptLastDurationNs })/1e6)
	res.add("rsm.ckpt_bytes", "B", rmax(func(s rsm.Stats) uint64 { return s.CkptBytes }))
	res.add("rsm.ckpt_failures", "count", rd(func(s rsm.Stats) uint64 { return s.CheckpointFailures }))
	var rs rsm.Stats
	if c.restarted != nil {
		rs = c.restarted.last.rsm
	}
	res.add("rsm.transfer_delta", "count", float64(rs.TransferInDelta))
	res.add("rsm.transfer_hybrid", "count", float64(rs.TransferInHybrid))
	res.add("rsm.transfer_full", "count", float64(rs.TransferInFull))
	res.add("rsm.transfer_bytes", "B", float64(rs.TransferInBytes))
	res.add("rsm.recovery_replayed", "count", float64(rs.RecoveryReplayed))
	// Head 1 lives through every workload; its memory counters are
	// process-wide.
	ref := c.current[1]
	res.add("rsm.allocs_per_cmd", "allocs/cmd", ref.last.rsm.AllocsPerCmd)
	res.add("rsm.gc_pause_ms", "ms", float64(ref.last.rsm.GCPauseNs-ref.first.rsm.GCPauseNs)/1e6)

	fsyncs := rd(func(s rsm.Stats) uint64 { return s.WALFsyncs })
	res.add("wal.fsyncs_per_mutation", "ratio", fsyncs/heads/mut)
	res.add("wal.appends_per_fsync", "ratio", ratio(rd(func(s rsm.Stats) uint64 { return s.WALAppends }), fsyncs))
	res.add("wal.bytes_per_mutation", "B", rd(func(s rsm.Stats) uint64 { return s.WALBytes })/heads/mut)

	res.add("gcs.msgs_per_batch", "ratio", ratio(gd(func(s gcs.Stats) uint64 { return s.Sequenced }), gd(func(s gcs.Stats) uint64 { return s.BatchesSent })))
	res.add("gcs.acks_coalesced_per_op", "ratio", gd(func(s gcs.Stats) uint64 { return s.AcksCoalesced })/ops)
	res.add("gcs.retransmits", "count", gd(func(s gcs.Stats) uint64 { return s.Retransmits }))
	res.add("gcs.nacks", "count", gd(func(s gcs.Stats) uint64 { return s.NacksSent }))
	res.add("gcs.view_change_ms", "ms", ms(c.viewChange))
	res.add("gcs.flush_attempts", "count", gd(func(s gcs.Stats) uint64 { return s.FlushAttempts }))

	n0, n1 := c.net[0], c.net[len(c.net)-1]
	res.add("simnet.datagrams_per_op", "dgram/op", float64(n1.Sent-n0.Sent)/ops)
	res.add("simnet.bytes_per_op", "B/op", float64(n1.Bytes-n0.Bytes)/ops)
	res.add("simnet.dropped_full", "count", float64(n1.DroppedFull-n0.DroppedFull))

	res.add("pbs.status_rebuild_ratio", "ratio", ratio(float64(misses), float64(hits+misses)))
	res.add("pbs.queue_depth", "jobs", ratio(queued, float64(nq)))
	res.add("pbs.submit_us", "us", p.probe.submitUS)
	res.add("pbs.statusall_us", "us", p.probe.statusAllUS)
	res.add("pbs.snapshot_ms", "ms", p.probe.snapshotMS)
	res.add("pbs.executions_per_job", "ratio", p.execPerJob)

	res.add("cluster.restart_ms", "ms", ms(c.restartCall))
	res.add("cluster.catchup_ms", "ms", ms(c.catchup))
	res.add("proc.cpu_util", "ratio", p.cpu.Seconds()/(p.lr.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))))
	res.add("proc.heap_mb", "MiB", float64(heap)/(1<<20))
	res.add("load.late_p99_ms", "ms", pct(p.lr.late, 0.99))
	res.add("load.late_max_ms", "ms", pct(p.lr.late, 1))
}

// pbsProbe times the batch service alone: a standalone pbs.Server
// preloaded with generated requests to the workload's queue depth (its
// preload, or the closed loop's window).
type pbsProbe struct {
	submitUS, statusAllUS, snapshotMS float64
}

func runPBSProbe(w *workload, seed int64) pbsProbe {
	nodes := make([]string, w.computes)
	for k := range nodes {
		nodes[k] = fmt.Sprintf("compute%d", k)
	}
	srv := pbs.NewServer(pbs.Config{ServerName: "cluster", Nodes: nodes})
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < max(w.preloadHeld, w.slots); k++ {
		_, _ = srv.Submit(heldRequest(rng)) // a held request always validates
	}
	const rounds = 200
	var sub, all []time.Duration
	for k := 0; k < rounds; k++ {
		t := time.Now()
		j, err := srv.Submit(heldRequest(rng))
		sub = append(sub, time.Since(t))
		if err == nil {
			_, _ = srv.Delete(j.ID) // the job was just created
		}
		if k%4 == 0 {
			// The mutations above invalidated the status snapshot, so
			// this call rebuilds it.
			t = time.Now()
			srv.StatusAll()
			all = append(all, time.Since(t))
		}
	}
	var snap []time.Duration
	for k := 0; k < 5; k++ {
		t := time.Now()
		srv.Snapshot()
		snap = append(snap, time.Since(t))
	}
	return pbsProbe{
		submitUS:    pct(sub, 0.5) * 1000,
		statusAllUS: pct(all, 0.5) * 1000,
		snapshotMS:  pct(snap, 0.5),
	}
}
