package bench

import (
	"fmt"
	"strings"
	"time"

	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
	"joshua/internal/wal"
)

// This file measures the pipelined apply path (DESIGN.md §6.5): the
// engine overlapping one round's WAL fsync with execution and applying
// commands on distinct conflict keys in parallel. The workload is the
// generic kvstore service rather than the batch system because every
// qsub enters the scheduler and is therefore a global barrier; puts on
// distinct keys are the clean stand-in for the "mixed independent
// jobs" case (job-local holds, signals, status updates) where the
// conflict analysis actually buys parallelism. Store.SetApplyCost
// simulates per-command execution work the way pbs.Config.SubmitDelay
// does for submissions, so the apply stage — not the simulated
// network — dominates and the ablation isolates the pipeline.

// ApplyPipeVariant is one measured pipeline configuration.
type ApplyPipeVariant struct {
	// Name is "serial" (apply-then-blocking-commit, rsm.ApplyOnLoop),
	// "overlap" (fsync overlapped with execution, one apply worker),
	// or "parallel" (fsync overlap plus conflict-aware parallel
	// apply).
	Name string `json:"name"`
	// ApplyConcurrency is the rsm.Config knob the variant ran with.
	ApplyConcurrency int `json:"apply_concurrency"`
	// Elapsed is the wall time for the whole timed workload.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Throughput is completed puts per second.
	Throughput float64 `json:"throughput_ops_per_sec"`
	// SubmitP50 and SubmitP99 are client-observed per-put latency
	// percentiles.
	SubmitP50 time.Duration `json:"submit_p50_ns"`
	SubmitP99 time.Duration `json:"submit_p99_ns"`
	// ParallelRuns and Barriers are the engine's conflict-analysis
	// counters summed over both replicas.
	ParallelRuns uint64 `json:"apply_parallel_runs"`
	Barriers     uint64 `json:"apply_barriers"`
	// FsyncOverlap is the total execution time the engine hid behind
	// in-flight fsyncs, summed over both replicas.
	FsyncOverlap time.Duration `json:"fsync_overlap_ns"`
	// DurabilityLagMax is the worst case a finished round waited for
	// its fsync, maximized over both replicas.
	DurabilityLagMax time.Duration `json:"durability_lag_max_ns"`
}

// ApplyPipeResult is the full apply-pipeline ablation.
type ApplyPipeResult struct {
	Ops       int                `json:"ops"`
	Clients   int                `json:"clients"`
	ApplyCost time.Duration      `json:"apply_cost_ns"`
	Variants  []ApplyPipeVariant `json:"variants"`
	// SpeedupParallelVsSerial is parallel throughput over serial
	// throughput — the acceptance metric (≥1.5x).
	SpeedupParallelVsSerial float64 `json:"speedup_parallel_vs_serial"`
	// P99RatioParallelVsSerial is parallel submit p99 over serial
	// submit p99 (≤1.0 means latency did not regress).
	P99RatioParallelVsSerial float64 `json:"p99_ratio_parallel_vs_serial"`
}

// applyPipeVariants are the three measured configurations, in
// presentation order.
var applyPipeVariants = []struct {
	name string
	conc int
}{
	{"serial", rsm.ApplyOnLoop},
	{"overlap", 1},
	{"parallel", 8},
}

// MeasureApplyPipeline runs the write-path ablation: ops total puts on
// distinct keys from the given number of concurrent clients, against a
// 2-replica group with SyncPolicy=always and the given simulated
// per-command apply cost, once per pipeline variant.
func MeasureApplyPipeline(ops, clients int, applyCost time.Duration) (ApplyPipeResult, error) {
	if clients <= 0 {
		clients = 8
	}
	if ops < clients {
		ops = clients
	}
	res := ApplyPipeResult{Ops: ops, Clients: clients, ApplyCost: applyCost}
	for _, v := range applyPipeVariants {
		variant, err := measureApplyPipeVariant(v.name, v.conc, ops, clients, applyCost)
		if err != nil {
			return res, fmt.Errorf("bench: applypipe %s: %w", v.name, err)
		}
		res.Variants = append(res.Variants, variant)
	}
	serial, parallel := res.Variants[0], res.Variants[2]
	if serial.Throughput > 0 {
		res.SpeedupParallelVsSerial = parallel.Throughput / serial.Throughput
	}
	if serial.SubmitP99 > 0 {
		res.P99RatioParallelVsSerial = float64(parallel.SubmitP99) / float64(serial.SubmitP99)
	}
	return res, nil
}

// measureApplyPipeVariant boots a fresh durable 2-replica kvstore
// group and drives the timed workload through it.
func measureApplyPipeVariant(name string, conc, ops, clients int, applyCost time.Duration) (ApplyPipeVariant, error) {
	v := ApplyPipeVariant{Name: name, ApplyConcurrency: conc}
	r, err := newKVRig(rigConfig{
		members: 2,
		latency: time.Millisecond,
		mutate: func(c *rsm.Config) {
			c.SyncPolicy = wal.SyncAlways
			c.ApplyConcurrency = conc
		},
		store: func(s *kvstore.Store) { s.SetApplyCost(applyCost) },
	})
	if err != nil {
		return v, err
	}
	defer r.close()

	// Every client puts its own key space: each command is independent
	// of every concurrent command, the regime the conflict analysis
	// targets.
	kvs, err := r.clients(clients, func(int) []int { return []int{0, 1} })
	if err != nil {
		return v, err
	}
	if _, err := drive(clients, 2, nil, func(c, i int) error {
		return kvs[c].Put(fmt.Sprintf("warm-c%02d-%d", c, i), "v")
	}); err != nil {
		return v, err
	}
	d, err := drive(clients, ops/clients, nil, func(c, i int) error {
		return kvs[c].Put(fmt.Sprintf("c%02d-k%03d", c, i), "v")
	})
	if err != nil {
		return v, err
	}
	v.Elapsed, v.Throughput = d.elapsed, d.perSec()
	lat := summarize(d.lats)
	v.SubmitP50, v.SubmitP99 = lat.p50, lat.p99
	for _, st := range r.stats() {
		v.ParallelRuns += st.ApplyParallelRuns
		v.Barriers += st.ApplyBarriers
		v.FsyncOverlap += time.Duration(st.FsyncOverlapNs)
		v.DurabilityLagMax = max(v.DurabilityLagMax, time.Duration(st.DurabilityLagMax))
	}
	return v, nil
}

// FormatApplyPipe renders the ablation for the terminal.
func FormatApplyPipe(res ApplyPipeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipelined apply path (SyncPolicy=always, %d clients, independent keys):\n", res.Clients)
	for _, v := range res.Variants {
		fmt.Fprintf(&b, "  %-10s %7.0f ops/s   p50 %-9v p99 %-9v (runs=%d barriers=%d overlap=%v)\n",
			v.Name+":", v.Throughput,
			v.SubmitP50.Round(time.Millisecond/10), v.SubmitP99.Round(time.Millisecond/10),
			v.ParallelRuns, v.Barriers, v.FsyncOverlap.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "  speedup: %.1fx throughput vs serial, p99 ratio %.2f\n",
		res.SpeedupParallelVsSerial, res.P99RatioParallelVsSerial)
	return b.String()
}
