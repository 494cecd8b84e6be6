package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"joshua/internal/rsm"
)

// This file is the 10k-client scaling profile of the replicated write
// path (DESIGN.md §6.8): thousands of concurrent clients, each
// submitting independent mutations through the full chain — client
// encode → intercept → total-order broadcast → WAL stage → conflict-
// keyed apply → dedup insert → FIFO release → reply. The workload is
// the generic kvstore service for the same reason as the apply-
// pipeline figure: puts on distinct keys isolate the engine, not the
// scheduler. Alongside throughput and client-observed latency the
// figure reports process-wide allocation pressure (runtime.MemStats
// deltas across the timed run), because at this concurrency the
// replica-side per-command garbage — multiplied by the replica count —
// is the throughput ceiling the zero-alloc write path attacks.

// WritePathResult is one full 10k-client write-path run.
type WritePathResult struct {
	Clients          int `json:"clients"`
	OpsPerClient     int `json:"ops_per_client"`
	Ops              int `json:"ops"`
	Heads            int `json:"heads"`
	ApplyConcurrency int `json:"apply_concurrency"`
	// Elapsed is the wall time of the timed phase; Throughput is
	// completed puts per second across all clients.
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"throughput_ops_per_sec"`
	// Client-observed per-put latency percentiles.
	SubmitP50 time.Duration `json:"submit_p50_ns"`
	SubmitP99 time.Duration `json:"submit_p99_ns"`
	// Process-wide allocation pressure over the timed phase
	// (runtime.MemStats deltas). AllocsPerOp counts every malloc in
	// the process — clients, simulated network, and both replicas —
	// divided by completed ops: an upper bound on the engine's own
	// per-command garbage, comparable across runs of this same figure.
	AllocsPerOp    float64       `json:"allocs_per_op"`
	BytesPerOp     float64       `json:"bytes_per_op"`
	GCPauseTotal   time.Duration `json:"gc_pause_total_ns"`
	NumGC          uint32        `json:"num_gc"`
	HeapAllocBytes uint64        `json:"heap_alloc_bytes"`
	// Engine-side accounting summed over heads.
	Applied         uint64 `json:"applied"`
	ReplyQueueDrops uint64 `json:"reply_queue_drops"`
}

// MeasureWritePath drives clients concurrent kvstore clients, each
// issuing opsPerClient puts on its own key space, against a durable
// 2-head group over simnet — the full submit→apply→reply chain at
// scale. A one-put-per-client warmup precedes the timed phase so pool
// and cache warm-up stays out of the measurement.
func MeasureWritePath(clients, opsPerClient, heads int) (WritePathResult, error) {
	if clients <= 0 {
		clients = 10000
	}
	if opsPerClient <= 0 {
		opsPerClient = 3
	}
	if heads <= 0 {
		heads = 2
	}
	res := WritePathResult{
		Clients:          clients,
		OpsPerClient:     opsPerClient,
		Ops:              clients * opsPerClient,
		Heads:            heads,
		ApplyConcurrency: runtime.GOMAXPROCS(0),
	}

	// Asymmetric receive queues: a head must absorb the whole fleet's
	// burst (a drop turns into a client retry timeout that measures
	// the queue, not the write path), while each client sees a
	// handful of outstanding replies — so heads get deep queues
	// explicitly and everyone else stays at a shallow default.
	r, err := newKVRig(rigConfig{
		members:   heads,
		latency:   time.Millisecond,
		queueLen:  32,
		headQueue: 1 << 16,
		mutate:    func(c *rsm.Config) { c.ReplyQueueLen = 1 << 15 },
	})
	if err != nil {
		return res, err
	}
	defer r.close()
	kvs, err := r.clients(clients, func(c int) []int { return []int{c % heads} })
	if err != nil {
		return res, err
	}
	put := func(tag string) func(c, i int) error {
		return func(c, i int) error { return kvs[c].Put(fmt.Sprintf("%s-c%05d-k%02d", tag, c, i), "v") }
	}
	if _, err := drive(clients, 1, nil, put("warm")); err != nil {
		return res, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := drive(clients, opsPerClient, nil, put("op"))
	if err != nil {
		return res, err
	}
	runtime.ReadMemStats(&after)

	res.Elapsed, res.Throughput = d.elapsed, d.perSec()
	lat := summarize(d.lats)
	res.SubmitP50, res.SubmitP99 = lat.p50, lat.p99
	res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(res.Ops)
	res.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Ops)
	res.GCPauseTotal = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	res.NumGC = after.NumGC - before.NumGC
	res.HeapAllocBytes = after.HeapAlloc
	for _, st := range r.stats() {
		res.Applied += st.Applied
		res.ReplyQueueDrops += st.ReplyQueueDrops
	}
	return res, nil
}

// FormatWritePath renders the profile for the terminal.
func FormatWritePath(res WritePathResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Zero-alloc write path (%d clients x %d puts, %d heads, durable):\n",
		res.Clients, res.OpsPerClient, res.Heads)
	fmt.Fprintf(&b, "  throughput: %8.0f ops/s   p50 %-9v p99 %v\n",
		res.Throughput, res.SubmitP50.Round(time.Millisecond), res.SubmitP99.Round(time.Millisecond))
	fmt.Fprintf(&b, "  allocs/op:  %8.1f         bytes/op %.0f (process-wide: clients+net+%d replicas)\n",
		res.AllocsPerOp, res.BytesPerOp, res.Heads)
	fmt.Fprintf(&b, "  GC: %d cycles, %v paused   heap %0.1f MB   applied %d   reply drops %d\n",
		res.NumGC, res.GCPauseTotal.Round(time.Millisecond/10),
		float64(res.HeapAllocBytes)/(1<<20), res.Applied, res.ReplyQueueDrops)
	return b.String()
}
