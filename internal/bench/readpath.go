package bench

import (
	"fmt"
	"strings"
	"time"

	"joshua/internal/joshua"
	"joshua/internal/rsm"
)

// This file measures the concurrent read path: jstat-class queries
// served off the replication event loop by a read-worker pool, against
// the on-loop ablation (rsm.ReadOnLoop) where every query waits behind
// command application. The workload is the paper's operational mix — a
// stream of job submissions with many jstat pollers watching the queue
// — and the interesting quantity is what polling costs the write path
// and what the write path costs the pollers.

// MixedReadResult is one measured run of the mixed read/write
// workload.
type MixedReadResult struct {
	// Variant names the configuration ("concurrent" or "on-loop").
	Variant string `json:"variant"`
	// Pollers is how many jstat clients polled throughout.
	Pollers int `json:"pollers"`
	// Batches and BatchSize describe the submit stream: Batches
	// batched submissions of BatchSize jobs each.
	Batches   int `json:"batches"`
	BatchSize int `json:"batch_size"`
	// Reads is how many listings the pollers completed while the
	// submit stream ran.
	Reads int64 `json:"reads"`
	// ReadsPerSec is the aggregate poller throughput.
	ReadsPerSec float64 `json:"reads_per_sec"`
	// ReadMean is the mean per-listing latency seen by a poller.
	ReadMean time.Duration `json:"read_mean_ns"`
	// SubmitMean is the mean per-batch submission latency with the
	// pollers running — the read path's cost to the write path.
	SubmitMean time.Duration `json:"submit_mean_ns"`
}

// MeasureMixedReads runs the mixed workload once: pollers issue
// back-to-back StatAll queries while a separate client submits
// `batches` batched submissions of `batchSize` held jobs, and both
// sides are timed over the submission window. Batched submission is
// the paper's own throughput remedy, and it is the worst case for
// on-loop queries: applying one batch occupies the event loop for
// batchSize qsub-processing intervals, during which an on-loop jstat
// cannot be answered at all. readConcurrency forwards to the heads
// (0 = engine default pool, rsm.ReadOnLoop = on-loop ablation).
func MeasureMixedReads(cal Calibration, heads, pollers, batches, batchSize, readConcurrency int) (MixedReadResult, error) {
	res := MixedReadResult{Pollers: pollers, Batches: batches, BatchSize: batchSize, Variant: "concurrent"}
	if readConcurrency == rsm.ReadOnLoop {
		res.Variant = "on-loop"
	}

	opts := cal.options(heads, false, func(c *rsm.Config) { c.ReadConcurrency = readConcurrency })
	sys, err := startSystem(opts)
	if err != nil {
		return res, err
	}
	defer sys.Close()
	pollClients := make([]*joshua.Client, pollers)
	for p := range pollClients {
		if pollClients[p], err = sys.Cluster.ClientFor(sys.Cluster.LiveHeads()...); err != nil {
			return res, err
		}
	}

	// Seed one job so every listing carries real payload, and warm the
	// submission path.
	if err := holdSubmit(sys.Client); err != nil {
		return res, err
	}

	var submitting time.Duration
	d, err := drive(pollers, 0, func() error {
		start := time.Now()
		for i := 0; i < batches; i++ {
			if err := batchSubmit(sys.Client, batchSize); err != nil {
				return err
			}
		}
		submitting = time.Since(start)
		return nil
	}, func(p, _ int) error {
		_, err := pollClients[p].StatAll()
		return err
	})
	if err != nil {
		return res, err
	}
	res.Reads = int64(d.ops)
	res.ReadsPerSec = d.perSec()
	if d.ops > 0 {
		res.ReadMean = d.elapsed * time.Duration(pollers) / time.Duration(d.ops)
	}
	res.SubmitMean = submitting / time.Duration(batches)
	return res, nil
}

// AblationReadConcurrency runs the mixed workload under the default
// read-worker pool and under the on-loop ablation, on identical
// clusters. The concurrent path should multiply poller throughput —
// on-loop, every listing waits behind qsub processing inside command
// application — without costing the submit stream.
func AblationReadConcurrency(cal Calibration, heads, pollers, batches, batchSize int) (concurrent, onLoop MixedReadResult, err error) {
	concurrent, err = MeasureMixedReads(cal, heads, pollers, batches, batchSize, 0)
	if err != nil {
		return concurrent, onLoop, err
	}
	onLoop, err = MeasureMixedReads(cal, heads, pollers, batches, batchSize, rsm.ReadOnLoop)
	return concurrent, onLoop, err
}

// ReadPathResult is the read-path figure: the mixed workload under
// the read-worker pool and under the on-loop ablation.
type ReadPathResult struct {
	Concurrent MixedReadResult `json:"concurrent"`
	OnLoop     MixedReadResult `json:"on_loop"`
}

// FormatReadPath renders the figure for the terminal.
func FormatReadPath(res ReadPathResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent read path (%d jstat pollers vs a batched submit stream):\n", res.Concurrent.Pollers)
	for _, r := range []MixedReadResult{res.Concurrent, res.OnLoop} {
		fmt.Fprintf(&b, "  %-12s %6.0f reads/s   read mean %-10v batch mean %v\n",
			r.Variant+":", r.ReadsPerSec, r.ReadMean.Round(time.Millisecond/10), r.SubmitMean.Round(time.Millisecond/10))
	}
	if res.OnLoop.ReadsPerSec > 0 {
		fmt.Fprintf(&b, "  speedup: %.1fx read throughput\n", res.Concurrent.ReadsPerSec/res.OnLoop.ReadsPerSec)
	}
	return b.String()
}
