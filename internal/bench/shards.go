package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"joshua/internal/cluster"
	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
)

// This file measures sharded replication groups (DESIGN.md §6.6):
// partitioning the job space across N independent rsm groups so
// aggregate submit throughput scales with the shard count. Within one
// group every qsub is a global barrier (it enters the scheduler), so
// submissions serialize through the batch service's per-command
// processing cost no matter how many clients submit; shards multiply
// the number of such pipelines. The workload is hold submissions from
// several concurrent clients — each client's submissions round-robin
// across shards, so all shards stay fed — on an instant network with
// a nonzero SubmitDelay, isolating the per-group serialization that
// sharding attacks rather than simulated wire time.

// ShardVariant is one measured shard count.
type ShardVariant struct {
	// Shards is the number of independent replication groups.
	Shards int `json:"shards"`
	// Heads is the group size of each shard.
	Heads int `json:"heads_per_shard"`
	// Elapsed is the wall time to complete the whole timed workload.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Throughput is acknowledged submissions per second, aggregated
	// across shards.
	Throughput float64 `json:"throughput_jobs_per_sec"`
	// SubmitP50 and SubmitP99 are client-observed per-submission
	// latency percentiles.
	SubmitP50 time.Duration `json:"submit_p50_ns"`
	SubmitP99 time.Duration `json:"submit_p99_ns"`
	// Listed is the job count a post-run scatter-gather jstat
	// returned; it must equal the acknowledged submissions (the
	// merge drops nothing).
	Listed int `json:"listed_jobs"`
	// Speedup is this variant's throughput over the 1-shard baseline.
	Speedup float64 `json:"speedup_vs_one_shard"`
}

// ShardResult is the full shard-scaling sweep.
type ShardResult struct {
	Ops         int            `json:"ops"`
	Clients     int            `json:"clients"`
	SubmitDelay time.Duration  `json:"submit_delay_ns"`
	Variants    []ShardVariant `json:"variants"`
	// SpeedupAt4 is the 4-shard aggregate throughput over the 1-shard
	// baseline — the acceptance metric (≥3x).
	SpeedupAt4 float64 `json:"speedup_at_4_shards"`
}

// shardCounts is the measured sweep.
var shardCounts = []int{1, 2, 4, 8}

// MeasureShardScaling runs the sweep: ops hold-submissions from the
// given number of concurrent clients against 1/2/4/8-shard clusters
// (two heads per shard), measuring aggregate acknowledged-submission
// throughput and verifying the scatter-gather listing covers every
// acknowledged job.
func MeasureShardScaling(ops, clients int, submitDelay time.Duration) (ShardResult, error) {
	if clients <= 0 {
		clients = 8
	}
	if ops < clients {
		ops = clients
	}
	if submitDelay <= 0 {
		submitDelay = time.Millisecond
	}
	res := ShardResult{Ops: ops, Clients: clients, SubmitDelay: submitDelay}
	for _, s := range shardCounts {
		v, err := measureShardVariant(s, ops, clients, submitDelay)
		if err != nil {
			return res, fmt.Errorf("bench: shards=%d: %w", s, err)
		}
		res.Variants = append(res.Variants, v)
	}
	base := res.Variants[0].Throughput
	for i := range res.Variants {
		if base > 0 {
			res.Variants[i].Speedup = res.Variants[i].Throughput / base
		}
		if res.Variants[i].Shards == 4 {
			res.SpeedupAt4 = res.Variants[i].Speedup
		}
	}
	return res, nil
}

// measureShardVariant boots one sharded cluster and drives the timed
// workload through it.
func measureShardVariant(shards, ops, clients int, submitDelay time.Duration) (ShardVariant, error) {
	const headsPerShard = 2
	v := ShardVariant{Shards: shards, Heads: headsPerShard}

	sys, err := startSystem(cluster.Options{
		Heads:       headsPerShard,
		Shards:      shards,
		Computes:    8, // >= the largest sweep point: every shard owns a node
		Exclusive:   true,
		SubmitDelay: submitDelay,
		TuneGCS: func(g *gcs.Config) {
			g.Heartbeat = 25 * time.Millisecond
			g.FailTimeout = 500 * time.Millisecond
		},
	})
	if err != nil {
		return v, err
	}
	defer sys.Close()
	c := sys.Cluster

	clis := make([]*joshua.Client, clients)
	for i := range clis {
		if clis[i], err = c.Client(); err != nil {
			return v, err
		}
	}
	submit := func(c, _ int) error { return holdSubmit(clis[c]) }
	if _, err := drive(clients, 2, nil, submit); err != nil {
		return v, err
	}
	perClient := ops / clients
	d, err := drive(clients, perClient, nil, submit)
	if err != nil {
		return v, err
	}
	v.Elapsed, v.Throughput = d.elapsed, d.perSec()
	lat := summarize(d.lats)
	v.SubmitP50, v.SubmitP99 = lat.p50, lat.p99

	// Every acknowledged submission must appear in the merged
	// whole-cluster listing — the scatter-gather invariant — and every
	// shard's replicas must agree. Both are local reads, and a head
	// may still trail the last acks by a few commands: wait for it.
	acked := clients*2 + clients*perClient // warmup + timed
	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs, err := clis[0].StatAll()
		if err != nil {
			return v, err
		}
		v.Listed = len(jobs)
		err = verifyShardReplicas(c)
		if err == nil && v.Listed != acked {
			err = fmt.Errorf("scatter-gather listing has %d jobs, %d were acknowledged", v.Listed, acked)
		}
		if err == nil || time.Now().After(deadline) {
			return v, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verifyShardReplicas checks that within every shard the replicas'
// job tables are byte-identical (the wire encoding of each head's
// full listing compares equal) — sharding must not weaken per-group
// determinism.
func verifyShardReplicas(c *cluster.Cluster) error {
	for s := 0; s < c.Shards(); s++ {
		var ref []byte
		refHead := -1
		for _, i := range c.LiveHeadsOf(s) {
			enc := encodeJobTable(c.HeadOf(s, i).Daemon().StatusAll())
			if ref == nil {
				ref, refHead = enc, i
				continue
			}
			if !bytes.Equal(enc, ref) {
				return fmt.Errorf("shard %d: head %d's job table is not byte-identical to head %d's", s, i, refHead)
			}
		}
	}
	return nil
}

// encodeJobTable renders a job listing in the wire encoding, the
// byte-identity witness for replica agreement. Lifecycle timestamps
// are zeroed first: each head stamps them from its own wall clock
// (pbs.Config.Clock), so they are local metadata, not replicated
// state.
func encodeJobTable(jobs []pbs.Job) []byte {
	e := codec.NewEncoder(256)
	for _, j := range jobs {
		j.SubmittedAt, j.StartedAt, j.CompletedAt = time.Time{}, time.Time{}, time.Time{}
		pbs.EncodeJob(e, j)
	}
	return e.Bytes()
}

// FormatShards renders the sweep for the terminal.
func FormatShards(res ShardResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded replication groups (aggregate submit throughput, %d clients, %d heads/shard):\n",
		res.Clients, res.Variants[0].Heads)
	for _, v := range res.Variants {
		fmt.Fprintf(&b, "  %d shard(s): %7.0f jobs/s   p50 %-9v p99 %-9v speedup %.1fx (%d jobs listed)\n",
			v.Shards, v.Throughput,
			v.SubmitP50.Round(time.Millisecond/10), v.SubmitP99.Round(time.Millisecond/10),
			v.Speedup, v.Listed)
	}
	fmt.Fprintf(&b, "  speedup at 4 shards: %.1fx vs single group\n", res.SpeedupAt4)
	return b.String()
}
