package bench

import (
	"fmt"
	"runtime"
	"time"

	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
)

// This file measures what checkpointing costs the submission path
// (DESIGN.md §6.10): with a fat replicated state, serializing and
// fsyncing a checkpoint on the event loop stalls every command that
// arrives during the write, visible as a multi-millisecond p99.9
// spike at each checkpoint boundary. The off-loop path forks a
// copy-on-write image on the loop (map copies, no serialization) and
// lets a background goroutine do the encode+CRC+fsync, so the
// boundary disappears from the tail. The same fork powers the donor
// side of join-time state transfer, measured here as time-to-ready
// for a joiner while the donor keeps taking writes.

// CheckpointVariant is one checkpoint-policy run of the tail-latency
// figure.
type CheckpointVariant struct {
	// Name is "off-loop" (forked background checkpoints, the default),
	// "blocking" (serialize+fsync on the event loop, the pre-fork
	// ablation), or "none" (checkpoints disabled, the floor).
	Name string `json:"name"`
	// Client-observed put latency percentiles across a run that
	// crosses many checkpoint boundaries.
	SubmitP50  time.Duration `json:"submit_p50_ns"`
	SubmitP99  time.Duration `json:"submit_p99_ns"`
	SubmitP999 time.Duration `json:"submit_p999_ns"`
	SubmitMax  time.Duration `json:"submit_max_ns"`
	// Checkpoint accounting after the run.
	CheckpointIndex uint64 `json:"checkpoint_index"`
	CkptBytes       uint64 `json:"ckpt_bytes"`
	CkptLastNs      uint64 `json:"ckpt_last_duration_ns"`
	CkptFailures    uint64 `json:"ckpt_failures"`
}

// RecoveryPoint is one cadence of the recovery-time sweep.
type RecoveryPoint struct {
	CheckpointEvery uint64        `json:"checkpoint_every"`
	RestartTime     time.Duration `json:"restart_time_ns"`
	Replayed        uint64        `json:"recovery_replayed"`
}

// JoinVariant is one donor-policy run of the join-while-loaded figure.
type JoinVariant struct {
	// Name is "forked" (background checkpoints) or "blocking"
	// (checkpoints written on the event loop). Either donor serves the
	// join off the loop: checkpoint image + WAL suffix streamed by a
	// background goroutine.
	Name string `json:"name"`
	// Joins is how many fresh-rig joins the figure pooled; JoinTime is
	// their median time to Ready.
	Joins    int           `json:"joins"`
	JoinTime time.Duration `json:"join_time_ns"`
	// Donor-observed put latency while the joins were in flight, over
	// DonorSamples puts from donorClients concurrent callers.
	DonorSamples int           `json:"donor_samples"`
	DonorP99     time.Duration `json:"donor_p99_ns"`
	DonorMax     time.Duration `json:"donor_max_ns"`
	// Transfer accounting, summed over the joins.
	OutHybrid uint64 `json:"transfer_out_hybrid"`
	OutFull   uint64 `json:"transfer_out_full"`
	InBytes   uint64 `json:"joiner_in_bytes"`
}

// CheckpointResult is the complete checkpoint/state-transfer figure.
type CheckpointResult struct {
	PreloadKeys     int                 `json:"preload_keys"`
	ValueBytes      int                 `json:"value_bytes"`
	Samples         int                 `json:"samples"`
	CheckpointEvery uint64              `json:"checkpoint_every"`
	Variants        []CheckpointVariant `json:"variants"`
	// StallRatio is off-loop p99.9 over no-checkpoint p99.9 — the
	// acceptance gate: near 1.0 when forked checkpoints leave the tail
	// alone, while the blocking ablation shows the multi-ms boundary.
	StallRatio float64         `json:"stall_ratio_offloop_vs_none"`
	Recovery   []RecoveryPoint `json:"recovery_sweep"`
	Join       []JoinVariant   `json:"join_while_loaded"`
}

// The join-while-loaded donor sample: donorClients callers put
// concurrently for as long as a join runs, and the join is repeated
// on a fresh rig (at most maxJoins times) until the donor has taken
// minDonorSamples puts, so that at least 10 lie beyond the p99 and it
// is not simply the slowest put. Puts stall through the join's view
// change, so one join yields only a few hundred.
const (
	donorClients    = 32
	minDonorSamples = 1000
	maxJoins        = 16
)

// ckptRig boots a durable kvstore group with one spare slot for a
// joiner and returns it with a client pinned to replica 0.
func ckptRig(members int, mutate func(*rsm.Config)) (*kvRig, *kvstore.Client, error) {
	r, err := newKVRig(rigConfig{
		members:   members,
		spares:    1,
		latency:   200 * time.Microsecond,
		headQueue: 1 << 14,
		mutate:    mutate,
	})
	if err != nil {
		return nil, nil, err
	}
	clis, err := r.clients(1, func(int) []int { return []int{0} })
	if err != nil {
		r.close()
		return nil, nil, err
	}
	return r, clis[0], nil
}

// preload fattens the replicated state: keys values of valBytes each,
// so a full-state serialize is megabytes, not the handful of bytes a
// fresh store would encode.
func preload(cli *kvstore.Client, keys, valBytes int) error {
	val := string(make([]byte, valBytes))
	for i := 0; i < keys; i++ {
		if err := cli.Put(fmt.Sprintf("pre-%06d", i), val); err != nil {
			return fmt.Errorf("preload %d: %w", i, err)
		}
	}
	return nil
}

// hotPut has caller c write one of 256 small hot keys through
// clis[c]: the load whose tail the checkpoint boundaries disturb.
func hotPut(clis []*kvstore.Client, prefix string) func(c, i int) error {
	return func(c, i int) error { return clis[c].Put(fmt.Sprintf("%s-%06d", prefix, i%256), "v") }
}

// MeasureCheckpointStall runs the checkpoint-boundary tail-latency
// figure plus the recovery sweep and the join-while-loaded donor
// comparison.
func MeasureCheckpointStall(preloadKeys, valBytes, samples int) (CheckpointResult, error) {
	if preloadKeys <= 0 {
		preloadKeys = 1500
	}
	if valBytes <= 0 {
		valBytes = 4096
	}
	if samples <= 0 {
		samples = 2000
	}
	// The off-loop checkpointer needs a second processor slot to
	// overlap with the event loop: with GOMAXPROCS=1 the Go scheduler
	// timeslices the two goroutines at ~10ms granularity, which
	// re-serializes the background encode against the loop and every
	// wakeup in a command's multi-hop path pays a full slice. Any real
	// head node has ≥2 cores; on a 1-core CI runner two Ps let the OS
	// interleave the threads finely instead.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}

	const cadence = 64
	res := CheckpointResult{
		PreloadKeys:     preloadKeys,
		ValueBytes:      valBytes,
		Samples:         samples,
		CheckpointEvery: cadence,
	}
	offLoop := func(c *rsm.Config) { c.CheckpointEvery = cadence }
	blocking := func(c *rsm.Config) { c.CheckpointEvery = cadence; c.CheckpointBlocking = true }

	for _, v := range []struct {
		name   string
		mutate func(*rsm.Config)
	}{
		{"off-loop", offLoop},
		{"blocking", blocking},
		{"none", func(c *rsm.Config) { c.CheckpointEvery = 1 << 30 }},
	} {
		cv := CheckpointVariant{Name: v.name}
		if err := func() error {
			r, cli, err := ckptRig(1, v.mutate)
			if err != nil {
				return err
			}
			defer r.close()
			if err := preload(cli, preloadKeys, valBytes); err != nil {
				return err
			}
			d, err := drive(1, samples, nil, hotPut([]*kvstore.Client{cli}, "op"))
			if err != nil {
				return fmt.Errorf("%s put: %w", v.name, err)
			}
			lat := summarize(d.lats)
			cv.SubmitP50, cv.SubmitP99, cv.SubmitP999, cv.SubmitMax = lat.p50, lat.p99, lat.p999, lat.max
			st := r.reps[0].Stats()
			cv.CheckpointIndex = st.CheckpointIndex
			cv.CkptBytes = st.CkptBytes
			cv.CkptLastNs = st.CkptLastDurationNs
			cv.CkptFailures = st.CheckpointFailures
			return nil
		}(); err != nil {
			return res, err
		}
		res.Variants = append(res.Variants, cv)
	}
	if none := res.Variants[2].SubmitP999; none > 0 {
		res.StallRatio = float64(res.Variants[0].SubmitP999) / float64(none)
	}

	// Recovery sweep: the same workload under three cadences, then a
	// cold restart from the data directory, timed to Ready.
	for _, every := range []uint64{16, 128, 1024} {
		pt := RecoveryPoint{CheckpointEvery: every}
		if err := func() error {
			r, cli, err := ckptRig(1, func(c *rsm.Config) { c.CheckpointEvery = every })
			if err != nil {
				return err
			}
			defer r.close()
			if err := preload(cli, 512, valBytes); err != nil {
				return err
			}
			// Let an in-flight background checkpoint settle so each
			// cadence restarts from its own steady state.
			deadline := time.Now().Add(10 * time.Second)
			for r.reps[0].Stats().CkptInflight && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if pt.RestartTime, err = r.restart(0); err != nil {
				return fmt.Errorf("cadence %d: %w", every, err)
			}
			pt.Replayed = r.reps[0].Stats().RecoveryReplayed
			return nil
		}(); err != nil {
			return res, err
		}
		res.Recovery = append(res.Recovery, pt)
	}

	// Join while loaded: a fresh third replica joins a 2-member group
	// whose donor keeps taking writes; both donors stream
	// checkpoint+suffix off-loop, and they differ only in how their
	// own checkpoints are written while the join runs.
	for _, v := range []struct {
		name   string
		mutate func(*rsm.Config)
	}{
		{"forked", offLoop},
		{"blocking", blocking},
	} {
		jv := JoinVariant{Name: v.name}
		var lats, joinTimes []time.Duration
		for jv.Joins < maxJoins && len(lats) < minDonorSamples {
			if err := func() error {
				r, cli, err := ckptRig(2, v.mutate)
				if err != nil {
					return err
				}
				defer r.close()
				if err := preload(cli, preloadKeys, valBytes); err != nil {
					return err
				}
				load, err := r.clients(donorClients, func(int) []int { return []int{0} })
				if err != nil {
					return err
				}
				var joinTime time.Duration
				d, err := drive(donorClients, 0, func() (err error) {
					joinTime, err = r.boot(2, nil)
					return err
				}, hotPut(load, "load"))
				if err != nil {
					return fmt.Errorf("join with %s donor: %w", v.name, err)
				}
				jv.Joins++
				lats = append(lats, d.lats...)
				joinTimes = append(joinTimes, joinTime)
				for _, st := range r.stats()[:2] {
					jv.OutHybrid += st.TransferOutHybrid
					jv.OutFull += st.TransferOutFull
				}
				jv.InBytes += r.reps[2].Stats().TransferInBytes
				return nil
			}(); err != nil {
				return res, err
			}
		}
		if len(lats) < minDonorSamples {
			return res, fmt.Errorf("join with %s donor: %d puts over %d joins, need %d for a p99",
				v.name, len(lats), jv.Joins, minDonorSamples)
		}
		lat := summarize(lats)
		jv.DonorSamples, jv.DonorP99, jv.DonorMax = len(lats), lat.p99, lat.max
		jv.JoinTime = summarize(joinTimes).p50
		res.Join = append(res.Join, jv)
	}
	return res, nil
}

// FormatCheckpoint renders the figure for the terminal.
func FormatCheckpoint(res CheckpointResult) string {
	s := fmt.Sprintf("Checkpoint boundary tail latency (%d keys x %dB state, cadence %d, %d samples):\n",
		res.PreloadKeys, res.ValueBytes, res.CheckpointEvery, res.Samples)
	for _, v := range res.Variants {
		extra := ""
		if v.CheckpointIndex > 0 {
			extra = fmt.Sprintf("   (ckpt@%d, %d KB, last %v, %d failures)",
				v.CheckpointIndex, v.CkptBytes/1024,
				time.Duration(v.CkptLastNs).Round(time.Millisecond/10), v.CkptFailures)
		}
		s += fmt.Sprintf("  %-10s p50 %-9v p99 %-9v p99.9 %-9v max %-9v%s\n",
			v.Name+":",
			v.SubmitP50.Round(time.Millisecond/100), v.SubmitP99.Round(time.Millisecond/100),
			v.SubmitP999.Round(time.Millisecond/100), v.SubmitMax.Round(time.Millisecond/100), extra)
	}
	s += fmt.Sprintf("  p99.9 ratio off-loop vs none: %.2fx\n", res.StallRatio)
	s += "Recovery time vs checkpoint cadence (512 fat commands, cold restart):\n"
	for _, pt := range res.Recovery {
		s += fmt.Sprintf("  every %-6d restart %-10v replayed %d\n",
			pt.CheckpointEvery, pt.RestartTime.Round(time.Millisecond), pt.Replayed)
	}
	s += "Join while loaded (fresh joiner, donor under continuous writes):\n"
	for _, jv := range res.Join {
		s += fmt.Sprintf("  %-10s join p50 %-10v donor p99 %-9v max %-9v over %d puts in %d joins (hybrid=%d full=%d, %d KB in)\n",
			jv.Name+":", jv.JoinTime.Round(time.Millisecond),
			jv.DonorP99.Round(time.Millisecond/100), jv.DonorMax.Round(time.Millisecond/100),
			jv.DonorSamples, jv.Joins, jv.OutHybrid, jv.OutFull, jv.InBytes/1024)
	}
	return s
}
