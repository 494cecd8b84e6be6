package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"joshua/internal/cluster"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// This file measures the design-choice ablations DESIGN.md calls out.

var errTimeout = errors.New("bench: workload did not complete in time")

// AblationResult is one compared pair of configurations.
type AblationResult struct {
	Name     string
	Variants map[string]time.Duration
}

// pair measures each named variant in turn.
func pair(name string, variants []string, measure func(i int) (time.Duration, error)) (AblationResult, error) {
	res := AblationResult{Name: name, Variants: map[string]time.Duration{}}
	for i, v := range variants {
		d, err := measure(i)
		if err != nil {
			return res, err
		}
		res.Variants[v] = d
	}
	return res, nil
}

// latencyOf boots a JOSHUA group and returns its mean submission
// latency.
func latencyOf(cal Calibration, heads, samples int) (time.Duration, error) {
	sys, err := StartSystem(cal, heads, false)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	return MeasureLatency(sys.Client, samples)
}

// AblationSafeDelivery compares submission latency under safe
// delivery (deliver after every member acknowledged receipt — the
// calibrated default, closing the amnesia window) against agreed
// delivery (deliver on sequencer order alone).
func AblationSafeDelivery(cal Calibration, heads, samples int) (AblationResult, error) {
	return pair("delivery guarantee", []string{"safe", "agreed"}, func(i int) (time.Duration, error) {
		c := cal
		c.Agreed = i == 1
		return latencyOf(c, heads, samples)
	})
}

// AblationOutputPolicy compares the two output-mutual-exclusion
// policies: the intercepting head answers (the paper's structure)
// versus the view leader answers everything.
func AblationOutputPolicy(cal Calibration, heads, samples int) (AblationResult, error) {
	return pair("output mutual exclusion", []string{"origin-replies", "leader-replies"}, func(i int) (time.Duration, error) {
		c := cal
		c.OutputPolicy = []rsm.OutputPolicy{rsm.OriginReplies, rsm.LeaderReplies}[i]
		return latencyOf(c, heads, samples)
	})
}

// AblationBatchSubmission compares enqueueing n jobs as n sequential
// commands versus one batched command — quantifying the remedy the
// paper suggests for total-order throughput overhead.
func AblationBatchSubmission(cal Calibration, heads, n int) (AblationResult, error) {
	sys, err := StartSystem(cal, heads, false)
	if err != nil {
		return AblationResult{}, err
	}
	defer sys.Close()
	return pair("batched submission", []string{"sequential", "batched"}, func(i int) (time.Duration, error) {
		if i == 0 {
			return MeasureThroughput(sys.Client, n)
		}
		return MeasureBatchThroughput(sys.Client, n)
	})
}

// readProbe boots the read ablation's group with leases off (under a
// read lease the ordered read is served locally too, and the pair
// would time two local reads) and submits one held job to read.
func readProbe(cal Calibration, heads int) (*System, pbs.JobID, error) {
	opts := cal.options(heads, false, func(c *rsm.Config) { c.LeaseDuration = -1 })
	sys, err := startSystem(opts)
	if err != nil {
		return nil, "", err
	}
	j, err := sys.Client.Submit(pbs.SubmitRequest{Name: "probe", Owner: "bench", Hold: true})
	if err != nil {
		sys.Close()
		return nil, "", err
	}
	return sys, j.ID, nil
}

// readPath is one side of the read ablation.
type readPath struct {
	name string
	read func() error
}

// readPair is the read ablation's two paths: ordered through the
// total order, and local from the answering head's replica.
func readPair(cli *joshua.Client, id pbs.JobID) []readPath {
	return []readPath{
		{"ordered", func() error { _, err := cli.StatOrdered(id); return err }},
		{"local", func() error { _, err := cli.StatLocal(id); return err }},
	}
}

// AblationReads compares totally ordered (linearizable) jstat reads
// against local (possibly stale) reads on the same group.
func AblationReads(cal Calibration, heads, samples int) (AblationResult, error) {
	res := AblationResult{Name: "ordered vs local reads", Variants: map[string]time.Duration{}}
	sys, id, err := readProbe(cal, heads)
	if err != nil {
		return res, err
	}
	defer sys.Close()
	for _, v := range readPair(sys.Client, id) {
		start := time.Now()
		for i := 0; i < samples; i++ {
			if err := v.read(); err != nil {
				return res, err
			}
		}
		res.Variants[v.name] = time.Since(start) / time.Duration(samples)
	}
	return res, nil
}

// MeasureSequencerFailoverStall measures JOSHUA's worst-case command
// stall: the sequencer head fails and a command submitted through a
// surviving head cannot be ordered until the failure is detected and
// the view change completes. This is the replicated system's analogue
// of the 3-5 second active/standby failover the paper's related work
// reports — except the service state is never lost and jobs never
// restart; only ordering pauses, bounded by the failure-detection
// timeout plus one flush round.
func MeasureSequencerFailoverStall(cal Calibration) (stall, normal time.Duration, err error) {
	sys, err := StartSystem(cal, 2, false) // client pinned to head1
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()

	// Warm path, and a baseline sample.
	if _, err := MeasureThroughput(sys.Client, 1); err != nil {
		return 0, 0, err
	}
	if normal, err = MeasureThroughput(sys.Client, 1); err != nil {
		return 0, 0, err
	}
	// Kill the sequencer (head0) and time the next command end to
	// end, including detection, flush, and retransmission.
	sys.Cluster.CrashHead(0)
	stall, err = MeasureThroughput(sys.Client, 1)
	return stall, normal, err
}

// makespan boots a system from opts, submits jobs runnable jobs of
// the given wall time, and returns the time until all completed.
func makespan(opts cluster.Options, jobs int, wall time.Duration) (time.Duration, error) {
	opts.TimeScale = 1.0
	sys, err := startSystem(opts)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	start := time.Now()
	ids := make([]pbs.JobID, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := sys.Client.Submit(pbs.SubmitRequest{Name: "work", Owner: "bench", WallTime: wall})
		if err != nil {
			return 0, err
		}
		ids = append(ids, j.ID)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			j, err := sys.Client.StatLocal(id)
			if err == nil && len(j) == 1 && j[0].State == pbs.StateCompleted {
				break
			}
			if time.Now().After(deadline) {
				return 0, errTimeout
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return time.Since(start), nil
}

// AblationOrderedCompletions compares the makespan of a short
// workload with mom completion reports applied directly at each head
// (the paper's design) versus replicated through the total order (the
// deterministic-allocation extension): ordering adds one total-order
// round per completion, on the critical path between FIFO jobs.
func AblationOrderedCompletions(cal Calibration, heads, jobs int) (AblationResult, error) {
	return pair("completion ordering", []string{"direct", "ordered"}, func(i int) (time.Duration, error) {
		c := cal
		c.OrderedCompletions = i == 1
		return makespan(c.options(heads, false), jobs, time.Millisecond)
	})
}

// AblationExclusiveScheduling compares time-to-complete a small mixed
// workload under the paper's exclusive Maui policy versus first-fit
// packing (the restriction the paper says "may be lifted in the
// future").
func AblationExclusiveScheduling(cal Calibration, jobs int) (AblationResult, error) {
	return pair("exclusive vs packed scheduling", []string{"exclusive", "packed"}, func(i int) (time.Duration, error) {
		opts := cal.options(2, false)
		opts.Exclusive = i == 0
		opts.Computes = 4
		return makespan(opts, jobs, 50*time.Millisecond)
	})
}

// AblationsResult is every design-choice ablation plus the
// sequencer-failure stall.
type AblationsResult struct {
	Pairs          []AblationResult `json:"pairs"`
	FailoverStall  time.Duration    `json:"failover_stall_ns"`
	FailoverNormal time.Duration    `json:"failover_normal_ns"`
}

// Ablations runs the DESIGN.md ablations on 2-head groups.
func Ablations(cal Calibration, samples int) (AblationsResult, error) {
	var res AblationsResult
	for _, run := range []func() (AblationResult, error){
		func() (AblationResult, error) { return AblationSafeDelivery(cal, 2, samples) },
		func() (AblationResult, error) { return AblationOutputPolicy(cal, 2, samples) },
		func() (AblationResult, error) { return AblationBatchSubmission(cal, 2, 100) },
		func() (AblationResult, error) { return AblationReads(cal, 2, samples) },
		func() (AblationResult, error) { return AblationOrderedCompletions(cal, 2, 6) },
		func() (AblationResult, error) { return AblationExclusiveScheduling(cal, 8) },
	} {
		r, err := run()
		if err != nil {
			return res, err
		}
		res.Pairs = append(res.Pairs, r)
	}
	var err error
	res.FailoverStall, res.FailoverNormal, err = MeasureSequencerFailoverStall(cal)
	return res, err
}

// FormatAblations renders the ablations for the terminal.
func FormatAblations(res AblationsResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablations (DESIGN.md §5):")
	for _, r := range res.Pairs {
		fmt.Fprintf(&b, "  %-32s", r.Name+":")
		for name, d := range r.Variants {
			fmt.Fprintf(&b, " %s=%v", name, d.Round(time.Millisecond/10))
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "  %-32s stall=%v normal=%v (detection+flush; service state intact)\n",
		"sequencer failure stall:", res.FailoverStall.Round(time.Millisecond), res.FailoverNormal.Round(time.Millisecond))
	return b.String()
}
