// Command perfbench is the end-to-end benchmark of the replicated job
// manager. It boots an in-process cluster of durable JOSHUA heads on
// the simulated network, drives one named workload through the public
// client API, checks that every answer was correct, and prints its
// metrics by name with their units. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is repeated with wrapped client endpoints and a stats sampler,
// and the metrics are the per-layer ones plus the tracing overhead.
// -repeat N runs the workload N times in child processes, one seed
// each, and prints every metric's median, quartiles and spread.
//
// Run it through run.sh from the root of the checkout, which builds it
// first:
//
//	bash perfbench/run.sh --workload backlog-poll --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// The fixed system under test. Every run prints these settings.
const (
	defaultHeads = 3
	remoteDelay  = 500 * time.Microsecond
	localDelay   = 50 * time.Microsecond
	heartbeat    = 25 * time.Millisecond
	failTimeout  = time.Second
	// attemptTimeout must not exceed failTimeout: a longer client
	// attempt hides the group's detection time behind the client's own
	// timeout, and unavail_ms then reads the timeout instead.
	attemptTimeout = time.Second
	// sloLimit is the latency above which an op counts as an SLO miss.
	sloLimit = 100 * time.Millisecond
	// setupRepeats is how many times an untraced run sets the cluster
	// up; setup_s is the median, so one slow boot does not move it.
	setupRepeats = 3
)

// mixEntry is one op class of an open-loop mix with its weight in
// percent.
type mixEntry struct {
	class  opClass
	weight int
}

// workload is one benchmark input: topology, preload and traffic.
type workload struct {
	name string
	// computes is the number of compute nodes running moms.
	computes int
	// preloadHeld jobs are submitted on hold before timing starts.
	preloadHeld int
	// slots > 0 selects the closed loop with that many ops in flight.
	slots int
	// rate is the open loop's arrival rate in ops/s; mix its classes.
	rate float64
	mix  []mixEntry
	// runnable submits jobs that run (short walltime) instead of
	// held ones.
	runnable bool
	// failover crashes the sequencer at a third of the timed phase and
	// restarts it from its log at two thirds.
	failover bool
}

var workloads = map[string]*workload{
	// Write-path capacity (paper Fig. 11): every slot submits a held
	// job and deletes it again, so the queue stays within the window
	// and pbs does almost nothing.
	"submit-burst": {
		name: "submit-burst", computes: 1, slots: 64,
	},
	// A deep queue that users poll far more than they change: reads
	// dominate, and every mutation rescans the queue and invalidates
	// the status snapshot the reads depend on.
	"backlog-poll": {
		name: "backlog-poll", computes: 1, preloadHeld: 8000, rate: 300,
		mix: []mixEntry{{opStat, 75}, {opStatOrdered, 10}, {opSubmit, 8}, {opDelete, 6}, {opListing, 1}},
	},
	// Availability across a fail-stop of the sequencer and its restart
	// from the write-ahead log, with runnable jobs launching under the
	// jmutex/jdone exclusion meanwhile. The held preload gives the
	// reads targets from the first op on.
	"head-failover": {
		name: "head-failover", computes: 4, preloadHeld: 500, rate: 100, runnable: true, failover: true,
		mix: []mixEntry{{opStat, 60}, {opStatOrdered, 10}, {opSubmit, 30}},
	},
}

func main() {
	name := flag.String("workload", "", "workload: submit-burst, backlog-poll or head-failover")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run N times (seeds seed..seed+N-1) and print each metric's median, quartiles and spread")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(w, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	dur := time.Duration(*seconds) * time.Second
	printSettings(w, *seed, dur, *trace == 1)

	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, dur)
	} else {
		res, err = untracedRun(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, v := range res.violations {
		fmt.Println("VIOLATION:", v)
	}
	if err := res.printJSON(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printSettings prints the fixed system under test and the run's
// inputs as one line.
func printSettings(w *workload, seed int64, dur time.Duration, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	settings := map[string]any{
		"workload": w.name, "seed": seed, "seconds": dur.Seconds(), "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit,
		"topology":     fmt.Sprintf("%d heads, 1 shard, %d computes, %d client sessions", defaultHeads, w.computes, sessionCount()),
		"delay":        fmt.Sprintf("remote %v, local %v, jitter 0, loss 0, txtime 0, submitdelay 0", remoteDelay, localDelay),
		"durability":   "durable DataDir per head, wal.SyncInterval at its default interval, default checkpoint cadence",
		"leases":       "on (default duration)",
		"gcs":          fmt.Sprintf("heartbeat %v, fail timeout %v", heartbeat, failTimeout),
		"client":       fmt.Sprintf("attempt timeout %v, 3 rounds", attemptTimeout),
		"setup_repeat": setupRepeats,
	}
	b, _ := json.Marshal(settings) // a map of plain values always encodes
	fmt.Println("settings", string(b))
}

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one run prints.
type result struct {
	attempted, failed int
	violations        []string
	metrics           []metric
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// printTable prints every metric of the run, one per line.
func (r *result) printTable() {
	ms := append([]metric(nil), r.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		fmt.Printf("  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("  attempted %d, failed %d, violations %d\n", r.attempted, r.failed, len(r.violations))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printJSON prints the result line the benchmark contract asks for.
func (r *result) printJSON() error {
	out := jsonResult{
		Correct:   r.failed == 0 && len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(r.metrics)),
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(b))
	return nil
}

// onlyMetrics keeps the metrics named in names, in that order, and
// fails if one is missing: the printed set must match BENCHMARK.json.
func (r *result) onlyMetrics(names []string) error {
	var kept []metric
	var missing []string
	for _, n := range names {
		found := false
		for _, m := range r.metrics {
			if m.name == n {
				kept = append(kept, m)
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	r.metrics = kept
	return nil
}
