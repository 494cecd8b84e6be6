// Command jbench regenerates every table and figure of the paper's
// evaluation on the simulated cluster:
//
//	jbench -fig 10             # Figure 10: job submission latency
//	jbench -fig 11             # Figure 11: job submission throughput
//	jbench -fig 12             # Figure 12: availability/downtime
//	jbench -fig ablations      # DESIGN.md design-choice ablations
//	jbench -fig readpath       # concurrent vs on-loop query serving
//	jbench -fig wal            # WAL fsync-policy ablation vs in-memory
//	jbench -fig applypipe      # pipelined apply-path ablation
//	jbench -fig shards         # sharded replication groups scaling sweep
//	jbench -fig leases         # read consistency levels: local/leased/broadcast
//	jbench -fig writepath      # 10k-client zero-alloc write-path profile
//	jbench -fig sched          # scheduling policy sweep: fifo/priority/backfill
//	jbench -fig checkpoint     # off-loop vs blocking checkpoint tail latency
//	jbench -fig all            # everything
//
// -json writes the selected figures' results to a machine-readable
// file (the CI benchmark artifact), each under its figure's key. Every
// file carries a "meta" object recording the run environment:
// GOMAXPROCS, the Go toolchain version, the git commit, the model
// scale, and the topology the figures ran on (head count, shard count,
// apply concurrency) — enough to tell two artifacts apart and to
// compare like with like.
//
// -scale selects the latency-model scale (1.0 = paper-scale
// milliseconds; smaller runs proportionally faster). Shapes, not
// absolute times, are the reproduction target; each table prints the
// paper's values alongside (see EXPERIMENTS.md).
//
// -cpuprofile, -memprofile and -mutexprofile write runtime/pprof
// profiles covering the selected figure. The replica pipeline stages
// are labeled (rsm_stage=event_loop/apply_worker/releaser/replier/...)
// so a CPU profile splits cleanly per stage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"joshua/internal/bench"
)

// runMeta identifies the environment and topology a benchmark
// artifact came from. Heads and Shards describe the figures' clusters
// (for sweeps and -fig all, the largest configuration measured);
// ApplyConcurrency is the replica-side parallel-apply width, which
// follows GOMAXPROCS.
type runMeta struct {
	GOMAXPROCS       int     `json:"gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	GitCommit        string  `json:"git_commit"`
	Scale            float64 `json:"scale"`
	Heads            int     `json:"heads"`
	Shards           int     `json:"shards"`
	ApplyConcurrency int     `json:"apply_concurrency"`
	Timestamp        string  `json:"timestamp_utc"`
}

// newRunMeta captures the environment. The commit comes from git when
// a work tree is available (the common case: CI runs jbench from a
// checkout), falling back to the build info stamp for installed
// binaries.
func newRunMeta(scale float64) runMeta {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				commit = s.Value
			}
		}
	}
	return runMeta{
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		GitCommit:        commit,
		Scale:            scale,
		ApplyConcurrency: runtime.GOMAXPROCS(0),
		Timestamp:        time.Now().UTC().Format(time.RFC3339),
	}
}

// figure is one jbench figure: how to run and print it, and where its
// result goes in the -json artifact.
type figure struct {
	name string
	// key is the result's top-level JSON key; empty spreads the
	// result's own fields at the top level.
	key           string
	heads, shards int // topology recorded in the artifact's meta
	run           func() (result any, table string, err error)
}

// fig builds a figure from a typed runner and its formatter.
func fig[R any](name, key string, heads, shards int, run func() (R, error), format func(R) string) figure {
	return figure{name, key, heads, shards, func() (any, string, error) {
		r, err := run()
		if err != nil {
			return nil, "", err
		}
		return r, format(r), nil
	}}
}

// figures lists every figure in -fig all order.
func figures(cal bench.Calibration, samples, maxHeads, clients int) []figure {
	counts := []int{10, 50, 100}
	return []figure{
		fig("10", "fig10", maxHeads, 1,
			func() ([]bench.Fig10Row, error) { return bench.Fig10(cal, maxHeads, samples) },
			func(rows []bench.Fig10Row) string { return bench.FormatFig10(rows, cal) }),
		fig("11", "fig11", maxHeads, 1,
			func() ([]bench.Fig11Row, error) { return bench.Fig11(cal, maxHeads, counts) },
			func(rows []bench.Fig11Row) string { return bench.FormatFig11(rows, cal, counts) }),
		fig("12", "fig12", maxHeads, 1,
			func() ([]bench.Fig12Row, error) { return bench.Fig12(maxHeads, 2000), nil },
			bench.FormatFig12),
		fig("ablations", "ablations", 2, 1,
			func() (bench.AblationsResult, error) { return bench.Ablations(cal, samples) },
			bench.FormatAblations),
		fig("readpath", "", 2, 1,
			func() (bench.ReadPathResult, error) {
				conc, onLoop, err := bench.AblationReadConcurrency(cal, 2, 4, 6, 25)
				return bench.ReadPathResult{Concurrent: conc, OnLoop: onLoop}, err
			},
			bench.FormatReadPath),
		fig("wal", "wal_policies", 2, 1,
			func() ([]bench.WALPolicyResult, error) { return bench.MeasureWALPolicies(cal, 2, samples) },
			bench.FormatWAL),
		fig("applypipe", "apply_pipeline", 2, 1,
			func() (bench.ApplyPipeResult, error) { return bench.MeasureApplyPipeline(240, 8, time.Millisecond) },
			bench.FormatApplyPipe),
		fig("shards", "shard_scaling", 2, 8,
			func() (bench.ShardResult, error) { return bench.MeasureShardScaling(192, 8, time.Millisecond) },
			bench.FormatShards),
		fig("leases", "lease_reads", 4, 1,
			func() (bench.LeaseResult, error) { return bench.MeasureLeases(cal, 4, 8, 5, 2*time.Second) },
			bench.FormatLeases),
		fig("sched", "sched_policies", 1, 1,
			func() (bench.SchedResult, error) { return bench.MeasureSchedPolicies(96, 16) },
			bench.FormatSched),
		fig("checkpoint", "checkpoint", 2, 1,
			func() (bench.CheckpointResult, error) { return bench.MeasureCheckpointStall(0, 0, 0) },
			bench.FormatCheckpoint),
		fig("writepath", "write_path", 2, 1,
			func() (bench.WritePathResult, error) { return bench.MeasureWritePath(clients, 3, 2) },
			bench.FormatWritePath),
	}
}

func main() {
	var (
		fig          = flag.String("fig", "all", "which figure to regenerate: 10, 11, 12, ablations, readpath, wal, applypipe, shards, leases, writepath, sched, checkpoint, all")
		scale        = flag.Float64("scale", 0.2, "latency model scale (1.0 = paper milliseconds)")
		samples      = flag.Int("samples", 20, "latency samples per configuration")
		maxHeads     = flag.Int("maxheads", 4, "largest head-node group")
		clients      = flag.Int("clients", 10000, "concurrent clients for -fig writepath")
		jsonPath     = flag.String("json", "", "write the selected figure's results as JSON to this file")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file")
	)
	flag.Parse()

	cal := bench.PaperCalibration(*scale)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "jbench:", err)
		os.Exit(1)
	}

	// Profiles bracket the figure run itself. The mutex fraction must
	// be raised before any contention happens to be sampled; the heap
	// profile is written after a forced GC so it shows live bytes, not
	// transient garbage.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(100)
	}
	defer func() {
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			f.Close()
		}
		if *mutexProfile != "" {
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fail(err)
			}
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fail(err)
			}
			f.Close()
		}
	}()

	n := *clients
	if *fig == "all" {
		// "all" is the smoke-everything mode; cap the client fleet so
		// it stays minutes, not tens of minutes. The full 10k-client
		// profile is an explicit -fig writepath run.
		n = min(n, 2000)
	}
	var selected []figure
	for _, f := range figures(cal, *samples, *maxHeads, n) {
		if *fig == "all" || *fig == f.name {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		fail(fmt.Errorf("unknown -fig %q", *fig))
	}

	payload := map[string]json.RawMessage{}
	meta := newRunMeta(*scale)
	for _, f := range selected {
		res, table, err := f.run()
		if err != nil {
			fail(err)
		}
		fmt.Println(table)
		body, err := json.Marshal(res)
		if err != nil {
			fail(err)
		}
		if f.key == "" {
			err = json.Unmarshal(body, &payload)
		} else {
			payload[f.key] = body
		}
		if err != nil {
			fail(err)
		}
		meta.Heads, meta.Shards = max(meta.Heads, f.heads), max(meta.Shards, f.shards)
	}
	if *jsonPath == "" {
		return
	}
	var err error
	if payload["meta"], err = json.Marshal(meta); err != nil {
		fail(err)
	}
	out, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
		fail(err)
	}
}
