package bench

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"joshua/internal/joshua"
	"joshua/internal/rsm"
)

// tiny returns a very small calibration so tests run quickly.
func tiny() Calibration { return PaperCalibration(0.02) }

func TestPaperCalibrationDefaults(t *testing.T) {
	cal := PaperCalibration(0) // 0 selects scale 1.0
	if cal.Scale != 1.0 {
		t.Errorf("scale = %v", cal.Scale)
	}
	if cal.Latency.Remote != 25*time.Millisecond || cal.SubmitDelay != 48*time.Millisecond {
		t.Errorf("calibration constants changed unexpectedly: %+v", cal)
	}
	half := PaperCalibration(0.5)
	if half.Latency.Remote != cal.Latency.Remote/2 {
		t.Errorf("scaling broken: %v", half.Latency.Remote)
	}
}

func TestFig10ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement")
	}
	rows, err := Fig10(tiny(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, one, two := rows[0].Latency, rows[1].Latency, rows[2].Latency
	if !(base < one && one < two) {
		t.Errorf("latency shape violated: base=%v 1head=%v 2heads=%v", base, one, two)
	}
	if rows[1].Percent <= 0 {
		t.Errorf("single-head overhead = %.0f%%, want > 0", rows[1].Percent)
	}
	out := FormatFig10(rows, tiny())
	for _, want := range []string{"TORQUE", "JOSHUA/TORQUE 1", "JOSHUA/TORQUE 2", "Paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig10 table missing %q:\n%s", want, out)
		}
	}
}

func TestFig11ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	counts := []int{5, 10}
	rows, err := Fig11(tiny(), 2, counts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Totals[10] <= r.Totals[5] {
			t.Errorf("%s: 10 jobs (%v) should take longer than 5 (%v)", r.System, r.Totals[10], r.Totals[5])
		}
	}
	if rows[2].Totals[10] <= rows[0].Totals[10] {
		t.Errorf("2-head throughput (%v) should be slower than baseline (%v)", rows[2].Totals[10], rows[0].Totals[10])
	}
	out := FormatFig11(rows, tiny(), counts)
	if !strings.Contains(out, "5 Jobs") || !strings.Contains(out, "10 Jobs") {
		t.Errorf("Fig11 table malformed:\n%s", out)
	}
}

func TestFig12Table(t *testing.T) {
	out := FormatFig12(Fig12(4, 200))
	for _, want := range []string{"98.6%", "99.98%", "99.9997%", "99.999996%", "Monte-Carlo"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig12 missing %q:\n%s", want, out)
		}
	}
}

func TestAblationSafeDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement")
	}
	res, err := AblationSafeDelivery(tiny(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	safe, agreed := res.Variants["safe"], res.Variants["agreed"]
	if safe == 0 || agreed == 0 {
		t.Fatalf("missing variants: %+v", res.Variants)
	}
	if safe <= agreed {
		t.Errorf("safe (%v) should cost more than agreed (%v)", safe, agreed)
	}
}

func TestAblationBatchSubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	res, err := AblationBatchSubmission(tiny(), 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variants["batched"] >= res.Variants["sequential"] {
		t.Errorf("batching (%v) should beat sequential (%v)", res.Variants["batched"], res.Variants["sequential"])
	}
}

func TestAblationReads(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement")
	}
	res, err := AblationReads(tiny(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variants["local"] >= res.Variants["ordered"] {
		t.Errorf("local reads (%v) should be faster than ordered (%v)", res.Variants["local"], res.Variants["ordered"])
	}
}

func TestAblationOutputPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement")
	}
	res, err := AblationOutputPolicy(tiny(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 2 {
		t.Fatalf("variants: %+v", res.Variants)
	}
	// Both policies must work; no strict ordering asserted (it depends
	// on which head the client is pinned to).
	_ = rsm.LeaderReplies
}

func TestAblationExclusiveScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("workload measurement")
	}
	res, err := AblationExclusiveScheduling(tiny(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variants["packed"] >= res.Variants["exclusive"] {
		t.Errorf("packing (%v) should finish the workload before exclusive (%v)",
			res.Variants["packed"], res.Variants["exclusive"])
	}
}

func TestAblationOrderedCompletions(t *testing.T) {
	if testing.Short() {
		t.Skip("workload measurement")
	}
	res, err := AblationOrderedCompletions(tiny(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variants["direct"] == 0 || res.Variants["ordered"] == 0 {
		t.Fatalf("variants: %+v", res.Variants)
	}
	// Ordering completions costs extra rounds on the critical path.
	if res.Variants["ordered"] < res.Variants["direct"] {
		t.Logf("note: ordered (%v) measured faster than direct (%v); timing noise at tiny scale",
			res.Variants["ordered"], res.Variants["direct"])
	}
}

func TestMixedReadConcurrencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-workload measurement")
	}
	conc, onLoop, err := AblationReadConcurrency(tiny(), 2, 4, 6, 25)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("concurrent: %.0f reads/s, read mean %v, batch mean %v",
		conc.ReadsPerSec, conc.ReadMean, conc.SubmitMean)
	t.Logf("on-loop:    %.0f reads/s, read mean %v, batch mean %v",
		onLoop.ReadsPerSec, onLoop.ReadMean, onLoop.SubmitMean)
	if conc.ReadsPerSec < 2*onLoop.ReadsPerSec {
		t.Errorf("concurrent reads %.0f/s, want >= 2x on-loop %.0f/s",
			conc.ReadsPerSec, onLoop.ReadsPerSec)
	}
	// The pool must not tax the write path: per-batch submission
	// latency stays comparable (generous bound for timing noise).
	if conc.SubmitMean > onLoop.SubmitMean*3/2 {
		t.Errorf("concurrent submit mean %v, want <= 1.5x on-loop %v",
			conc.SubmitMean, onLoop.SubmitMean)
	}
}

// benchmarkMixedReads reports per-listing latency with a batched
// submit stream occupying the replication loop in the background.
func benchmarkMixedReads(b *testing.B, readConcurrency int) {
	opts := tiny().options(2, false, func(c *rsm.Config) { c.ReadConcurrency = readConcurrency })
	sys, err := startSystem(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := holdSubmit(sys.Client); err != nil {
		b.Fatal(err)
	}

	// ClientFor is not safe for concurrent use; hand a client to each
	// RunParallel goroutine under a lock.
	var mu sync.Mutex
	newClient := func() (*joshua.Client, error) {
		mu.Lock()
		defer mu.Unlock()
		return sys.Cluster.ClientFor(0, 1)
	}

	b.ResetTimer()
	_, err = drive(1, 0, func() error {
		b.RunParallel(func(pb *testing.PB) {
			cli, err := newClient()
			if err != nil {
				b.Error(err)
				return
			}
			for pb.Next() {
				if _, err := cli.StatAll(); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		return nil
	}, func(_, _ int) error { return batchSubmit(sys.Client, 25) })
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMixedReadsConcurrent(b *testing.B) { benchmarkMixedReads(b, 0) }
func BenchmarkMixedReadsOnLoop(b *testing.B)     { benchmarkMixedReads(b, rsm.ReadOnLoop) }

// BenchmarkAblationReads times the read ablation's pair, one read per
// iteration, on its leases-off group: ordered through the total order
// and local from the answering head.
func BenchmarkAblationReads(b *testing.B) {
	sys, id, err := readProbe(tiny(), 2)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	for _, v := range readPair(sys.Client, id) {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := v.read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestSequencerFailoverStall(t *testing.T) {
	if testing.Short() {
		t.Skip("failure-detection measurement")
	}
	cal := tiny()
	stall, normal, err := MeasureSequencerFailoverStall(cal)
	if err != nil {
		t.Fatal(err)
	}
	if stall <= normal {
		t.Errorf("stall (%v) should exceed normal latency (%v)", stall, normal)
	}
	// The stall is bounded by detection + flush + client retry, far
	// under an active/standby failover; with tiny timings it must be
	// well under 5 seconds.
	if stall > 5*time.Second {
		t.Errorf("stall = %v, want bounded by detection+flush", stall)
	}
}

// TestDrive checks the client driver's contract: every call of a clean
// run is sampled, and a call failing at any point fails the whole run
// with its error and no partial sample, in both the fixed-count and
// the run-until modes.
func TestDrive(t *testing.T) {
	d, err := drive(3, 10, nil, func(int, int) error { return nil })
	if err != nil || d.ops != 30 || len(d.lats) != 30 || d.elapsed <= 0 {
		t.Fatalf("clean run: ops=%d lats=%d elapsed=%v err=%v", d.ops, len(d.lats), d.elapsed, err)
	}

	boom := errors.New("boom")
	const k = 4
	failed := make(chan struct{})
	failAt := func(c, i int) error {
		if c == 1 && i == k {
			close(failed)
			return boom
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	}
	d, err = drive(3, 10, nil, failAt)
	if !errors.Is(err, boom) {
		t.Errorf("fixed-count run: err = %v, want %v", err, boom)
	}
	if d.ops != 0 || d.lats != nil {
		t.Errorf("fixed-count run reported %d ops, %d samples after a failure", d.ops, len(d.lats))
	}

	failed = make(chan struct{})
	d, err = drive(3, 0, func() error { <-failed; return nil }, failAt)
	if !errors.Is(err, boom) {
		t.Errorf("run-until: err = %v, want %v", err, boom)
	}
	if d.ops != 0 || d.lats != nil {
		t.Errorf("run-until reported %d ops, %d samples after a failure", d.ops, len(d.lats))
	}

	if _, err := drive(2, 0, func() error { return boom }, func(int, int) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	}); !errors.Is(err, boom) {
		t.Errorf("failing until: err = %v, want %v", err, boom)
	}
}

func TestSummarize(t *testing.T) {
	var lats []time.Duration
	for i := 1000; i >= 1; i-- {
		lats = append(lats, time.Duration(i))
	}
	if got, want := summarize(lats), (latency{p50: 500, p99: 990, p999: 999, max: 1000}); got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	if got := summarize(nil); got != (latency{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

// TestCommittedArtifactKeys checks that each figure's result type
// still produces every key path of its committed BENCH_pr*.json, so
// the trajectory stays comparable across changes.
func TestCommittedArtifactKeys(t *testing.T) {
	for _, a := range []struct {
		file string
		key  string // "" = the result is the whole artifact minus meta
		res  any
	}{
		{"BENCH_pr3.json", "", ReadPathResult{}},
		{"BENCH_pr4.json", "wal_policies", []WALPolicyResult{}},
		{"BENCH_pr5.json", "apply_pipeline", ApplyPipeResult{}},
		{"BENCH_pr6.json", "shard_scaling", ShardResult{}},
		{"BENCH_pr7.json", "lease_reads", LeaseResult{}},
		{"BENCH_pr8.json", "write_path", WritePathResult{}},
		{"BENCH_pr9.json", "sched_policies", SchedResult{}},
		{"BENCH_pr10.json", "checkpoint", CheckpointResult{}},
	} {
		raw, err := os.ReadFile(filepath.Join("..", "..", a.file))
		if err != nil {
			t.Fatal(err)
		}
		var committed map[string]any
		if err := json.Unmarshal(raw, &committed); err != nil {
			t.Fatalf("%s: %v", a.file, err)
		}
		var want any = committed
		if a.key != "" {
			want = committed[a.key]
		} else {
			delete(committed, "meta")
		}
		if want == nil {
			t.Errorf("%s has no %q", a.file, a.key)
			continue
		}

		// One element in every slice, so nested keys are emitted.
		v := reflect.New(reflect.TypeOf(a.res)).Elem()
		fill(v)
		body, err := json.Marshal(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		var produced any
		if err := json.Unmarshal(body, &produced); err != nil {
			t.Fatal(err)
		}
		have := map[string]bool{}
		keyPaths(produced, "", have)
		wantPaths := map[string]bool{}
		keyPaths(want, "", wantPaths)
		if len(wantPaths) == 0 {
			t.Errorf("%s: no key paths under %q", a.file, a.key)
		}
		for p := range wantPaths {
			if !have[p] {
				t.Errorf("%s: key %s%s is no longer produced", a.file, a.key, p)
			}
		}
	}
}

func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	}
}

func keyPaths(x any, prefix string, out map[string]bool) {
	switch x := x.(type) {
	case map[string]any:
		for k, v := range x {
			out[prefix+"."+k] = true
			keyPaths(v, prefix+"."+k, out)
		}
	case []any:
		for _, v := range x {
			keyPaths(v, prefix+"[]", out)
		}
	}
}
