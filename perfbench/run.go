package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"joshua/internal/pbs"
)

// phase is one set-up-and-measure pass of a workload.
type phase struct {
	w          *workload
	heads      int
	setups     []time.Duration
	lr         *loadRun
	ctl        *controller
	violations []string
	// execPerJob is Σ mom executions ÷ jobs started (0 with no job
	// started).
	execPerJob float64
	cpu        time.Duration
	// sent counts the load sessions' datagrams during the timed phase
	// (traced only).
	sent uint64
	// listingBytes is the bytes received per full listing (traced).
	listingBytes float64
	probe        pbsProbe
}

// runPhase sets the cluster up `setups` times (keeping the last),
// runs the timed phase, checks correctness and, when traced, runs the
// probes that follow the timed phase.
func runPhase(w *workload, heads int, seed int64, dur time.Duration, traced bool, setups int) (*phase, error) {
	p := &phase{w: w, heads: heads}
	var r *rig
	for k := 0; k < setups; k++ {
		t := time.Now()
		var err error
		if r, err = newRig(w, heads, seed, traced); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, time.Since(t))
		if k < setups-1 {
			r.close()
		}
	}
	defer r.close()
	fmt.Printf("setup %s with %d heads: %v\n", w.name, heads, p.setups)
	runtime.GC()

	var sent0 uint64
	for _, ep := range r.eps {
		if ep != nil {
			sent0 += ep.sent.Load()
		}
	}
	cpu0 := cpuTime()
	start := time.Now()
	p.ctl = newController(r, traced, start, dur)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		p.ctl.run(stop)
		close(done)
	}()
	p.lr = r.runLoad(seed, start, dur)
	close(stop)
	<-done
	p.cpu = cpuTime() - cpu0
	for _, ep := range r.eps {
		if ep != nil {
			p.sent += ep.sent.Load()
		}
	}
	p.sent -= sent0
	if p.ctl.err != nil {
		return nil, p.ctl.err
	}

	p.violations, p.execPerJob = r.gate()
	if traced {
		var err error
		if p.listingBytes, err = r.listingProbe(); err != nil {
			return nil, err
		}
		p.probe = runPBSProbe(w, seed)
		if err := p.writeTrace(seed); err != nil {
			return nil, err
		}
	}
	// The metrics need only the samples: let the closed cluster be
	// collected before the next phase boots another.
	p.ctl.r = nil
	return p, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gate checks, after quiescence, that every live head holds each acked
// submit exactly once and no acked delete, that all live heads list
// the same jobs in the same states, and that each started job executed
// exactly once. It returns the violations and executions per job.
func (r *rig) gate() ([]string, float64) {
	var v []string
	if err := r.converge(30 * time.Second); err != nil {
		v = append(v, "quiescence: "+err.Error())
	}
	expect := r.jobs.snapshot()
	var ref []pbs.Job
	refHead := -1
	for _, i := range r.c.LiveHeads() {
		jobs := r.c.Head(i).Daemon().Server().StatusAll()
		seen := make(map[pbs.JobID]int, len(jobs))
		for _, j := range jobs {
			seen[j.ID]++
		}
		bad := 0
		note := func(format string, args ...any) {
			if bad++; bad <= 5 {
				v = append(v, fmt.Sprintf("head%d: ", i)+fmt.Sprintf(format, args...))
			}
		}
		for id, n := range seen {
			if n > 1 {
				note("job %s listed %d times", id, n)
			}
		}
		for id, live := range expect {
			if live && seen[id] == 0 {
				note("acked job %s missing", id)
			}
			if !live && seen[id] > 0 {
				note("deleted job %s still listed", id)
			}
		}
		if ref == nil {
			ref, refHead = jobs, i
		} else if d := diffListings(ref, jobs); d != "" {
			note("listing differs from head%d: %s", refHead, d)
		}
		if bad > 5 {
			v = append(v, fmt.Sprintf("head%d: %d more violations", i, bad-5))
		}
	}
	if !r.w.runnable {
		return v, 0
	}
	started := 0
	for _, j := range ref {
		if !j.StartedAt.IsZero() {
			started++
		}
	}
	execs := 0
	for k := 0; k < r.w.computes; k++ {
		execs += r.c.Mom(k).Executions()
	}
	if execs != started {
		v = append(v, fmt.Sprintf("moms executed %d times for %d started jobs", execs, started))
	}
	if started == 0 {
		return v, 0
	}
	return v, float64(execs) / float64(started)
}

// diffListings describes the first difference between two listings.
func diffListings(a, b []pbs.Job) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d jobs vs %d", len(a), len(b))
	}
	for k := range a {
		if a[k].ID != b[k].ID || a[k].State != b[k].State {
			return fmt.Sprintf("position %d: %s/%v vs %s/%v", k, a[k].ID, a[k].State, b[k].ID, b[k].State)
		}
	}
	return ""
}

// listingProbe measures the bytes a client receives per full listing
// on a fresh counting session.
func (r *rig) listingProbe() (float64, error) {
	const calls = 5
	cli, ep, err := r.session("benchprobe/cli", true)
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	for k := 0; k < calls; k++ {
		if _, err := cli.StatAll(); err != nil {
			return 0, fmt.Errorf("listing probe: %w", err)
		}
	}
	return float64(ep.recvdBytes.Load()) / calls, nil
}

// writeTrace writes the op spans and fault events of a traced phase to
// .bench_build/traces/ under the working directory.
func (p *phase) writeTrace(seed int64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-h%d-seed%d.csv", p.w.name, p.heads, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "kind,class,session,due_us,start_us,end_us,ok")
	for _, rec := range p.lr.recs {
		fmt.Fprintf(bw, "op,%s,%d,%d,%d,%d,%t\n", classNames[rec.class], rec.session,
			rec.due.Microseconds(), rec.start.Microseconds(), rec.end.Microseconds(), rec.ok)
	}
	for _, e := range p.ctl.events {
		fmt.Fprintf(bw, "fault,%q,,%d,%d,%d,true\n", e.what, e.at.Microseconds(), e.at.Microseconds(), e.at.Microseconds())
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w *workload, seed int64, dur time.Duration) (*result, error) {
	p, err := runPhase(w, defaultHeads, seed, dur, false, setupRepeats)
	if err != nil {
		return nil, err
	}
	res := &result{}
	p.count(res)
	p.endToEnd(res)
	res.printTable()
	if err := res.onlyMetrics(endToEndNames); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedRun measures the same workload untraced and then traced, and
// reports the per-layer metrics, the tracing overhead and, for
// submit-burst, the one-head baseline (run for half as long; it is not
// gated).
func tracedRun(w *workload, seed int64, dur time.Duration) (*result, error) {
	plain, err := runPhase(w, defaultHeads, seed, dur, false, 1)
	if err != nil {
		return nil, err
	}
	traced, err := runPhase(w, defaultHeads, seed, dur, true, 1)
	if err != nil {
		return nil, err
	}
	res := &result{}
	plain.count(res)
	traced.count(res)
	var base, tr result
	plain.endToEnd(&base)
	traced.endToEnd(&tr)
	for _, name := range overheadOf {
		b := base.get(name)
		d := 0.0
		if b != 0 {
			d = (tr.get(name) - b) / b
		}
		res.add("trace.overhead."+name, "ratio", d)
	}
	for _, m := range tr.metrics {
		if !isEndToEnd(m.name) {
			res.metrics = append(res.metrics, m)
		}
	}
	traced.perLayer(res)

	var b1 result
	if w.name == "submit-burst" {
		one, err := runPhase(w, 1, seed, dur/2, false, 1)
		if err != nil {
			return nil, err
		}
		one.count(res)
		one.endToEnd(&b1)
	}
	res.add("baseline1.throughput_ops_s", "ops/s", b1.get("throughput_ops_s"))
	res.add("baseline1.mutation_p50_ms", "ms", b1.get("mutation_p50_ms"))
	res.printTable()
	if err := res.onlyMetrics(perLayerNames); err != nil {
		return nil, err
	}
	return res, nil
}

// count adds the phase's ops, failures and violations to res.
func (p *phase) count(res *result) {
	res.attempted += len(p.lr.recs)
	for _, rec := range p.lr.recs {
		if !rec.ok {
			res.failed++
		}
	}
	const show = 10
	for k, e := range p.lr.errs {
		if k == show {
			fmt.Printf("op error: ... %d more\n", len(p.lr.errs)-show)
			break
		}
		fmt.Println("op error:", e)
	}
	res.failed += len(p.violations)
	res.violations = append(res.violations, p.violations...)
}
