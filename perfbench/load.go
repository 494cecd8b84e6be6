package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"joshua/internal/pbs"
)

// opClass is the kind of one client call.
type opClass uint8

const (
	opSubmit opClass = iota
	opDelete
	opStat
	opStatOrdered
	opListing
	numClasses
)

var classNames = [numClasses]string{"submit", "delete", "stat", "stat_ordered", "listing"}

func (c opClass) mutation() bool { return c == opSubmit || c == opDelete }
func (c opClass) read() bool     { return c == opStat || c == opStatOrdered }

// opRec is the span of one op. Times are offsets from the start of
// the timed phase; due is when the op should have been sent.
type opRec struct {
	class           opClass
	session         int
	due, start, end time.Duration
	ok              bool
}

// inflightCap bounds the open loop's concurrent calls; an op due while
// the cap is full fails without being sent.
const inflightCap = 512

// verifyEvery makes every n-th closed-loop cycle check read-your-writes
// with a StatOrdered of the job it just submitted.
const verifyEvery = 8

// loadRun is the outcome of one timed phase.
type loadRun struct {
	recs []opRec
	// late holds how far behind schedule the generator sent each op.
	late    []time.Duration
	elapsed time.Duration
	// errs are failed calls and violated checks, in order seen.
	errs []string
}

// errLog collects op errors from concurrent goroutines.
type errLog struct {
	mu   sync.Mutex
	errs []string
}

func (e *errLog) add(format string, args ...any) {
	e.mu.Lock()
	e.errs = append(e.errs, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

// runLoad drives the timed phase of the workload, which started at
// start, for dur.
func (r *rig) runLoad(seed int64, start time.Time, dur time.Duration) *loadRun {
	if r.w.slots > 0 {
		return r.closedLoop(seed, start, dur)
	}
	return r.openLoop(seed, start, dur)
}

// closedLoop runs slots concurrent submit/delete cycles until dur has
// passed. An op is due when its predecessor in the slot ended.
func (r *rig) closedLoop(seed int64, start time.Time, dur time.Duration) *loadRun {
	var (
		wg   sync.WaitGroup
		errs errLog
	)
	perSlot := make([][]opRec, r.w.slots)
	for s := 0; s < r.w.slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(slot)))
			sess := slot % len(r.sessions)
			cli := r.sessions[sess]
			var recs []opRec
			for cycle := 0; time.Since(start) < dur; cycle++ {
				rec := opRec{class: opSubmit, session: sess, due: time.Since(start)}
				rec.start = rec.due
				j, err := cli.Submit(heldRequest(rng))
				rec.end = time.Since(start)
				rec.ok = err == nil && j.ID != "" && j.State == pbs.StateHeld
				if err != nil {
					errs.add("submit: %v", err)
				} else if !rec.ok {
					errs.add("submit acked %q in state %v, want a held job", j.ID, j.State)
				}
				recs = append(recs, rec)
				if !rec.ok {
					continue
				}
				id := j.ID
				r.jobs.submittedPrivate(id)
				if cycle%verifyEvery == 0 {
					recs = append(recs, r.timed(start, rec.end, opStatOrdered, sess, id, &errs))
				}
				recs = append(recs, r.timed(start, recs[len(recs)-1].end, opDelete, sess, id, &errs))
			}
			perSlot[slot] = recs
		}(s)
	}
	wg.Wait()
	lr := &loadRun{elapsed: time.Since(start), errs: errs.errs}
	for _, recs := range perSlot {
		lr.recs = append(lr.recs, recs...)
	}
	return lr
}

// timed runs one op at once (due = from) and returns its record.
func (r *rig) timed(start time.Time, from time.Duration, class opClass, sess int, id pbs.JobID, errs *errLog) opRec {
	rec := opRec{class: class, session: sess, due: from, start: time.Since(start)}
	rec.ok = r.do(class, sess, id, 0, nil, errs)
	rec.end = time.Since(start)
	return rec
}

// openLoop sends ops on a fixed schedule of w.rate per second,
// whatever the system's speed, for dur. One generator goroutine picks
// each op's class and target; each call runs in its own goroutine.
func (r *rig) openLoop(seed int64, start time.Time, dur time.Duration) *loadRun {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, m := range r.w.mix {
		total += m.weight
	}
	n := int(r.w.rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / r.w.rate)
	lr := &loadRun{recs: make([]opRec, n), late: make([]time.Duration, n)}
	var (
		wg   sync.WaitGroup
		errs errLog
	)
	sem := make(chan struct{}, inflightCap)
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		lr.late[i] = time.Since(start) - due
		class := pickClass(r.w.mix, total, rng)
		sess := i % len(r.sessions)
		rec := &lr.recs[i]
		*rec = opRec{class: class, session: sess, due: due}

		var (
			id     pbs.JobID
			ok     = true
			expect int
		)
		switch class {
		case opStat:
			id, ok = r.jobs.pick(rng)
		case opStatOrdered:
			if id, ok = r.jobs.ownLast(sess); !ok {
				id, ok = r.jobs.pick(rng)
			}
		case opDelete:
			id, ok = r.jobs.takeOldest()
		case opListing:
			expect = r.jobs.live()
		}
		if !ok {
			rec.start, rec.end = time.Since(start), time.Since(start)
			errs.add("%s: no target job available", classNames[class])
			continue
		}
		select {
		case sem <- struct{}{}:
		default:
			rec.start, rec.end = time.Since(start), time.Since(start)
			errs.add("%s: %d calls already in flight", classNames[class], inflightCap)
			continue
		}
		req := heldRequest(rng)
		if r.w.runnable {
			req = runRequest(rng)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rec.start = time.Since(start)
			rec.ok = r.do(class, sess, id, expect, &req, &errs)
			rec.end = time.Since(start)
		}()
	}
	wg.Wait()
	lr.elapsed = time.Since(start)
	lr.errs = errs.errs
	return lr
}

func pickClass(mix []mixEntry, total int, rng *rand.Rand) opClass {
	x := rng.Intn(total)
	for _, m := range mix {
		if x < m.weight {
			return m.class
		}
		x -= m.weight
	}
	return mix[len(mix)-1].class
}

// do performs one op, checks its answer, and updates the ledger. A
// wrong answer counts as a failed op.
func (r *rig) do(class opClass, sess int, id pbs.JobID, expect int, req *pbs.SubmitRequest, errs *errLog) bool {
	cli := r.sessions[sess]
	switch class {
	case opSubmit:
		j, err := cli.Submit(*req)
		if err != nil {
			errs.add("submit: %v", err)
			return false
		}
		if j.ID == "" || j.Name != req.Name {
			errs.add("submit acked job %q named %q, want name %q", j.ID, j.Name, req.Name)
			return false
		}
		r.jobs.submitted(sess, j.ID)
	case opDelete:
		j, err := cli.Delete(id)
		if err != nil {
			errs.add("delete %s: %v", id, err)
			return false
		}
		if j.ID != id {
			errs.add("delete %s acked job %q", id, j.ID)
			return false
		}
		r.jobs.deleted(id)
	case opStat, opStatOrdered:
		stat := cli.Stat
		if class == opStatOrdered {
			stat = cli.StatOrdered
		}
		j, err := stat(id)
		if err != nil {
			errs.add("%s %s: %v", classNames[class], id, err)
			return false
		}
		if j.ID != id {
			errs.add("%s %s answered job %q", classNames[class], id, j.ID)
			return false
		}
	case opListing:
		jobs, err := cli.StatAll()
		if err != nil {
			errs.add("listing: %v", err)
			return false
		}
		seen := make(map[pbs.JobID]bool, len(jobs))
		for _, j := range jobs {
			if seen[j.ID] {
				errs.add("listing holds job %s twice", j.ID)
				return false
			}
			seen[j.ID] = true
		}
		// Submits and deletes in flight may land on either side of the
		// listing; anything further off is a wrong answer.
		if d := len(jobs) - expect; d > inflightCap || d < -inflightCap {
			errs.add("listing holds %d jobs, ledger expects about %d", len(jobs), expect)
			return false
		}
	}
	return true
}
