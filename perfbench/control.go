package main

import (
	"fmt"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/joshua"
	"joshua/internal/rsm"
	"joshua/internal/simnet"
)

// headSample is one reading of a head's public counters.
type headSample struct {
	rsm      rsm.Stats
	gcs      gcs.Stats
	rcHits   uint64
	rcMisses uint64
	queued   int
}

func sampleHead(h *joshua.Server) headSample {
	rep := h.Replica()
	srv := h.Daemon().Server()
	s := headSample{rsm: rep.Stats(), gcs: rep.GroupStats()}
	s.rcHits, s.rcMisses = srv.ReadCacheStats()
	s.queued, _, _ = srv.QueueLengths()
	return s
}

// instance is one incarnation of a head: a restarted head is a new
// instance whose counters start again from zero.
type instance struct {
	first, last headSample
}

// event is a fault span boundary.
type event struct {
	at   time.Duration
	what string
}

// controller is the only goroutine that touches the cluster's head
// map while the load runs: the map is not synchronized, so fault
// actions and every Head(i) poll happen here.
type controller struct {
	r      *rig
	traced bool
	start  time.Time
	dur    time.Duration

	insts   []*instance
	current map[int]*instance
	samples [][]headSample // per 100 ms tick (traced)
	// net holds the network counters at the start, at every sample and
	// at the end.
	net    []simnet.Stats
	events []event

	crashAt, restartAt      time.Duration
	viewChange, restartCall time.Duration
	catchup                 time.Duration
	restarted               *instance
	err                     error
}

// newController takes every live head's first sample; it runs before
// the load starts, on the goroutine that will later start run.
func newController(r *rig, traced bool, start time.Time, dur time.Duration) *controller {
	c := &controller{r: r, traced: traced, start: start, dur: dur, current: make(map[int]*instance)}
	c.net = append(c.net, r.c.Net.Stats())
	for _, i := range r.c.LiveHeads() {
		s := sampleHead(r.c.Head(i))
		in := &instance{first: s, last: s}
		c.insts = append(c.insts, in)
		c.current[i] = in
	}
	return c
}

// catchupTimeout bounds the wait for a restarted head after the load
// has ended.
const catchupTimeout = 30 * time.Second

// run performs the workload's fault schedule and, when traced, samples
// every head each 100 ms, until stop is closed and the schedule is
// complete. It then takes every live head's last sample.
func (c *controller) run(stop <-chan struct{}) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	const (
		steady = iota
		crashed
		viewDone
		rejoining
		done
	)
	phase := steady
	if !c.r.w.failover {
		phase = done
	}
	var (
		stopped    bool
		stoppedAt  time.Time
		nextSample time.Duration
		target     uint64
		seen       = map[int]bool{}
	)
	for {
		select {
		case <-stop:
			stop = nil
			stopped, stoppedAt = true, time.Now()
		case <-tick.C:
		}
		el := time.Since(c.start)
		switch {
		case phase == steady && el >= c.dur/3:
			c.crash(0, el)
			phase = crashed
		case phase == crashed:
			// Each survivor installs the view without the victim on its
			// own; the view change ends when the last one has.
			all := true
			for _, i := range c.r.c.LiveHeads() {
				if seen[i] {
					continue
				}
				if hasMember(c.r.c.Head(i).View(), 0) {
					all = false
					continue
				}
				seen[i] = true
				c.events = append(c.events, event{el, fmt.Sprintf("head%d installed view without head0", i)})
			}
			if all {
				c.viewChange = el - c.crashAt
				phase = viewDone
			}
		case phase == viewDone && el >= 2*c.dur/3:
			target = c.restart(0, el)
			phase = rejoining
			if c.err != nil {
				phase = done
			}
		case phase == rejoining:
			if c.r.c.Head(0).Replica().Stats().AppliedIndex >= target {
				c.catchup = time.Since(c.start) - c.restartAt - c.restartCall
				c.events = append(c.events, event{time.Since(c.start), "head0 caught up"})
				phase = done
			}
		}
		if c.traced && el >= nextSample {
			c.sample()
			nextSample += 100 * time.Millisecond
		}
		if stopped && phase == done {
			break
		}
		if stopped && time.Since(stoppedAt) > catchupTimeout {
			c.err = fmt.Errorf("fault schedule unfinished %v after the load ended (phase %d)", catchupTimeout, phase)
			break
		}
	}
	for _, i := range c.r.c.LiveHeads() {
		c.current[i].last = sampleHead(c.r.c.Head(i))
	}
	c.net = append(c.net, c.r.c.Net.Stats())
}

func hasMember(v gcs.View, head int) bool {
	for _, m := range v.Members {
		if m == gcs.MemberID(fmt.Sprintf("head%d", head)) {
			return true
		}
	}
	return false
}

// crash fail-stops a head after taking its last sample.
func (c *controller) crash(head int, el time.Duration) {
	c.current[head].last = sampleHead(c.r.c.Head(head))
	c.r.c.CrashHead(head)
	c.crashAt = el
	c.events = append(c.events, event{el, fmt.Sprintf("crash head%d", head)})
}

// restart restarts a crashed head from its data directory and returns
// the applied index the survivors had reached at the restart call,
// which the restarted head must reach to have caught up.
func (c *controller) restart(head int, el time.Duration) uint64 {
	var target uint64
	for _, i := range c.r.c.LiveHeads() {
		if a := c.r.c.Head(i).Replica().Stats().AppliedIndex; a > target {
			target = a
		}
	}
	c.restartAt = el
	c.events = append(c.events, event{el, fmt.Sprintf("restart head%d", head)})
	t := time.Now()
	if err := c.r.c.RestartHeads(head); err != nil {
		c.err = fmt.Errorf("restart head%d: %w", head, err)
		return 0
	}
	c.restartCall = time.Since(t)
	c.events = append(c.events, event{time.Since(c.start), fmt.Sprintf("head%d restart call returned", head)})
	in := &instance{}
	c.insts = append(c.insts, in)
	c.current[head] = in
	c.restarted = in
	return target
}

// sample reads every live head's counters and the network's.
func (c *controller) sample() {
	var row []headSample
	for _, i := range c.r.c.LiveHeads() {
		row = append(row, sampleHead(c.r.c.Head(i)))
	}
	c.samples = append(c.samples, row)
	c.net = append(c.net, c.r.c.Net.Stats())
}
