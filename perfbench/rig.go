package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/cluster"
	"joshua/internal/gcs"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// sessionCount is the number of client sessions: one per CPU, as many
// login sessions as the machine could drive in parallel.
func sessionCount() int { return runtime.NumCPU() }

// preloadChunk is the number of jobs per SubmitBatch call in setup.
const preloadChunk = 500

// rig is one booted cluster with its client sessions.
type rig struct {
	w        *workload
	c        *cluster.Cluster
	heads    int
	dataDir  string
	sessions []*joshua.Client
	// eps are the sessions' wrapped endpoints (traced runs only).
	eps []*countingEP
	// jobs tracks every job the benchmark knows to exist.
	jobs *ledger
}

// newRig boots the cluster, opens the client sessions, runs the
// workload's preload and waits until every head has applied it.
func newRig(w *workload, heads int, seed int64, traced bool) (*rig, error) {
	dir, err := os.MkdirTemp("", "perfbench-heads-")
	if err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	c, err := cluster.New(cluster.Options{
		Heads:    heads,
		Computes: w.computes,
		// The paper's FIFO scheduler with exclusive node access, the
		// policy under which heads that apply mom reports on their own
		// stay identical.
		Exclusive: true,
		Latency:   simnet.Latency{Local: localDelay, Remote: remoteDelay},
		Seed:      seed,
		DataDir:   dir,
		TuneGCS: func(g *gcs.Config) {
			g.Heartbeat = heartbeat
			g.FailTimeout = failTimeout
		},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("cluster: %w", err)
	}
	r := &rig{w: w, c: c, heads: heads, dataDir: dir, jobs: newLedger(sessionCount())}
	if err := r.start(seed, traced); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) start(seed int64, traced bool) error {
	if err := r.c.WaitReady(30 * time.Second); err != nil {
		return err
	}
	for i := 0; i < sessionCount(); i++ {
		cli, ep, err := r.session(fmt.Sprintf("bench%d/cli", i), traced)
		if err != nil {
			return err
		}
		r.sessions = append(r.sessions, cli)
		r.eps = append(r.eps, ep)
	}
	rng := rand.New(rand.NewSource(seed))
	cli := r.sessions[0]
	for left := r.w.preloadHeld; left > 0; left -= preloadChunk {
		n := min(left, preloadChunk)
		jobs, err := cli.SubmitBatch(heldRequest(rng), n)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if len(jobs) != n {
			return fmt.Errorf("preload: asked for %d jobs, got %d", n, len(jobs))
		}
		for _, j := range jobs {
			r.jobs.submitted(0, j.ID)
		}
	}
	return r.converge(30 * time.Second)
}

// session opens one client session on its own simulated endpoint,
// wrapped for counting when traced.
func (r *rig) session(addr string, traced bool) (*joshua.Client, *countingEP, error) {
	raw, err := r.c.Net.Endpoint(transport.Addr(addr))
	if err != nil {
		return nil, nil, fmt.Errorf("endpoint %s: %w", addr, err)
	}
	var ep transport.Endpoint = raw
	var cep *countingEP
	if traced {
		cep = newCountingEP(raw)
		ep = cep
	}
	heads := make([]transport.Addr, r.heads)
	for i := range heads {
		heads[i] = cluster.HeadClientAddr(i)
	}
	cli, err := joshua.NewClient(joshua.ClientConfig{Endpoint: ep, Heads: heads, AttemptTimeout: attemptTimeout})
	if err != nil {
		ep.Close()
		return nil, nil, fmt.Errorf("client %s: %w", addr, err)
	}
	return cli, cep, nil
}

// converge waits until every live head has applied the same commands
// and holds no unfinished runnable job, so that timing starts on a
// settled cluster and the correctness gate compares settled states.
func (r *rig) converge(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stable := 0
	var last uint64
	for {
		idx, settled := r.appliedAgreement()
		if settled && idx == last {
			stable++
		} else {
			stable = 0
		}
		last = idx
		if stable >= 3 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("heads did not converge within %v:%s", timeout, r.headStates())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// appliedAgreement reports the common applied index of the live heads
// and whether they agree on it with no runnable job left unfinished.
func (r *rig) appliedAgreement() (uint64, bool) {
	var idx uint64
	for k, i := range r.c.LiveHeads() {
		h := r.c.Head(i)
		a := h.Replica().Stats().AppliedIndex
		if k > 0 && a != idx {
			return a, false
		}
		idx = a
		if _, running, _ := h.Daemon().Server().QueueLengths(); running > 0 {
			return idx, false
		}
		if r.w.runnable {
			for _, j := range h.Daemon().Server().StatusAll() {
				if j.State == pbs.StateQueued {
					return idx, false
				}
			}
		}
	}
	return idx, true
}

// headStates describes each live head's progress, for diagnostics.
func (r *rig) headStates() string {
	var b strings.Builder
	for _, i := range r.c.LiveHeads() {
		h := r.c.Head(i)
		waiting, running, completed := h.Daemon().Server().QueueLengths()
		fmt.Fprintf(&b, " head%d applied %d, waiting %d, running %d, completed %d;",
			i, h.Replica().Stats().AppliedIndex, waiting, running, completed)
	}
	return b.String()
}

// close tears the cluster down and removes the heads' data.
func (r *rig) close() {
	for _, s := range r.sessions {
		s.Close()
	}
	r.c.Close()
	os.RemoveAll(r.dataDir)
}

// heldRequest is a generated held job, never scheduled.
func heldRequest(rng *rand.Rand) pbs.SubmitRequest {
	return pbs.SubmitRequest{
		Name:   fmt.Sprintf("h%05d", rng.Intn(100000)),
		Owner:  owners[rng.Intn(len(owners))],
		Script: "#PBS -N held\necho held\n",
		Hold:   true,
	}
}

// runRequest is a generated short runnable job.
func runRequest(rng *rand.Rand) pbs.SubmitRequest {
	return pbs.SubmitRequest{
		Name:     fmt.Sprintf("r%05d", rng.Intn(100000)),
		Owner:    owners[rng.Intn(len(owners))],
		Script:   "#PBS -N run\necho ran\n",
		WallTime: 10 * time.Millisecond,
	}
}

var owners = []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}

// ledger tracks the jobs the benchmark created and deleted, so reads
// only target jobs that exist and the gate knows what each head must
// hold.
type ledger struct {
	mu sync.Mutex
	// order lists acked submissions in ack order; order[head:] are
	// the ones not yet handed to a delete.
	order []pbs.JobID
	head  int
	// state is true for an acked live job, false once its delete was
	// acked; jobs whose delete failed stay true.
	state map[pbs.JobID]bool
	// lastBy is each session's newest acked submission.
	lastBy []pbs.JobID
}

func newLedger(sessions int) *ledger {
	return &ledger{state: make(map[pbs.JobID]bool), lastBy: make([]pbs.JobID, sessions)}
}

func (l *ledger) submitted(session int, id pbs.JobID) {
	l.mu.Lock()
	l.order = append(l.order, id)
	l.state[id] = true
	l.lastBy[session] = id
	l.mu.Unlock()
}

// submittedPrivate records a job its submitter deletes itself, so it
// never becomes a target of other ops.
func (l *ledger) submittedPrivate(id pbs.JobID) {
	l.mu.Lock()
	l.state[id] = true
	l.mu.Unlock()
}

func (l *ledger) deleted(id pbs.JobID) {
	l.mu.Lock()
	l.state[id] = false
	l.mu.Unlock()
}

// live is the number of acked jobs not yet handed to a delete.
func (l *ledger) live() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order) - l.head
}

// takeOldest hands the oldest live job to a delete.
func (l *ledger) takeOldest() (pbs.JobID, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head >= len(l.order) {
		return "", false
	}
	id := l.order[l.head]
	l.head++
	return id, true
}

// Read targets keep clear of both ends of the live list: the oldest
// jobs may be deleted while a read is in flight, and the newest may not
// have reached every head yet (plain Stat is not read-your-writes).
const (
	guardOld = 256
	guardNew = 32
)

// pick returns a random live job away from both ends of the list.
func (l *ledger) pick(rng *rand.Rand) (pbs.JobID, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo, hi := l.head, len(l.order)
	if hi-lo > guardNew {
		hi -= guardNew
	}
	if hi-lo > guardOld {
		lo += guardOld
	}
	if hi <= lo {
		return "", false
	}
	return l.order[lo+rng.Intn(hi-lo)], true
}

// ownLast is the session's newest acked submission, the target of its
// read-your-writes check.
func (l *ledger) ownLast(session int) (pbs.JobID, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.lastBy[session]
	return id, id != ""
}

// snapshot copies the expected state for the gate.
func (l *ledger) snapshot() map[pbs.JobID]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[pbs.JobID]bool, len(l.state))
	for id, live := range l.state {
		m[id] = live
	}
	return m
}

// countingEP wraps a client endpoint and counts what crosses it.
type countingEP struct {
	transport.Endpoint
	out                  chan transport.Message
	sent, sentBytes      atomic.Uint64
	received, recvdBytes atomic.Uint64
}

func newCountingEP(inner transport.Endpoint) *countingEP {
	e := &countingEP{Endpoint: inner, out: make(chan transport.Message)}
	go func() {
		// Ends when the client closes the endpoint: the inner channel
		// closes, and the client's receive loop drains e.out until then.
		for m := range inner.Recv() {
			e.received.Add(1)
			e.recvdBytes.Add(uint64(len(m.Payload)))
			e.out <- m
		}
		close(e.out)
	}()
	return e
}

func (e *countingEP) Send(to transport.Addr, payload []byte) error {
	e.sent.Add(1)
	e.sentBytes.Add(uint64(len(payload)))
	return e.Endpoint.Send(to, payload)
}

func (e *countingEP) Recv() <-chan transport.Message { return e.out }
