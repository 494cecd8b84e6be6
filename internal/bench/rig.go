package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
	"joshua/internal/simnet"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// This file holds what the engine-level figures (applypipe, writepath,
// checkpoint) share: one durable kvstore replication group on simnet,
// one concurrent client driver, and one latency summary. The kvstore
// service stands in for the batch system there because every qsub is
// a global scheduler barrier; puts on distinct keys isolate the
// engine.

// rigConfig is what differs between the figures' kvstore groups.
type rigConfig struct {
	// members boot the group; spares are extra peer slots a later
	// join can take.
	members, spares int
	// latency is simnet's remote hop, queueLen its default receive
	// queue depth (0 = simnet default), headQueue the replicas'
	// receive queue depth (0 = queueLen).
	latency   time.Duration
	queueLen  int
	headQueue int
	// mutate adjusts each replica's engine config; store prepares each
	// replica's service before it starts.
	mutate func(*rsm.Config)
	store  func(*kvstore.Store)
}

// kvRig is a durable kvstore group over simnet plus the clients made
// against it.
type kvRig struct {
	cfg   rigConfig
	net   *simnet.Network
	dir   string
	peers map[gcs.MemberID]transport.Addr
	reps  []*rsm.Replica
	clis  []*kvstore.Client
}

func rigMember(i int) gcs.MemberID       { return gcs.MemberID(fmt.Sprintf("rep%d", i)) }
func rigClientAddr(i int) transport.Addr { return transport.Addr(fmt.Sprintf("rep%d/kv", i)) }

// newKVRig boots cfg.members replicas with SyncPolicy=interval (the
// deployment default; cfg.mutate may override it) and waits until all
// are ready.
func newKVRig(cfg rigConfig) (*kvRig, error) {
	dir, err := os.MkdirTemp("", "joshua-bench-kv-")
	if err != nil {
		return nil, err
	}
	r := &kvRig{
		cfg: cfg,
		net: simnet.New(simnet.Config{
			Latency:  simnet.Latency{Remote: cfg.latency},
			QueueLen: cfg.queueLen,
		}),
		dir:   dir,
		peers: map[gcs.MemberID]transport.Addr{},
		reps:  make([]*rsm.Replica, cfg.members+cfg.spares),
	}
	initial := make([]gcs.MemberID, cfg.members)
	for i := range r.reps {
		r.peers[rigMember(i)] = transport.Addr(fmt.Sprintf("rep%d/gcs", i))
		if i < cfg.members {
			initial[i] = rigMember(i)
		}
	}
	for i := range initial {
		if err := r.start(i, initial); err != nil {
			r.close()
			return nil, err
		}
	}
	for i := range initial {
		if err := r.ready(i, 30*time.Second); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// start boots replica i: initial non-nil bootstraps the group, nil
// joins the running one.
func (r *kvRig) start(i int, initial []gcs.MemberID) error {
	groupEP, err := r.net.EndpointWithQueue(r.peers[rigMember(i)], r.cfg.headQueue)
	if err != nil {
		return err
	}
	clientEP, err := r.net.EndpointWithQueue(rigClientAddr(i), r.cfg.headQueue)
	if err != nil {
		groupEP.Close()
		return err
	}
	store := kvstore.NewStore()
	if r.cfg.store != nil {
		r.cfg.store(store)
	}
	cfg := rsm.Config{
		Self:             rigMember(i),
		GroupEndpoint:    groupEP,
		ClientEndpoint:   clientEP,
		Peers:            r.peers,
		InitialMembers:   initial,
		Service:          store,
		Classify:         kvstore.Classifier(store),
		RejectNotPrimary: kvstore.RejectNotPrimary,
		DataDir:          filepath.Join(r.dir, string(rigMember(i))),
		SyncPolicy:       wal.SyncInterval,
		// No figure crashes a member while timing; a slow detector
		// keeps a loop stalled by load or a blocking checkpoint from
		// being suspected.
		TuneGCS: func(g *gcs.Config) {
			g.Heartbeat = 25 * time.Millisecond
			g.FailTimeout = 2 * time.Second
		},
	}
	if r.cfg.mutate != nil {
		r.cfg.mutate(&cfg)
	}
	rep, err := rsm.Start(cfg)
	if err != nil {
		return err
	}
	r.reps[i] = rep
	return nil
}

// ready waits for replica i to install its first view (or finish its
// join or recovery).
func (r *kvRig) ready(i int, timeout time.Duration) error {
	select {
	case <-r.reps[i].Ready():
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("replica %d not ready after %v", i, timeout)
	}
}

// boot starts replica i (initial non-nil bootstraps a group, nil
// joins the running one) and returns its time to Ready.
func (r *kvRig) boot(i int, initial []gcs.MemberID) (time.Duration, error) {
	start := time.Now()
	if err := r.start(i, initial); err != nil {
		return 0, err
	}
	if err := r.ready(i, 60*time.Second); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// restart closes replica i and boots it again from its data directory
// as a one-member group.
func (r *kvRig) restart(i int) (time.Duration, error) {
	r.reps[i].Close()
	// The event loop releases its endpoints asynchronously after
	// Close; wait until the addresses can be rebound.
	for _, addr := range []transport.Addr{r.peers[rigMember(i)], rigClientAddr(i)} {
		if err := r.awaitAddrFree(addr); err != nil {
			return 0, err
		}
	}
	return r.boot(i, []gcs.MemberID{rigMember(i)})
}

// awaitAddrFree waits until addr can be bound again.
func (r *kvRig) awaitAddrFree(addr transport.Addr) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ep, err := r.net.Endpoint(addr)
		if err == nil {
			ep.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("address %s never freed: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// clients makes n clients; client c tries the replicas heads(c) in
// order. The per-attempt timeout is long: a retry would measure the
// timeout, not the path.
func (r *kvRig) clients(n int, heads func(c int) []int) ([]*kvstore.Client, error) {
	out := make([]*kvstore.Client, n)
	for c := range out {
		ep, err := r.net.Endpoint(transport.Addr(fmt.Sprintf("user%d/kv", len(r.clis))))
		if err != nil {
			return nil, err
		}
		var addrs []transport.Addr
		for _, i := range heads(c) {
			addrs = append(addrs, rigClientAddr(i))
		}
		cli, err := kvstore.NewClient(ep, addrs, 60*time.Second)
		if err != nil {
			ep.Close()
			return nil, err
		}
		r.clis = append(r.clis, cli)
		out[c] = cli
	}
	return out, nil
}

// stats returns the replicas' engine counters, started ones only.
func (r *kvRig) stats() []rsm.Stats {
	var st []rsm.Stats
	for _, rep := range r.reps {
		if rep != nil {
			st = append(st, rep.Stats())
		}
	}
	return st
}

func (r *kvRig) close() {
	for _, cli := range r.clis {
		cli.Close()
	}
	for _, rep := range r.reps {
		if rep != nil {
			rep.Close()
		}
	}
	r.net.Close()
	os.RemoveAll(r.dir)
}

// driven is one drive run.
type driven struct {
	// lats holds the latency of every completed call, unsorted.
	lats []time.Duration
	ops  int
	// elapsed runs from the clients' release until the last returned.
	elapsed time.Duration
}

// drive runs op from clients concurrent goroutines, op(c, i) being
// client c's i-th call. With until nil every client makes n calls;
// otherwise the clients loop until until, run on the calling goroutine
// once they are released, returns. The first error from op or until
// fails the whole run: no partial sample is returned.
func drive(clients, n int, until func() error, op func(c, i int) error) (driven, error) {
	per := make([][]time.Duration, clients)
	var flat []time.Duration // a fixed-count run's samples, in place
	if until == nil {
		flat = make([]time.Duration, clients*n)
		for c := range per {
			per[c] = flat[c*n : c*n : (c+1)*n]
		}
	}
	stop := make(chan struct{})
	errs := make([]error, clients)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			for i := 0; until != nil || i < n; i++ {
				if until != nil {
					select {
					case <-stop:
						return
					default:
					}
				}
				t0 := time.Now()
				if err := op(c, i); err != nil {
					errs[c] = err
					return
				}
				per[c] = append(per[c], time.Since(t0))
			}
		}()
	}
	start := time.Now()
	close(gate)
	var err error
	if until != nil {
		err = until()
		close(stop)
	}
	wg.Wait()
	d := driven{lats: flat, elapsed: time.Since(start)}
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	if err != nil {
		return driven{}, err
	}
	if until != nil {
		for _, l := range per {
			d.lats = append(d.lats, l...)
		}
	}
	d.ops = len(d.lats)
	return d, nil
}

// perSec is ops per second of elapsed.
func (d driven) perSec() float64 {
	if d.elapsed <= 0 {
		return 0
	}
	return float64(d.ops) / d.elapsed.Seconds()
}

// latency is a latency sample's summary.
type latency struct{ p50, p99, p999, max time.Duration }

// summarize sorts lats in place and returns its nearest-rank
// quantiles.
func summarize(lats []time.Duration) latency {
	if len(lats) == 0 {
		return latency{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		return lats[min(max(int(p*float64(len(lats))+0.5)-1, 0), len(lats)-1)]
	}
	return latency{p50: q(0.50), p99: q(0.99), p999: q(0.999), max: lats[len(lats)-1]}
}
