package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// leaseStats sums the lease counters across a cluster's live heads.
func leaseStats(c *Cluster) (reads, fallbacks, revocations uint64, held int) {
	for _, i := range c.LiveHeads() {
		st := c.Head(i).Replica().Stats()
		reads += st.LeaseReads
		fallbacks += st.LeaseFallbacks
		revocations += st.LeaseRevocations
		if st.LeaseHeld {
			held++
		}
	}
	return
}

// TestLeasedReadsServeLocally checks the steady-state contract: with
// leases enabled (the default), every head of a quiet group holds a
// live lease, ordered reads are served locally (LeaseReads advances,
// the broadcast counter does not), and the answers are serialized
// with the mutations they follow.
func TestLeasedReadsServeLocally(t *testing.T) {
	opts := testOptions(3, 1)
	opts.ClientTimeout = 50 * time.Millisecond
	c := newCluster(t, opts)

	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 5
	for i := 0; i < jobs; i++ {
		if _, err := cli.Submit(pbs.SubmitRequest{Name: "leased", Hold: true}); err != nil {
			t.Fatal(err)
		}
	}

	// Every head should be granted a lease within a heartbeat or two.
	waitFor(t, 5*time.Second, "all heads holding a lease", func() bool {
		_, _, _, held := leaseStats(c)
		return held == len(c.LiveHeads())
	})

	// Ordered reads must now be answered locally — and still see every
	// acked submission (they are linearizable, not best-effort).
	waitFor(t, 5*time.Second, "a leased read being served", func() bool {
		listing, err := cli.StatAllOrdered()
		if err != nil {
			t.Fatalf("ordered read: %v", err)
		}
		if len(listing) != jobs {
			t.Fatalf("ordered read saw %d jobs, want %d", len(listing), jobs)
		}
		reads, _, _, _ := leaseStats(c)
		return reads > 0
	})
}

// TestLeaseExpiryFallsBackToBroadcast pins the lease duration to one
// nanosecond: grants flow, but every lease is stale by the time a
// read arrives, so each ordered read must take the automatic fallback
// through the total order — and still answer correctly.
func TestLeaseExpiryFallsBackToBroadcast(t *testing.T) {
	opts := testOptions(2, 1)
	opts.ClientTimeout = 50 * time.Millisecond
	opts.Engine = func(c *rsm.Config) { c.LeaseDuration = time.Nanosecond }
	c := newCluster(t, opts)

	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Submit(pbs.SubmitRequest{Name: "expired", Hold: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		listing, err := cli.StatAllOrdered()
		if err != nil {
			t.Fatal(err)
		}
		if len(listing) != 1 {
			t.Fatalf("ordered read saw %d jobs, want 1", len(listing))
		}
	}
	reads, fallbacks, _, _ := leaseStats(c)
	if reads != 0 {
		t.Errorf("served %d leased reads under a 1ns lease; all should expire first", reads)
	}
	if fallbacks == 0 {
		t.Error("no fallbacks counted; the ordered reads took neither path?")
	}
}

// TestLeaseRevokedOnSequencerCrash crashes the lease-granting
// sequencer and checks the safety half of the protocol: the
// survivors synchronously revoke their leases on entering the flush
// (the revocation counter moves), ordered reads issued across the
// view change stay linearizable — every read observes every
// submission acked before it started — and once the new view settles,
// its new sequencer resumes granting and leased reads flow again.
func TestLeaseRevokedOnSequencerCrash(t *testing.T) {
	opts := testOptions(3, 1)
	opts.ClientTimeout = 50 * time.Millisecond
	c := newCluster(t, opts)

	submitCli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	readCli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}

	var acked atomic.Int64
	submit := func() {
		if _, err := submitCli.Submit(pbs.SubmitRequest{Name: "rev", Hold: true}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		acked.Add(1)
	}
	// checkOrdered must see at least every submission acked before the
	// read began (linearizability across the crash).
	checkOrdered := func() {
		floor := acked.Load()
		listing, err := readCli.StatAllOrdered()
		if err != nil {
			t.Fatalf("ordered read: %v", err)
		}
		if int64(len(listing)) < floor {
			t.Fatalf("ordered read saw %d jobs after %d were acked", len(listing), floor)
		}
	}

	for i := 0; i < 5; i++ {
		submit()
	}
	waitFor(t, 5*time.Second, "all heads holding a lease", func() bool {
		_, _, _, held := leaseStats(c)
		return held == len(c.LiveHeads())
	})
	checkOrdered()

	// Members[0] of the view is the sequencer; with heads 0..2 that is
	// head0. Crash it and immediately read through the view change.
	c.CrashHead(0)
	for i := 0; i < 10; i++ {
		checkOrdered()
	}
	// Mutations must come back once the survivors form the new view,
	// and stay visible to ordered reads.
	submit()
	checkOrdered()

	_, _, revocations, _ := leaseStats(c)
	if revocations == 0 {
		t.Error("no lease revocations counted across a sequencer crash")
	}
	// The new sequencer grants again: leased reads resume.
	waitFor(t, 5*time.Second, "leased reads resuming under the new view", func() bool {
		before, _, _, _ := leaseStats(c)
		checkOrdered()
		after, _, _, _ := leaseStats(c)
		return after > before
	})
}

// TestLeasedReadsNeverRegressBelowAckedMutation is the -race stress
// half of the lease safety argument: concurrent writers submit held
// jobs while concurrent readers issue ordered listings, and every
// listing must contain at least as many jobs as had been acked when
// the read began, as a gapless prefix of the submission order. The
// read path mixes leased (local) and fallback (broadcast) service
// freely; neither may regress below an acked mutation.
func TestLeasedReadsNeverRegressBelowAckedMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second stress run")
	}
	opts := testOptions(3, 1)
	opts.ClientTimeout = 50 * time.Millisecond
	c := newCluster(t, opts)

	const submissions = 40
	const readers = 3

	submitCli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Int64
	submitDone := make(chan error, 1)
	go func() {
		for i := 0; i < submissions; i++ {
			if _, err := submitCli.Submit(pbs.SubmitRequest{Name: "floor", Hold: true}); err != nil {
				submitDone <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			acked.Add(1)
		}
		submitDone <- nil
	}()

	stop := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for p := 0; p < readers; p++ {
		cli, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := acked.Load()
				listing, err := cli.StatAllOrdered()
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %w", p, err)
					return
				}
				if int64(len(listing)) < floor {
					errCh <- fmt.Errorf("reader %d: listing of %d jobs regressed below %d acked", p, len(listing), floor)
					return
				}
				if err := checkPrefix(listing); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", p, err)
					return
				}
			}
		}(p)
	}

	if err := <-submitDone; err != nil {
		t.Fatal(err)
	}
	// Let the readers observe the final state for a moment.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	reads, fallbacks, _, _ := leaseStats(c)
	if reads == 0 {
		t.Error("no leased reads served; the stress never exercised the lease path")
	}
	t.Logf("%d leased reads, %d fallbacks across %d submissions", reads, fallbacks, submissions)
}

// TestLeasedReadsUnderWriteLoad is the read-index half of the lease
// contract: while one client streams submits through head 0, another
// issues ordered stats of the newest acked job through heads 1 and 2.
// Every read must see that job, and the reads must stay leased — a
// head whose apply trails the write stream parks the read until it
// catches up instead of broadcasting it, so fallbacks stay rare.
func TestLeasedReadsUnderWriteLoad(t *testing.T) {
	opts := testOptions(3, 1)
	opts.ClientTimeout = 50 * time.Millisecond
	c := newCluster(t, opts)

	submitCli, err := c.ClientFor(0)
	if err != nil {
		t.Fatal(err)
	}
	readCli, err := c.ClientFor(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "all heads holding a lease", func() bool {
		_, _, _, held := leaseStats(c)
		return held == len(c.LiveHeads())
	})

	var newest atomic.Value // pbs.JobID of the newest acked submit
	stop := make(chan struct{})
	submitDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				submitDone <- nil
				return
			default:
			}
			j, err := submitCli.Submit(pbs.SubmitRequest{Name: "load", Hold: true})
			if err != nil {
				submitDone <- fmt.Errorf("submit: %w", err)
				return
			}
			newest.Store(j.ID)
		}
	}()
	waitFor(t, 5*time.Second, "a first acked submit", func() bool { return newest.Load() != nil })

	reads0, fallbacks0, _, _ := leaseStats(c)
	const orderedReads = 200
	for i := 0; i < orderedReads; i++ {
		id := newest.Load().(pbs.JobID)
		j, err := readCli.StatOrdered(id)
		if err != nil {
			t.Fatalf("ordered stat %d of %s: %v", i, id, err)
		}
		if j.ID != id {
			t.Fatalf("ordered stat %d of acked job %s returned %q", i, id, j.ID)
		}
	}
	close(stop)
	if err := <-submitDone; err != nil {
		t.Fatal(err)
	}

	reads1, fallbacks1, _, _ := leaseStats(c)
	reads, fallbacks := reads1-reads0, fallbacks1-fallbacks0
	t.Logf("%d ordered reads: %d leased, %d fallbacks", orderedReads, reads, fallbacks)
	if fallbacks*10 > orderedReads {
		t.Errorf("%d of %d ordered reads fell back to the broadcast under write load, want at most 10%%", fallbacks, orderedReads)
	}
	if reads == 0 {
		t.Error("no leased reads served under write load")
	}
}
