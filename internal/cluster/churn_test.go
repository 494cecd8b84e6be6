package cluster

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/availability"
	"joshua/internal/pbs"
)

// TestChurnWithRASMetrics is the endurance experiment the paper's
// future work calls for: head nodes crash and are repaired at random
// while users keep submitting, RAS metrics are recorded throughout,
// and at the end the service must show 100% availability (at least
// one head alive at every moment), zero failed user commands, and
// fully convergent replicas.
func TestChurnWithRASMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second churn run")
	}
	const heads = 4
	opts := testOptions(heads, 1)
	// A client pays one attempt timeout per crashed head it tries;
	// at the 1s default a single submit can outlast the churn.
	opts.ClientTimeout = 100 * time.Millisecond
	c := newCluster(t, opts)
	tracker := availability.NewTracker(nil)
	for i := 0; i < heads; i++ {
		tracker.HeadUp(fmt.Sprintf("head%d", i))
	}

	// Continuous submission load. Errors are recorded and checked
	// after the goroutine is joined (never report from a goroutine
	// that may outlive the test).
	stop := make(chan struct{})
	loadDone := make(chan error, 1)
	var submitted atomic.Int64
	go func() {
		cli, err := c.Client()
		if err != nil {
			loadDone <- err
			return
		}
		for {
			select {
			case <-stop:
				loadDone <- nil
				return
			default:
			}
			if _, err := cli.Submit(pbs.SubmitRequest{Name: "churn", Hold: true}); err != nil {
				loadDone <- fmt.Errorf("submission failed during churn: %w", err)
				return
			}
			submitted.Add(1)
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Random crash/repair churn, always keeping >= 1 head alive.
	rng := rand.New(rand.NewSource(7))
	deadline := time.Now().Add(3 * time.Second)
	crashes := 0
	var beforeCrash int64
	for time.Now().Before(deadline) {
		time.Sleep(200 * time.Millisecond)
		live := c.LiveHeads()
		dead := make([]int, 0, heads)
		for i := 0; i < heads; i++ {
			if c.Head(i) == nil {
				dead = append(dead, i)
			}
		}
		if len(live) > 1 && (len(dead) == 0 || rng.Intn(2) == 0) {
			victim := live[rng.Intn(len(live))]
			if crashes == 0 {
				beforeCrash = submitted.Load()
			}
			c.CrashHead(victim)
			tracker.HeadDown(fmt.Sprintf("head%d", victim))
			crashes++
		} else if len(dead) > 0 {
			back := dead[rng.Intn(len(dead))]
			if err := c.AddHead(back); err == nil {
				tracker.HeadUp(fmt.Sprintf("head%d", back))
			}
		}
	}
	close(stop)
	if err := <-loadDone; err != nil {
		t.Fatal(err)
	}

	if crashes == 0 {
		t.Fatal("churn produced no crashes; test is vacuous")
	}
	total := int(submitted.Load())
	if total < 20 {
		t.Fatalf("only %d submissions went through", total)
	}
	// The load must keep flowing across the churn, not just before it.
	if after := total - int(beforeCrash); after < 20 {
		t.Fatalf("only %d of %d submissions were acknowledged after the first crash", after, total)
	}

	// Every live head converges on exactly the submitted set.
	waitFor(t, 30*time.Second, "replicas converge after churn", func() bool {
		for _, i := range c.LiveHeads() {
			waiting, running, completed := c.Head(i).Daemon().Server().QueueLengths()
			if waiting+running+completed != total {
				return false
			}
		}
		ok, _ := headsConsistent(c)
		return ok
	})

	// The RAS record shows what the paper promises: individual head
	// failures, zero service outages, 100% availability.
	r := tracker.Report()
	t.Logf("churn RAS report (%d crashes, %d submissions):\n%s", crashes, total, r)
	if r.Outages != 0 {
		t.Errorf("service outages = %d, want 0", r.Outages)
	}
	if r.Availability != 1.0 {
		t.Errorf("service availability = %v, want 1.0", r.Availability)
	}
	headFailures := 0
	for _, h := range r.Heads {
		headFailures += h.Failures
	}
	if headFailures != crashes {
		t.Errorf("recorded head failures = %d, want %d", headFailures, crashes)
	}
}
