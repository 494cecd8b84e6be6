package gcs

import (
	"fmt"
	"testing"
	"time"

	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// safeGroup builds a group with safe delivery (and optionally
// loopback self-delivery) enabled.
func safeGroup(t *testing.T, net *simnet.Network, n int, loopback bool) []*observer {
	return group(t, net, n, func(i int, c *Config) {
		c.SafeDelivery = true
		c.LoopbackSelfDelivery = loopback
	})
}

func TestSafeDeliveryTotalOrder(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := safeGroup(t, net, 3, true)

	const perSender = 15
	for i, o := range obs {
		go func(i int, o *observer) {
			for k := 0; k < perSender; k++ {
				o.p.Broadcast([]byte(fmt.Sprintf("m%d-%d", i, k)))
			}
		}(i, o)
	}
	total := perSender * len(obs)
	waitFor(t, 15*time.Second, "all safe deliveries", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) != total {
				return false
			}
		}
		return true
	})
	ref := obs[0].deliveredPayloads()
	for _, o := range obs[1:] {
		got := o.deliveredPayloads()
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("safe total order violated at %d: %q vs %q", k, got[k], ref[k])
			}
		}
	}
}

func TestSafeDeliveryWithLoss(t *testing.T) {
	// Lost acks must be recovered by periodic re-acks, not stall
	// delivery forever.
	net := simnet.New(simnet.Config{
		Latency:  simnet.Latency{Remote: time.Millisecond},
		DropRate: 0.1,
		Seed:     11,
	})
	defer net.Close()
	obs := safeGroup(t, net, 3, false)

	for k := 0; k < 10; k++ {
		obs[k%3].p.Broadcast([]byte(fmt.Sprintf("m%d", k)))
	}
	waitFor(t, 20*time.Second, "safe deliveries despite loss", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) != 10 {
				return false
			}
		}
		return true
	})
}

func TestSafeDeliverySurvivesFailure(t *testing.T) {
	// A member dying mid-ack-round must not wedge delivery: the view
	// change's agreed final sequence supersedes the ack condition.
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := safeGroup(t, net, 3, false)

	obs[1].p.Broadcast([]byte("before"))
	waitFor(t, 5*time.Second, "initial delivery", func() bool {
		return len(obs[0].deliveredPayloads()) == 1
	})

	net.CrashHost("host2")
	obs[2].p.Close()
	obs[1].p.Broadcast([]byte("during"))

	waitFor(t, 15*time.Second, "delivery resumes after view change", func() bool {
		for _, i := range []int{0, 1} {
			d := obs[i].deliveredPayloads()
			if len(d) != 2 || d[1] != "during" {
				return false
			}
		}
		return true
	})
}

func TestLoopbackSelfDeliverySingleton(t *testing.T) {
	// With loopback, self-delivery pays the local hop; semantics are
	// unchanged.
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Local: 5 * time.Millisecond}})
	defer net.Close()
	ep, _ := net.Endpoint("h/gcs")
	cfg := Config{
		Self:                 "solo",
		Endpoint:             ep,
		Peers:                map[MemberID]transport.Addr{"solo": "h/gcs"},
		Bootstrap:            true,
		LoopbackSelfDelivery: true,
	}
	fastTimings(&cfg)
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	o := observe(p)

	start := time.Now()
	p.Broadcast([]byte("one"))
	waitFor(t, 5*time.Second, "loopback delivery", func() bool {
		return len(o.deliveredPayloads()) == 1
	})
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Errorf("delivery took %v; loopback should pay the ~5ms local hop", d)
	}
}

func TestSafeSlowerThanAgreed(t *testing.T) {
	// The ablation behind the latency model: safe delivery costs an
	// extra acknowledgment round.
	run := func(safe bool) time.Duration {
		net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: 10 * time.Millisecond}})
		defer net.Close()
		obs := group(t, net, 3, func(i int, c *Config) {
			c.SafeDelivery = safe
		})
		// Warm up.
		obs[0].p.Broadcast([]byte("warm"))
		waitFor(t, 10*time.Second, "warmup", func() bool {
			return len(obs[2].deliveredPayloads()) == 1
		})
		start := time.Now()
		obs[2].p.Broadcast([]byte("timed"))
		waitFor(t, 10*time.Second, "timed delivery", func() bool {
			return len(obs[2].deliveredPayloads()) == 2
		})
		return time.Since(start)
	}
	agreed := run(false)
	safe := run(true)
	if safe <= agreed {
		t.Errorf("safe (%v) should be slower than agreed (%v)", safe, agreed)
	}
}

// TestLeasedReadIndexCoversReceivedSuffix pins the read index: a
// message this member has received but may not deliver yet (one member
// is cut off from the sequencer, so the safe watermark cannot pass it)
// already counts, so a leased read waits for it instead of being served
// from state that misses a command the sequencer may acknowledge.
func TestLeasedReadIndexCoversReceivedSuffix(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, func(i int, c *Config) {
		c.SafeDelivery = true
		c.FailTimeout = 2 * time.Second // no suspicion while host2 is cut off
	})
	m1 := obs[1]
	delivered := func() uint64 { return uint64(len(m1.deliveredPayloads())) }
	waitFor(t, 5*time.Second, "m1 holding a lease on an idle group", func() bool {
		idx, ok := m1.p.LeasedReadIndex()
		return ok && idx == delivered()
	})

	net.Partition("host0", "host2")
	before := delivered()
	if err := m1.p.Broadcast([]byte("stuck")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "m1 counting the received message", func() bool {
		idx, ok := m1.p.LeasedReadIndex()
		return ok && idx == before+1
	})
	if got := delivered(); got != before {
		t.Fatalf("delivered %d -> %d past the safe watermark", before, got)
	}

	net.Heal("host0", "host2")
	waitFor(t, 5*time.Second, "the message delivered once host2 acks", func() bool {
		return delivered() == before+1
	})
}
