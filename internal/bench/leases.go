package bench

import (
	"fmt"
	"strings"
	"time"

	"joshua/internal/cluster"
	"joshua/internal/joshua"
	"joshua/internal/rsm"
)

// This file measures the three read consistency levels side by side
// (DESIGN.md §6.7): local unordered reads (any head answers from its
// replica, no ordering guarantee), leased linearizable reads (a head
// holding a live sequencer lease answers ordered reads locally), and
// the broadcast-ordered ablation (leases disabled, every ordered read
// replicated through the total order — the pre-lease jstat -ordered
// path). The workload is a pure-read phase after a seeded queue: the
// interesting quantity is how close leased linearizable reads come to
// the local unordered ceiling, and how far both are from paying a
// full ordering round per query.

// LeaseVariant is one measured read path.
type LeaseVariant struct {
	// Name is "local", "leased", or "broadcast".
	Name string `json:"variant"`
	// Reads is how many listings completed inside the timed window.
	Reads int64 `json:"reads"`
	// ReadsPerSec is the aggregate reader throughput.
	ReadsPerSec float64 `json:"reads_per_sec"`
	// ReadMean is the mean per-listing latency seen by a reader.
	ReadMean time.Duration `json:"read_mean_ns"`
	// LeaseReads and LeaseFallbacks are the head-side counter deltas
	// over the window: how many ordered reads the leases actually
	// served locally vs. sent through the total order.
	LeaseReads     uint64 `json:"lease_reads"`
	LeaseFallbacks uint64 `json:"lease_fallbacks"`
}

// LeaseResult is the full three-way comparison.
type LeaseResult struct {
	Heads   int           `json:"heads"`
	Readers int           `json:"readers"`
	Jobs    int           `json:"seed_jobs"`
	Window  time.Duration `json:"window_ns"`
	// Variants holds local, leased, broadcast in that order.
	Variants []LeaseVariant `json:"variants"`
	// LeasedVsLocal is leased over local throughput — the acceptance
	// metric (>= 0.5: leased linearizable reads within 2x of the
	// unordered ceiling).
	LeasedVsLocal float64 `json:"leased_vs_local"`
	// LeasedVsBroadcast is leased over broadcast-ordered throughput
	// (>= 5: skipping the ordering round has to matter).
	LeasedVsBroadcast float64 `json:"leased_vs_broadcast"`
}

// measureReadPhase drives `readers` clients in back-to-back listing
// loops against c for the given window. ordered selects
// StatAllOrdered (the linearizable listing) over StatAll (the local
// unordered one).
func measureReadPhase(c *cluster.Cluster, readers int, window time.Duration, ordered bool) (driven, error) {
	live := c.LiveHeads()
	clis := make([]*joshua.Client, readers)
	var err error
	for i := range clis {
		if clis[i], err = c.ClientFor(live...); err != nil {
			return driven{}, err
		}
	}
	read := func(r, _ int) error {
		if ordered {
			_, err := clis[r].StatAllOrdered()
			return err
		}
		_, err := clis[r].StatAll()
		return err
	}
	// Warm each client's head book and the read path before timing.
	if _, err := drive(readers, 2, nil, read); err != nil {
		return driven{}, err
	}
	d, err := drive(readers, 0, func() error { time.Sleep(window); return nil }, read)
	if err != nil {
		return driven{}, fmt.Errorf("reader: %w", err)
	}
	return d, nil
}

// leaseCounters sums the lease-read counters across live heads.
func leaseCounters(c *cluster.Cluster) (reads, fallbacks uint64) {
	for _, i := range c.LiveHeads() {
		st := c.Head(i).Replica().Stats()
		reads += st.LeaseReads
		fallbacks += st.LeaseFallbacks
	}
	return
}

// leaseCluster boots one measured deployment and seeds the queue.
// leaseDuration < 0 is the broadcast-ordered ablation; 0 enables
// leases at the group default.
func leaseCluster(cal Calibration, heads, jobs int, leaseDuration time.Duration) (*System, error) {
	opts := cal.options(heads, false, func(c *rsm.Config) { c.LeaseDuration = leaseDuration })
	sys, err := startSystem(opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < jobs; i++ {
		if err := holdSubmit(sys.Client); err != nil {
			sys.Close()
			return nil, err
		}
	}
	return sys, nil
}

// MeasureLeases runs the three-way comparison: local unordered and
// leased linearizable listings against a lease-enabled cluster, then
// broadcast-ordered listings against an identical cluster with leases
// disabled.
func MeasureLeases(cal Calibration, heads, readers, jobs int, window time.Duration) (LeaseResult, error) {
	if readers <= 0 {
		readers = 4
	}
	if window <= 0 {
		window = 2 * time.Second
	}
	res := LeaseResult{Heads: heads, Readers: readers, Jobs: jobs, Window: window}

	variant := func(name string, sys *System, ordered bool) error {
		r0, f0 := leaseCounters(sys.Cluster)
		d, err := measureReadPhase(sys.Cluster, readers, window, ordered)
		if err != nil {
			return fmt.Errorf("bench: %s reads: %w", name, err)
		}
		r1, f1 := leaseCounters(sys.Cluster)
		v := LeaseVariant{
			Name:           name,
			Reads:          int64(d.ops),
			ReadsPerSec:    d.perSec(),
			LeaseReads:     r1 - r0,
			LeaseFallbacks: f1 - f0,
		}
		if d.ops > 0 {
			v.ReadMean = d.elapsed * time.Duration(readers) / time.Duration(d.ops)
		}
		res.Variants = append(res.Variants, v)
		return nil
	}

	for _, phase := range []struct {
		lease    time.Duration
		variants []string // "local" reads unordered, the others ordered
	}{
		{0, []string{"local", "leased"}},
		{-1, []string{"broadcast"}},
	} {
		sys, err := leaseCluster(cal, heads, jobs, phase.lease)
		if err != nil {
			return res, err
		}
		for _, name := range phase.variants {
			if err := variant(name, sys, name != "local"); err != nil {
				sys.Close()
				return res, err
			}
		}
		sys.Close()
	}

	local, lsd, bcast := res.Variants[0], res.Variants[1], res.Variants[2]
	if local.ReadsPerSec > 0 {
		res.LeasedVsLocal = lsd.ReadsPerSec / local.ReadsPerSec
	}
	if bcast.ReadsPerSec > 0 {
		res.LeasedVsBroadcast = lsd.ReadsPerSec / bcast.ReadsPerSec
	}
	return res, nil
}

// FormatLeases renders the comparison for the terminal.
func FormatLeases(res LeaseResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Read consistency levels (%d readers, %d heads, pure-read phase):\n", res.Readers, res.Heads)
	for _, v := range res.Variants {
		extra := ""
		if v.LeaseReads > 0 || v.LeaseFallbacks > 0 {
			extra = fmt.Sprintf("   (%d leased, %d fallbacks)", v.LeaseReads, v.LeaseFallbacks)
		}
		fmt.Fprintf(&b, "  %-12s %7.0f reads/s   read mean %v%s\n",
			v.Name+":", v.ReadsPerSec, v.ReadMean.Round(time.Millisecond/10), extra)
	}
	fmt.Fprintf(&b, "  leased vs local: %.2fx   leased vs broadcast-ordered: %.1fx\n",
		res.LeasedVsLocal, res.LeasedVsBroadcast)
	return b.String()
}
