package bench

import (
	"fmt"
	"strings"
	"time"

	"joshua/internal/availability"
)

// Paper-reported values, for side-by-side comparison in the generated
// tables. Keys: 0 = the unreplicated TORQUE baseline, 1..4 = JOSHUA
// with that many head nodes.
var (
	// PaperFig10 is the paper's job submission latency (Figure 10).
	PaperFig10 = map[int]time.Duration{
		0: 98 * time.Millisecond,
		1: 134 * time.Millisecond,
		2: 265 * time.Millisecond,
		3: 304 * time.Millisecond,
		4: 349 * time.Millisecond,
	}
	// PaperFig11 is the paper's submission throughput (Figure 11):
	// seconds to enqueue 10/50/100 jobs.
	PaperFig11 = map[int]map[int]time.Duration{
		0: {10: 930 * time.Millisecond, 50: 4950 * time.Millisecond, 100: 10180 * time.Millisecond},
		1: {10: 1320 * time.Millisecond, 50: 6480 * time.Millisecond, 100: 14080 * time.Millisecond},
		2: {10: 2680 * time.Millisecond, 50: 13090 * time.Millisecond, 100: 26370 * time.Millisecond},
		3: {10: 2930 * time.Millisecond, 50: 15910 * time.Millisecond, 100: 30030 * time.Millisecond},
		4: {10: 3620 * time.Millisecond, 50: 17650 * time.Millisecond, 100: 33320 * time.Millisecond},
	}
)

// Fig10Row is one line of the latency comparison.
type Fig10Row struct {
	System  string
	Heads   int // 0 for the baseline
	Latency time.Duration
	// Overhead relative to the baseline row.
	Overhead time.Duration
	Percent  float64
	// Paper values (unscaled) for reference.
	PaperLatency time.Duration
}

// Fig10 measures job submission latency for the baseline and JOSHUA
// with 1..maxHeads head nodes (the paper uses 4).
func Fig10(cal Calibration, maxHeads, samples int) ([]Fig10Row, error) {
	rows := make([]Fig10Row, 0, maxHeads+1)
	var base time.Duration
	for i := 0; i <= maxHeads; i++ {
		plain := i == 0
		sys, err := StartSystem(cal, max(i, 1), plain)
		if err != nil {
			return nil, fmt.Errorf("fig10 %d heads: %w", i, err)
		}
		lat, err := MeasureLatency(sys.Client, samples)
		sys.Close()
		if err != nil {
			return nil, fmt.Errorf("fig10 %d heads: %w", i, err)
		}
		row := Fig10Row{
			System:       sys.Name,
			Heads:        i,
			Latency:      lat,
			PaperLatency: PaperFig10[i],
		}
		if plain {
			base = lat
		} else {
			row.Overhead = lat - base
			row.Percent = 100 * float64(lat-base) / float64(base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig10 renders the Figure 10 table with the paper's values
// alongside.
func FormatFig10(rows []Fig10Row, cal Calibration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: Job Submission Latency (scale %.2f; paper values at scale 1.0)\n", cal.Scale)
	fmt.Fprintf(&b, "%-18s %-3s %-12s %-22s %s\n", "System", "#", "Latency", "Overhead", "Paper")
	for _, r := range rows {
		over := "-"
		if r.Heads > 0 {
			over = fmt.Sprintf("%v / %.0f%%", r.Overhead.Round(time.Millisecond/10), r.Percent)
		}
		fmt.Fprintf(&b, "%-18s %-3d %-12v %-22s %v\n",
			r.System, max(r.Heads, 1), r.Latency.Round(time.Millisecond/10), over, r.PaperLatency)
	}
	return b.String()
}

// Fig11Row is one line of the throughput comparison.
type Fig11Row struct {
	System string
	Heads  int // 0 for the baseline
	// Totals[n] is the wall time to enqueue n jobs.
	Totals map[int]time.Duration
	Paper  map[int]time.Duration
}

// Fig11 measures submission throughput: wall time to enqueue each of
// the given burst sizes (the paper uses 10, 50, 100).
func Fig11(cal Calibration, maxHeads int, counts []int) ([]Fig11Row, error) {
	rows := make([]Fig11Row, 0, maxHeads+1)
	for i := 0; i <= maxHeads; i++ {
		sys, err := StartSystem(cal, max(i, 1), i == 0)
		if err != nil {
			return nil, fmt.Errorf("fig11 %d heads: %w", i, err)
		}
		row := Fig11Row{System: sys.Name, Heads: i, Totals: map[int]time.Duration{}, Paper: PaperFig11[i]}
		for _, n := range counts {
			d, err := MeasureThroughput(sys.Client, n)
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("fig11 %d heads, %d jobs: %w", i, n, err)
			}
			row.Totals[n] = d
		}
		sys.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig11 renders the Figure 11 table.
func FormatFig11(rows []Fig11Row, cal Calibration, counts []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: Job Submission Throughput (scale %.2f; paper values at scale 1.0 in parentheses)\n", cal.Scale)
	fmt.Fprintf(&b, "%-18s %-3s", "System", "#")
	for _, n := range counts {
		fmt.Fprintf(&b, " %-20s", fmt.Sprintf("%d Jobs", n))
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-3d", r.System, max(r.Heads, 1))
		for _, c := range counts {
			cell := fmt.Sprintf("%.2fs", r.Totals[c].Seconds())
			if p, ok := r.Paper[c]; ok {
				cell += fmt.Sprintf(" (%.2fs)", p.Seconds())
			}
			fmt.Fprintf(&b, " %-20s", cell)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Fig12Row is one line of the availability table.
type Fig12Row struct {
	availability.Row
	// MonteCarlo is the simulated downtime per year.
	MonteCarlo time.Duration
}

// Fig12 reproduces the availability table analytically and
// cross-checks each row with the Monte-Carlo simulator.
func Fig12(maxHeads int, mcYears float64) []Fig12Row {
	var rows []Fig12Row
	for _, r := range availability.Table(availability.PaperMTTF, availability.PaperMTTR, maxHeads) {
		mc := availability.Simulate(availability.SimConfig{
			Heads: r.Heads,
			MTTF:  availability.PaperMTTF,
			MTTR:  availability.PaperMTTR,
			Years: mcYears,
			Seed:  int64(r.Heads),
		})
		rows = append(rows, Fig12Row{Row: r, MonteCarlo: mc.Downtime})
	}
	return rows
}

// FormatFig12 renders the Figure 12 table.
func FormatFig12(rows []Fig12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: Availability/Downtime (MTTF=%v, MTTR=%v)\n",
		availability.PaperMTTF, availability.PaperMTTR)
	fmt.Fprintf(&b, "%-3s %-14s %-6s %-16s %s\n", "#", "Availability", "Nines", "Downtime/Year", "Monte-Carlo")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-3d %-14s %-6d %-16s %s\n",
			r.Heads,
			availability.FormatAvailability(r.Availability),
			r.Nines,
			availability.FormatDowntime(r.Downtime),
			availability.FormatDowntime(r.MonteCarlo),
		)
	}
	return b.String()
}
