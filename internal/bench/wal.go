package bench

import (
	"fmt"
	"os"
	"strings"
	"time"

	"joshua/internal/rsm"
	"joshua/internal/wal"
)

// This file measures what durability costs the submission path: the
// same calibrated cluster and workload as Figure 10, with the heads'
// write-ahead log under each fsync policy, against the in-memory seed
// behavior as baseline. The interesting comparison is interval (group
// commit: one fsync per event-loop round, the deployment default)
// against always (one fsync per acknowledged command, the strict
// bound) and none (OS-paced writeback, the lower bound on log cost).

// WALPolicyResult is one fsync-policy variant's measured run.
type WALPolicyResult struct {
	// Policy names the variant: "in-memory", "always", "interval", or
	// "none".
	Policy string `json:"policy"`
	// SubmitMean is the mean single-submission latency.
	SubmitMean time.Duration `json:"submit_mean_ns"`
	// Appends and Fsyncs are the measured head's WAL counters after
	// the run; their ratio shows the group-commit batching (zero in
	// the in-memory baseline).
	Appends uint64 `json:"wal_appends"`
	Fsyncs  uint64 `json:"wal_fsyncs"`
}

// MeasureWALPolicies measures mean job-submission latency on otherwise
// identical clusters: once purely in-memory, then once per WAL fsync
// policy. Each variant gets a fresh cluster and a fresh temporary data
// directory, so no run sees another's state.
func MeasureWALPolicies(cal Calibration, heads, samples int) ([]WALPolicyResult, error) {
	variants := []struct {
		name    string
		durable bool
		policy  wal.SyncPolicy
	}{
		{"in-memory", false, 0},
		{"always", true, wal.SyncAlways},
		{"interval", true, wal.SyncInterval},
		{"none", true, wal.SyncNone},
	}
	results := make([]WALPolicyResult, 0, len(variants))
	for _, v := range variants {
		res := WALPolicyResult{Policy: v.name}
		if err := func() error {
			opts := cal.options(heads, false, func(c *rsm.Config) { c.SyncPolicy = v.policy })
			if v.durable {
				dir, err := os.MkdirTemp("", "joshua-bench-wal-")
				if err != nil {
					return err
				}
				defer os.RemoveAll(dir)
				opts.DataDir = dir
			}
			sys, err := startSystem(opts)
			if err != nil {
				return err
			}
			defer sys.Close()
			if res.SubmitMean, err = MeasureLatency(sys.Client, samples); err != nil {
				return err
			}
			if v.durable {
				st := sys.Cluster.Head(heads - 1).Replica().Stats()
				res.Appends = st.WALAppends
				res.Fsyncs = st.WALFsyncs
			}
			return nil
		}(); err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// FormatWAL renders the fsync-policy rows against the in-memory row.
func FormatWAL(rows []WALPolicyResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "WAL fsync ablation (submission latency, 2 heads):")
	var base time.Duration
	for _, r := range rows {
		if r.Policy == "in-memory" {
			base = r.SubmitMean
		}
		extra := ""
		if base > 0 && r.Policy != "in-memory" {
			extra = fmt.Sprintf("   %+.1f%% vs in-memory", 100*(float64(r.SubmitMean)/float64(base)-1))
		}
		if r.Appends > 0 {
			extra += fmt.Sprintf("   (%d appends, %d fsyncs)", r.Appends, r.Fsyncs)
		}
		fmt.Fprintf(&b, "  %-12s %-10v%s\n", r.Policy+":", r.SubmitMean.Round(time.Millisecond/10), extra)
	}
	return b.String()
}
