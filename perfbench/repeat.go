package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times in child processes with seeds
// seed..seed+n-1 and prints, for every metric, the median, the
// quartiles and the spread (q3-q1)/median, the figure the benchmark's
// bounds are set against.
func repeatRuns(w *workload, seed int64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < n; k++ {
		s := seed + int64(k)
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		fmt.Printf("seed %d: correct %t, attempted %d, failed %d\n", s, res.Correct, res.Attempted, res.Failed)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-36s %-9s %12s %12s %12s %8s  %s\n", "metric", "unit", "q1", "median", "q3", "spread", "runs")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(&b, "%-36s %-9s %12.4f %12.4f %12.4f %8.4f  %.4g\n", name, units[name], q1, med, q3, spread, values[name])
	}
	fmt.Print(b.String())
	return nil
}

// quartiles returns the first quartile, median and third quartile of
// vs by the exclusive method of Python's statistics.quantiles(n=4),
// which is how the benchmark's spread is judged.
func quartiles(vs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		return d[0], d[0], d[0]
	}
	q := make([]float64, 3)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
