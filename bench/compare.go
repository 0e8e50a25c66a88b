package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Paired comparison of two saved result sets (bench -runs N -out DIR on the
// parent commit and on the change): run i of one set pairs with run i of
// the other. A gain needs the change to win at least nine pairs in ten and
// the medians to differ by more than the parent's own interquartile range;
// any other difference is judged against the metric's regression bound in
// BENCHMARK.json, and is unresolved when the runs spread wider than it.

// verdict classifies one workload × metric comparison.
type verdict string

const (
	verdictGain       verdict = "gain"
	verdictOK         verdict = "ok"
	verdictRegression verdict = "regression"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one row of a -compare report.
type comparison struct {
	parent, change stat
	// delta is the change's median relative to the parent's, signed so
	// that positive is better.
	delta   float64
	wins, n int
	verdict verdict
}

// compareMetric judges paired runs of one metric.
func compareMetric(m metricSpec, parent, change []float64) comparison {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	c := comparison{parent: summarize(parent), change: summarize(change), n: n}
	for i := 0; i < n; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			c.wins++
		}
	}
	pm, cm := c.parent.value, c.change.value
	if pm != 0 {
		c.delta = sign * (cm - pm) / math.Abs(pm)
	}
	parentIQR := c.parent.p75 - c.parent.p25
	spread := 0.0
	if pm != 0 && cm != 0 {
		spread = math.Max(parentIQR/math.Abs(pm), (c.change.p75-c.change.p25)/math.Abs(cm))
	}
	switch {
	case n > 0 && 10*c.wins >= 9*n && sign*(cm-pm) > parentIQR:
		c.verdict = verdictGain
	case spread > m.Bound:
		switch {
		case separated(parent, change, sign):
			c.verdict = verdictOK
		case separated(change, parent, sign):
			c.verdict = verdictRegression
		default:
			c.verdict = verdictUnresolved
		}
	case -c.delta > m.Bound:
		c.verdict = verdictRegression
	default:
		c.verdict = verdictOK
	}
	return c
}

// separated reports whether every run of b reads better than every run of
// a.
func separated(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := math.Inf(1), math.Inf(-1)
	for _, v := range b {
		worstB = math.Min(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Max(bestA, sign*v)
	}
	return worstB > bestA
}

// readRuns reads one workload's saved result lines, metric by metric.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for k, v := range r.Metrics {
			runs[k] = append(runs[k], v.Value)
		}
	}
	return runs, sc.Err()
}

// compareDirs prints one row per workload × end-to-end metric and returns
// nonzero if any regressed.
func compareDirs(spec *benchSpec, parentDir, changeDir string, stdout, stderr io.Writer) int {
	status := 0
	fmt.Fprintf(stdout, "%-16s %-14s %14s %14s %14s %14s %9s %6s  %s\n",
		"workload", "metric", "parent", "parent IQR", "change", "change IQR", "delta", "wins", "verdict")
	for _, ws := range spec.Workloads {
		p, err := readRuns(filepath.Join(parentDir, ws.Name+".jsonl"))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		c, err := readRuns(filepath.Join(changeDir, ws.Name+".jsonl"))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		for _, m := range spec.EndToEnd {
			r := compareMetric(m, p[m.Name], c[m.Name])
			fmt.Fprintf(stdout, "%-16s %-14s %14.6g %14.6g %14.6g %14.6g %+8.1f%% %3d/%-2d  %s\n",
				ws.Name, m.Name, r.parent.value, r.parent.p75-r.parent.p25, r.change.value,
				r.change.p75-r.change.p25, 100*r.delta, r.wins, r.n, r.verdict)
			if r.verdict == verdictRegression {
				status = 1
			}
		}
	}
	return status
}
