// Command bench is the repository's benchmark: four workloads that
// exercise HyperTap's layers differently, each measured end to end
// (untraced) or layer by layer (-trace), with every run checked for
// correctness. Run it from the repository root with bench/run.sh, which
// builds it first:
//
//	bash bench/run.sh                                  # every workload, once each
//	bash bench/run.sh -workload fig7-syscall -seed 3   # one workload, one JSON result line
//	bash bench/run.sh -trace 1                         # per-layer metrics
//	bash bench/run.sh -runs 10 -out DIR                # ten runs per workload, saved to DIR
//	bash bench/run.sh -compare PARENT_DIR CHANGE_DIR   # paired comparison of two saved sets
//	bash bench/run.sh -update                          # rewrite the golden digests
//
// See bench/README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process and print its result as one JSON line (default: every workload, each in a child process)")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the golden digests are checked at the default")
	seconds := fs.Float64("seconds", 0, "seconds of timed rounds per run (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	update := fs.Bool("update", false, "rewrite the golden digests (at the default seed)")
	runs := fs.Int("runs", 1, "runs per workload, at seeds seed, seed+1, ... (without -workload)")
	out := fs.String("out", "", "directory to append each run's result line to, as <workload>.jsonl, with a host stamp (without -workload)")
	compare := fs.Bool("compare", false, "compare two directories of saved results: -compare PARENT_DIR CHANGE_DIR")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs PARENT_DIR and CHANGE_DIR")
			return 2
		}
		return compareDirs(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *name == "" {
		return runAll(spec, *seed, *seconds, *trace == 1, *update, *runs, *out, stdout, stderr)
	}
	return runOne(root, spec, *name, *seed, *seconds, *trace == 1, *update, stdout, stderr)
}

// runOne measures one workload and prints its table and, last, its JSON
// result line.
func runOne(root string, spec *benchSpec, name string, seed int64, seconds float64, traced, update bool, stdout, stderr io.Writer) int {
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if update && seed != defaultSeed {
		fmt.Fprintf(stderr, "bench: -update records the golden digests at -seed %d\n", defaultSeed)
		return 2
	}
	golden := ""
	if seed == defaultSeed && !update {
		if golden, err = readGolden(root, name, fullSize); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if golden == "" {
			fmt.Fprintf(stderr, "bench: no golden digest for %s; record one with -update\n", name)
			return 1
		}
	}
	res, err := measure(w, fullSize, seed, seconds, traced, golden)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if update && res.failed == 0 {
		if err := writeGolden(root, name, fullSize, res.digest); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if traced && res.tr != nil {
		path := filepath.Join(buildDir(root), "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := res.tr.writeChrome(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	line, ok := report(res, spec.metrics(traced), traced, stdout, stderr)
	fmt.Fprintf(stdout, "%s\n", line)
	if !ok {
		return 1
	}
	return 0
}

// buildDir is where build outputs and traces go, as in run.sh:
// $CARGO_TARGET_DIR when set, else .bench_build.
func buildDir(root string) string {
	d := os.Getenv("CARGO_TARGET_DIR")
	if d == "" {
		d = ".bench_build"
	}
	if !filepath.IsAbs(d) {
		d = filepath.Join(root, d)
	}
	return d
}

// isTime reports whether unit is a unit of time.
func isTime(unit string) bool {
	switch unit {
	case "s", "ms", "us", "ns":
		return true
	}
	return false
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON result of a run.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the metric table and returns the JSON result line and
// whether the run was correct. An end-to-end metric, or any time, reading
// 0 means the run measured nothing, which is a failure.
func report(res *run, metrics []metricSpec, traced bool, stdout, stderr io.Writer) (string, bool) {
	out := result{Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: make(map[string]metricOut)}
	problems := res.problems
	if res.failed == 0 {
		fmt.Fprintf(stdout, "%-42s %14s %14s %14s %14s %7s  %-6s %s\n", "metric", "value", "p25", "p50", "p75", "n", "unit", "bound")
		for _, m := range metrics {
			st, ok := res.metrics[m.Name]
			if !ok {
				problems = append(problems, "metric "+m.Name+" was not measured")
				continue
			}
			if (!traced || isTime(m.Unit)) && st.value <= 0 {
				problems = append(problems, "metric "+m.Name+" reads 0")
			}
			bound := ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("%g", m.Bound)
			}
			fmt.Fprintf(stdout, "%-42s %14.6g %14.6g %14.6g %14.6g %7d  %-6s %s\n", m.Name, st.value, st.p25, st.p50, st.p75, st.n, m.Unit, bound)
			out.Metrics[m.Name] = metricOut{Value: st.value, Unit: m.Unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "bench: FAIL:", p)
	}
	if res.failed == 0 && len(problems) > 0 {
		out.Failed = 1
	}
	out.Correct = len(problems) == 0
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b), out.Correct
}

// runAll runs every workload of the spec, each in a child process of this
// binary so memory and GC are per workload, and prints a summary.
func runAll(spec *benchSpec, seed int64, seconds float64, traced, update bool, runs int, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := writeStamp(filepath.Join(outDir, "host.json")); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	status := 0
	summary := make(map[string]map[string][]float64)
	for _, ws := range spec.Workloads {
		summary[ws.Name] = make(map[string][]float64)
		for i := 0; i < runs; i++ {
			args := []string{"-workload", ws.Name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(btoi(traced))}
			if update {
				args = append(args, "-update")
			}
			fmt.Fprintf(stdout, "== %s seed %d\n", ws.Name, seed+int64(i))
			var buf bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			line := lastLine(buf.Bytes())
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil || runErr != nil || !res.Correct {
				fmt.Fprintf(stderr, "bench: %s seed %d failed (%v)\n", ws.Name, seed+int64(i), runErr)
				status = 1
				continue
			}
			for k, v := range res.Metrics {
				summary[ws.Name][k] = append(summary[ws.Name][k], v.Value)
			}
			if outDir != "" {
				if err := appendLine(filepath.Join(outDir, ws.Name+".jsonl"), line); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
			}
		}
	}
	fmt.Fprintf(stdout, "\n%-16s %-42s %16s %14s %14s %4s  %-6s %s\n", "workload", "metric", "median", "p25", "p75", "runs", "unit", "bound")
	for _, ws := range spec.Workloads {
		for _, m := range spec.metrics(traced) {
			xs := summary[ws.Name][m.Name]
			if len(xs) == 0 {
				continue
			}
			bound := ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("%g", m.Bound)
			}
			fmt.Fprintf(stdout, "%-16s %-42s %16.6g %14.6g %14.6g %4d  %-6s %s\n", ws.Name, m.Name,
				median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs), m.Unit, bound)
		}
	}
	return status
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

func appendLine(path, line string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stamp identifies the host and code a set of results came from.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func writeStamp(path string) error {
	s := stamp{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value + s.Commit
			case "vcs.modified":
				if kv.Value == "true" {
					s.Commit += "+modified"
				}
			}
		}
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel reads the CPU model name (Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
