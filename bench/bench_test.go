package main

import (
	"flag"
	"regexp"
	"testing"
	"time"

	"hypertap/internal/experiment"
	"hypertap/internal/inject"
)

var updateTiny = flag.Bool("update", false, "rewrite the tiny-size golden digests")

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func loadTestSpec(t *testing.T) (string, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// TestSmoke runs every workload at tiny size, untraced and traced: each
// run must pass its correctness checks, match its golden digest, and emit
// every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	root, spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, ws := range spec.Workloads {
		w, err := findWorkload(ws.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			golden := ""
			if !*updateTiny {
				if golden, err = readGolden(root, w.name, tinySize); err != nil || golden == "" {
					t.Fatalf("no tiny golden digest (%v); run go test -run TestSmoke -update", err)
				}
			}
			for _, traced := range []bool{false, true} {
				res, err := measure(w, tinySize, defaultSeed, 0, traced, golden)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, res.failed, res.attempted, res.problems)
				}
				for _, m := range spec.metrics(traced) {
					if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
						t.Errorf("metric name %q is malformed", m.Name)
					}
					st, ok := res.metrics[m.Name]
					if !ok {
						t.Errorf("traced=%v: metric %s not emitted", traced, m.Name)
					}
					if (!traced || isTime(m.Unit)) && st.value <= 0 {
						t.Errorf("traced=%v: metric %s reads %v", traced, m.Name, st.value)
					}
				}
				if len(res.metrics) != len(spec.metrics(traced)) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(res.metrics), len(spec.metrics(traced)))
				}
				if *updateTiny && !traced {
					if err := writeGolden(root, w.name, tinySize, res.digest); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestTransparency: auditors wrapped by the hooks, and the machine loops
// decomposed into their steps, give the same verdicts, subscription stats
// and flight rings as the plain wiring.
func TestTransparency(t *testing.T) {
	for _, w := range []*workloadDef{fig7Def, fleetDef, replayDef} {
		t.Run(w.name, func(t *testing.T) {
			hk := newHooks()
			inst, _, _, err := w.setup(tinySize, defaultSeed, hk)
			if err != nil {
				t.Fatal(err)
			}
			digests := make(map[int]string)
			for i, md := range []mode{modePlain, modeHooked, modePlain, modeTraced} {
				rh := hk
				if md == modePlain {
					rh = nil
				}
				if md == modeTraced {
					hk.tr = &tracer{}
				}
				r, err := inst.round(md, rh)
				hk.tr = nil
				if err != nil {
					t.Fatalf("round %d (%v): %v", i, md, err)
				}
				if ref, ok := digests[r.key]; !ok {
					digests[r.key] = r.digest
				} else if r.digest != ref {
					t.Fatalf("%v round %d differs:\n  got  %s\n  want %s", md, r.key, r.digest, ref)
				}
			}
			if w != replayDef && len(hk.lag.samples) == 0 {
				t.Error("hooked rounds sampled no exit-to-audit lag")
			}
		})
	}
}

// TestFig7Fidelity: the benchmark's fig7-syscall wiring gives exactly the
// virtual completion times experiment.RunPerfOverhead reports for the same
// items, scale and seed, monitored and unmonitored.
func TestFig7Fidelity(t *testing.T) {
	const scale = 1
	perf, err := experiment.RunPerfOverhead(experiment.PerfConfig{
		Scale: scale, Seed: defaultSeed, Parallel: 1,
		Setups: []experiment.MonitorSetup{experiment.Fig7Setups()[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]experiment.PerfRow)
	for _, row := range perf.Rows {
		rows[row.Benchmark] = row
	}
	f := &fig7{scale: scale, seed: defaultSeed}
	hk := newHooks()
	hk.tr = &tracer{}
	r := round{}
	for i, spec := range fig7Items(scale) {
		d, err := f.runItem(spec, modeTraced, hk, &r)
		if err != nil {
			t.Fatal(err)
		}
		row, ok := rows[spec.Name]
		if !ok {
			t.Fatalf("RunPerfOverhead has no row %q", spec.Name)
		}
		if got, want := time.Duration(d.VirtualNs), row.Times[experiment.Fig7Setups()[2].Name]; got != want {
			t.Errorf("%s monitored: benchmark %v, RunPerfOverhead %v", spec.Name, got, want)
		}
		base, err := f.bare(hk, &r)
		if err != nil {
			t.Fatal(err)
		}
		if base[i] != row.Baseline {
			t.Errorf("%s unmonitored: benchmark %v, RunPerfOverhead %v", spec.Name, base[i], row.Baseline)
		}
	}
}

// TestCampaignFidelity: the benchmark's injection runs classify exactly as
// experiment.RunInjection does.
func TestCampaignFidelity(t *testing.T) {
	inst, _, _, err := setupCampaign(tinySize, defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := inst.(*campaign)
	for _, job := range c.jobs {
		want, err := experiment.RunInjection(job)
		if err != nil {
			t.Fatal(err)
		}
		hk := newHooks()
		hk.tr = &tracer{}
		var tl tally
		got, err := runInjection(job, hk, &tl)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s site %d: benchmark %+v, RunInjection %+v", job.Workload, job.Fault.Site, got, want)
		}
		if want.Outcome == inject.NotActivated && got.Outcome != want.Outcome {
			t.Errorf("outcome mismatch")
		}
	}
}
