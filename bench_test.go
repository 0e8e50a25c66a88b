package hypertap_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out. Each benchmark runs its experiment at a
// reduced-but-meaningful scale and reports the headline quantity as a custom
// metric, so `go test -bench=. -benchmem` regenerates the whole evaluation's
// shape in minutes. The cmd/ tools run the same harnesses at paper scale.
// BenchmarkEventPublish prices the hot path's telemetry and flight budgets.

import (
	"strings"
	"testing"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/experiment"
	"hypertap/internal/telemetry"
)

// BenchmarkTableI_EventMatrix verifies the guest-event → VM-Exit →
// invariant map live and reports how many of its rows were exercised.
func BenchmarkTableI_EventMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunTableI(1)
		if err != nil {
			b.Fatal(err)
		}
		exercised := 0
		for _, r := range rows {
			if r.Observed > 0 {
				exercised++
			}
		}
		b.ReportMetric(float64(exercised), "rows-verified")
		b.ReportMetric(float64(len(rows)), "rows-total")
	}
}

// BenchmarkFig4_GOSHDCoverage runs a sampled fault-injection campaign and
// reports detection coverage (paper: 99.8%) and the partial-hang share
// (paper: 18–26%).
func BenchmarkFig4_GOSHDCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunGOSHDCampaign(experiment.GOSHDConfig{
			SampleEvery: 16,
			Workloads:   []string{"make -j1", "make -j2"},
			Seed:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Coverage(), "coverage%")
		b.ReportMetric(100*r.PartialHangShare(), "partial%")
		b.ReportMetric(float64(r.Runs), "injections")
	}
}

// BenchmarkFig5_GOSHDLatency reports the latency CDF anchors of Fig. 5:
// first-hang detection at the 4s threshold and the full-hang lag.
func BenchmarkFig5_GOSHDLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunGOSHDCampaign(experiment.GOSHDConfig{
			SampleEvery: 16,
			Workloads:   []string{"hanoi", "http"},
			Seed:        2,
		})
		if err != nil {
			b.Fatal(err)
		}
		marks := []time.Duration{4 * time.Second, 32 * time.Second}
		first := experiment.CDF(r.AllFirstLatencies(), marks)
		full := experiment.CDF(r.AllFullLatencies(), marks)
		b.ReportMetric(100*first[0], "first-cdf@4s%")
		b.ReportMetric(100*first[1], "first-cdf@32s%")
		b.ReportMetric(100*full[0], "full-cdf@4s%")
		b.ReportMetric(100*full[1], "full-cdf@32s%")
	}
}

// BenchmarkTableII_HRKD runs the full rootkit matrix and reports the
// detection count (paper: 10/10).
func BenchmarkTableII_HRKD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunHRKDMatrix(experiment.HRKDConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		detected := 0
		for _, row := range r.Rows {
			if row.Detected {
				detected++
			}
		}
		b.ReportMetric(float64(detected), "rootkits-detected")
		b.ReportMetric(float64(len(r.Rows)), "rootkits-total")
	}
}

// BenchmarkTableIII_SideChannel measures the /proc side channel at the 1s
// interval and reports the prediction error and SD in microseconds
// (paper: mean 1.00039s, SD 0.00071s).
func BenchmarkTableIII_SideChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunSideChannelTable(experiment.SideChannelConfig{
			Intervals: []time.Duration{time.Second}, Samples: 20, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		row := rows[0]
		errUS := float64(row.Mean-row.Nominal) / float64(time.Microsecond)
		b.ReportMetric(errUS, "mean-error-us")
		b.ReportMetric(float64(row.SD)/float64(time.Microsecond), "sd-us")
	}
}

// BenchmarkFig6_PassiveAttacks runs the attack-vs-monitor matrix and
// reports how many rows match the paper's expectations.
func BenchmarkFig6_PassiveAttacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunPassiveAttackDemos(1)
		if err != nil {
			b.Fatal(err)
		}
		match := 0
		for _, r := range rows {
			if r.Detected == r.Expected {
				match++
			}
		}
		b.ReportMetric(float64(match), "rows-matching")
		b.ReportMetric(float64(len(rows)), "rows-total")
	}
}

// BenchmarkSec8C_NinjaShowdown measures detection probabilities for the
// three Ninjas (paper: O-Ninja ~10%→~0% under spam; H-Ninja 100% at 4ms
// falling with the interval; HT-Ninja 100%).
func BenchmarkSec8C_NinjaShowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiment.RunNinjaShowdown(experiment.ShowdownConfig{Reps: 40, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			// Metric units must be whitespace-free.
			name := strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(c.Monitor + "/" + c.Param + "%")
			b.ReportMetric(100*c.Probability(), name)
		}
	}
}

// BenchmarkFig7_Overhead measures monitoring overhead on the UnixBench-class
// suite and reports the paper's headline categories.
func BenchmarkFig7_Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunPerfOverhead(experiment.PerfConfig{Scale: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		report := func(bench, metric string) {
			for _, row := range r.Rows {
				if row.Benchmark == bench {
					b.ReportMetric(100*row.Overhead("All three"), metric)
				}
			}
		}
		report("System Call Overhead", "syscall-overhead%")
		report("Pipe-based Context Switching", "ctxswitch-overhead%")
		report("File Copy 1024 bufsize", "diskio-overhead%")
		report("Dhrystone 2", "cpu-overhead%")
	}
}

// BenchmarkAblation_SeparateLogging quantifies the unified-logging claim:
// per-auditor logging stacks cost far more than HyperTap's shared channel
// on the syscall-heavy workload.
func BenchmarkAblation_SeparateLogging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.RunPerfOverhead(experiment.PerfConfig{
			Scale: 1, Seed: 1, IncludeAblation: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Benchmark == "System Call Overhead" {
				b.ReportMetric(100*row.Overhead("All three"), "unified%")
				b.ReportMetric(100*row.Overhead("All three (separate stacks)"), "separate%")
			}
		}
	}
}

// BenchmarkEventPublish prices the shared logging channel's hot path: one
// event, carrying a span, through three sync auditors. The sub-benchmarks
// share one setup and loop and differ only in what the EM carries, so each
// budget is a ratio against bare: telemetry enabled (budget: ≤10%) and the
// flight recorder armed, where every publish also writes an exit record that
// doubles as the span's decode step (budget: ≤5%). All three must report
// 0 allocs/op. Compare them over repeated runs:
//
//	go test -run '^$' -bench BenchmarkEventPublish -count 10 .
func BenchmarkEventPublish(b *testing.B) {
	for _, bc := range []struct {
		name  string
		setup func(*core.Multiplexer)
	}{
		{"bare", func(*core.Multiplexer) {}},
		{"telemetry", func(em *core.Multiplexer) { em.EnableTelemetry(telemetry.NewRegistry()) }},
		{"flight", func(em *core.Multiplexer) { em.SetFlight(core.NewFlightTable(1, 0, 0)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			em := core.NewMultiplexer()
			bc.setup(em)
			for _, name := range []string{"a", "b", "c"} {
				aud := &core.AuditorFunc{AuditorName: name, EventMask: core.MaskAll, Fn: func(*core.Event) {}}
				if err := em.Register(aud, core.DeliverSync, 0); err != nil {
					b.Fatal(err)
				}
			}
			ev := &core.Event{Type: core.EvSyscall, SyscallNr: 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Seq = uint64(i)
				ev.Span = core.MintSpan(0, uint64(i+1), 0)
				em.Publish(ev)
			}
		})
	}
}

// TestDispatchSteadyStateAllocs guards the Dispatch scratch buffer: after
// warm-up, draining a burst must not allocate.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	em := core.NewMultiplexer()
	aud := &core.AuditorFunc{AuditorName: "a", EventMask: core.MaskAll, Fn: func(*core.Event) {}}
	if err := em.Register(aud, core.DeliverAsync, 64); err != nil {
		t.Fatal(err)
	}
	ev := &core.Event{Type: core.EvSyscall}
	fill := func() {
		for i := 0; i < 32; i++ {
			ev.Seq = uint64(i)
			em.Publish(ev)
		}
	}
	fill()
	em.Dispatch(0) // warm-up: grows the scratch buffer to burst size
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		em.Dispatch(0)
	})
	// Publish is allocation-free by construction (BenchmarkEventPublish
	// reports 0 allocs/op); any allocation here is Dispatch's.
	if allocs != 0 {
		t.Fatalf("steady-state Dispatch allocates %.1f times per drain, want 0", allocs)
	}
}
