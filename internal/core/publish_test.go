package core_test

// The EM's publish and drain paths, driven through the exported API only.

import (
	"testing"

	"hypertap/internal/core"
	"hypertap/internal/telemetry"
)

// BenchmarkEventPublish prices the shared logging channel's hot path: one
// event, carrying a span, through three sync auditors. The sub-benchmarks
// share one setup and loop and differ only in what the EM carries, so each
// budget is a ratio against bare: telemetry enabled (budget: ≤10%) and the
// flight recorder armed, where every publish also writes an exit record that
// doubles as the span's decode step (budget: ≤5%). All three must report
// 0 allocs/op. Compare them over repeated runs:
//
//	go test -run '^$' -bench BenchmarkEventPublish -count 10 ./internal/core
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
			em := soloEM(b)
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
	em := soloEM(t)
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

// soloEM returns an EM with one VM, "vm0", attached — a solo machine's
// wiring — so a test can publish on VM 0.
func soloEM(t testing.TB) *core.Multiplexer {
	t.Helper()
	em := core.NewMultiplexer()
	if _, err := em.AttachVM("vm0"); err != nil {
		t.Fatal(err)
	}
	return em
}
