package hv_test

import (
	"testing"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/guest"
	"hypertap/internal/hv"
	"hypertap/internal/workload"
)

// TestClosureProgramsZeroAllocs extends TestExitPathZeroAllocs from
// LoopProgram guests to the closure-built programs of Fig. 7's syscall
// items: once warmed up, a tick in which seqProgram bodies fill the task's
// step slot, the guest syscalls and the monitor decodes and delivers the
// exits allocates nothing. It lives in an external test package because
// workload imports hv.
func TestClosureProgramsZeroAllocs(t *testing.T) {
	for _, spec := range []workload.Spec{
		workload.SyscallOverhead(1000),
		workload.PipeThroughput(1000),
		workload.ContextSwitching(1000),
	} {
		t.Run(spec.Name, func(t *testing.T) {
			m, err := hv.New(hv.Config{Guest: guest.Config{Seed: 7}, Flight: core.NewFlightTable(1, 64, 128)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.EnableMonitoring(intercept.Features{
				ProcessSwitch: true, ThreadSwitch: true, TSSIntegrity: true, Syscalls: true, IO: true,
			}); err != nil {
				t.Fatal(err)
			}
			var syscalls int
			aud := &core.AuditorFunc{AuditorName: "syscalls", EventMask: core.MaskOf(core.EvSyscall),
				Fn: func(*core.Event) { syscalls++ }}
			if err := m.EM().Register(aud, core.DeliverSync, 0); err != nil {
				t.Fatal(err)
			}
			if err := m.Boot(); err != nil {
				t.Fatal(err)
			}
			st, err := workload.Launch(m, spec)
			if err != nil {
				t.Fatal(err)
			}
			m.Run(50 * time.Millisecond)

			units, calls := st.Units(), syscalls
			allocs := testing.AllocsPerRun(20, m.StepTick)
			if st.Units() == units || syscalls == calls || st.Done() {
				t.Fatalf("measured ticks completed %d units and %d syscall events (done %v), want a running workload",
					st.Units()-units, syscalls-calls, st.Done())
			}
			if allocs != 0 {
				t.Fatalf("a tick allocates %.1f times, want 0", allocs)
			}
		})
	}
}
