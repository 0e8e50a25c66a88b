package hv

import (
	"testing"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/guest"
)

// TestExitPathZeroAllocs pins the exit-path allocation contract (DESIGN.md
// §10): once a monitored machine's reused buffers have reached their working
// size, a tick of a syscall loop — guest syscalls, VM exits, EF decode,
// PublishBatch into an allocation-free sync auditor, flight recording —
// allocates nothing.
func TestExitPathZeroAllocs(t *testing.T) {
	m, err := New(Config{Guest: guest.Config{Seed: 7}, Flight: core.NewFlightTable(1, 64, 128)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableMonitoring(allFeatures()); err != nil {
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
	addLooper(t, m, "getpid", guest.DoSyscall(guest.SysGetPID))
	addLooper(t, m, "writer", guest.DoSyscall(guest.SysWrite, 1, 64), guest.DoSyscall(guest.SysYieldCPU))
	// Warm-up: the decode batch and the runqueues grow to their working
	// size.
	m.Run(50 * time.Millisecond)

	exits, calls := m.TotalExits(), syscalls
	allocs := testing.AllocsPerRun(20, m.StepTick)
	exits, calls = m.TotalExits()-exits, syscalls-calls
	if exits == 0 || calls == 0 {
		t.Fatalf("measured ticks raised %d exits and %d syscall events, want both > 0", exits, calls)
	}
	if allocs != 0 {
		t.Fatalf("a tick of ~%d exits allocates %.1f times, want 0", exits/21, allocs)
	}
}

// TestSyncAuditorReentersEngine shows what a synchronous auditor can reach
// while the EF's decode batch is being delivered: the engine's query methods
// (which take the engine lock HandleExit released before publishing) and the
// guest view — but never guest code, so no exit is raised mid-delivery and
// the engine's single decode buffer is never refilled while it is borrowed.
func TestSyncAuditorReentersEngine(t *testing.T) {
	m, _ := newMonitoredVM(t, nil)
	var calls, nested int
	aud := &core.AuditorFunc{AuditorName: "reenter", EventMask: core.MaskAll,
		Fn: func(ev *core.Event) {
			before := m.TotalExits()
			_ = m.Engine().Stats()
			_ = m.Engine().CountProcesses()
			_ = m.Engine().SyscallEntry()
			_, _ = m.ReadU64GVA(ev.Regs.CR3, ev.Regs.TR)
			m.PauseVM()
			m.ResumeVM()
			if m.TotalExits() != before {
				nested++
			}
			calls++
		}}
	if err := m.EM().Register(aud, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	addLooper(t, m, "writer", guest.DoSyscall(guest.SysWrite, 1, 64), guest.Compute(time.Millisecond))
	m.Run(50 * time.Millisecond)
	if calls == 0 {
		t.Fatal("the sync auditor never ran")
	}
	if nested != 0 {
		t.Fatalf("%d of %d deliveries raised a VM exit from inside the auditor", nested, calls)
	}
}
