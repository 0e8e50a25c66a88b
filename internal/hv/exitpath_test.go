package hv

import (
	"reflect"
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
// (which take the engine lock; HandleExit decodes without it and never
// holds it while publishing) and the guest view — but never guest code, so
// no exit is raised mid-delivery and the engine's single decode buffer is
// never refilled while it is borrowed.
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

// TestEngineQueriesDuringExits runs the engine's query methods on another
// goroutine while the VM creates processes and makes system calls with
// every feature armed: Stats, PDBASet, TrackedPDBAs and SyscallEntry loop
// while exits decode, and CountProcesses runs between ticks, because its
// sweep walks guest page tables through the guest's software TLB, which one
// goroutine drives at a time (guest/tlb.go). Under -race this checks the
// engine's ownership rule; the decode counts must equal those of a run
// whose only queries are the same CountProcesses calls made inline.
func TestEngineQueriesDuringExits(t *testing.T) {
	run := func(concurrent bool) ([256]uint64, int) {
		m, err := New(Config{Guest: guest.Config{Seed: 7}})
		if err != nil {
			t.Fatal(err)
		}
		e, err := m.EnableMonitoring(allFeatures())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Boot(); err != nil {
			t.Fatal(err)
		}
		forker := guest.ProgramFunc(func(ctx *guest.ProgContext, st *guest.Step) {
			switch ctx.StepIndex % 3 {
			case 0:
				st.SetSpawn(&guest.ProcSpec{Comm: "child", UID: 1000,
					Program: guest.NewStepList(guest.DoSyscall(guest.SysGetPID), guest.Compute(50*time.Microsecond))})
			case 1:
				st.SetSyscall(guest.SysWrite, 1, 64)
			default:
				st.SetCompute(100 * time.Microsecond)
			}
		})
		if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{Comm: "forker", UID: 1000, Program: forker}, nil); err != nil {
			t.Fatal(err)
		}

		// between hands the parked machine to the querier for one
		// CountProcesses; the querier answers on resume.
		between, resume := make(chan struct{}), make(chan struct{})
		stop, done := make(chan struct{}), make(chan struct{})
		var loops int
		if concurrent {
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					case <-between:
						_ = e.CountProcesses()
						resume <- struct{}{}
					default:
						_ = e.Stats()
						_ = e.PDBASet()
						_ = e.TrackedPDBAs()
						_ = e.SyscallEntry()
						loops++
					}
				}
			}()
		}
		for end := m.Now() + 200*time.Millisecond; m.Now() < end; {
			m.StepTick()
			m.EM().Dispatch(0)
			if concurrent {
				between <- struct{}{}
				<-resume
			} else {
				_ = e.CountProcesses()
			}
		}
		if concurrent {
			close(stop)
			<-done
		}
		return e.Stats().Decoded, loops
	}

	want, _ := run(false)
	got, loops := run(true)
	if loops == 0 {
		t.Fatal("the querying goroutine never ran a query")
	}
	if want[core.EvProcessSwitch] == 0 || want[core.EvSyscall] == 0 {
		t.Fatalf("decoded %v, want process switches and syscalls", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded with concurrent queries %v, want %v", got, want)
	}
}
