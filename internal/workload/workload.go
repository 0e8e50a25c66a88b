// Package workload implements the guest workloads of the paper's
// evaluation: the fault-injection campaign workloads of §VIII-A (Tower of
// Hanoi, serial and parallel compilation, HTTP serving) and a
// UnixBench-style micro/macro benchmark suite for the performance study of
// §IX (Fig. 7).
//
// Workloads are bundles of guest programs plus a completion Status; the
// performance experiments run a fixed amount of work and compare the virtual
// time to completion across monitoring configurations.
package workload

import (
	"fmt"
	"time"

	"hypertap/internal/guest"
	"hypertap/internal/hv"
)

// Status tracks a workload's progress and completion. The workload's
// programs update it from inside the simulated guest, so the goroutine that
// drives the machine owns it: read it only from that goroutine, between
// steps, and it needs no lock.
type Status struct {
	expected   int
	finished   int
	units      uint64
	finishedAt time.Duration
}

// Done reports whether every process of the workload completed.
func (s *Status) Done() bool { return s.expected > 0 && s.finished >= s.expected }

// Units returns the work units completed so far.
func (s *Status) Units() uint64 { return s.units }

// FinishedAt returns the virtual completion time (valid once Done).
func (s *Status) FinishedAt() time.Duration { return s.finishedAt }

// addUnit counts one completed unit of work.
func (s *Status) addUnit() { s.units++ }

// procDone counts one finished process.
func (s *Status) procDone(now time.Duration) {
	s.finished++
	if s.finished == s.expected {
		s.finishedAt = now
	}
}

// Spec is a launchable workload: named guest processes sharing a Status.
type Spec struct {
	// Name identifies the workload in reports.
	Name string
	// Procs are the processes to spawn.
	Procs []*guest.ProcSpec
	// Status is shared by the processes' programs.
	Status *Status
}

// Launch spawns the workload's processes into a booted machine.
func Launch(m *hv.Machine, w Spec) (*Status, error) {
	if len(w.Procs) == 0 {
		return nil, fmt.Errorf("workload %q has no processes", w.Name)
	}
	for _, p := range w.Procs {
		if _, err := m.Kernel().CreateProcess(p, nil); err != nil {
			return nil, fmt.Errorf("workload %q: %w", w.Name, err)
		}
	}
	return w.Status, nil
}

// RunToCompletion launches the workload and runs the machine until it
// completes or maxTime elapses; it returns the virtual completion time.
func RunToCompletion(m *hv.Machine, w Spec, maxTime time.Duration) (time.Duration, error) {
	st, err := Launch(m, w)
	if err != nil {
		return 0, err
	}
	start := m.Clock().Now()
	m.RunUntil(maxTime, st.Done)
	if !st.Done() {
		return 0, fmt.Errorf("workload %q did not complete within %v", w.Name, maxTime)
	}
	return st.FinishedAt() - start, nil
}

// seqProgram runs a unit-producing body n times, counting units, then exits.
// body fills st, the task's zeroed step slot, with sub-step sub of unit.
func seqProgram(s *Status, n int, body func(unit, sub int, st *guest.Step), stepsPerUnit int) guest.Program {
	return guest.ProgramFunc(func(ctx *guest.ProgContext, st *guest.Step) {
		unit := ctx.StepIndex / stepsPerUnit
		sub := ctx.StepIndex % stepsPerUnit
		if unit >= n {
			s.procDone(ctx.Now)
			st.SetExit(0)
			return
		}
		if sub == stepsPerUnit-1 {
			s.addUnit()
		}
		body(unit, sub, st)
	})
}

// Hanoi is the "Tower of Hanoi" recursive program: CPU-bound with periodic
// bookkeeping syscalls. disks controls the amount of work (2^disks-1 moves).
func Hanoi(disks int) Spec {
	if disks <= 0 || disks > 30 {
		disks = 18
	}
	moves := (1 << disks) - 1
	// Model: each batch of 4096 moves costs ~1ms of CPU plus a write of
	// the move log.
	batches := moves/4096 + 1
	s := &Status{expected: 1}
	prog := seqProgram(s, batches, func(_, sub int, st *guest.Step) {
		if sub == 0 {
			st.SetCompute(time.Millisecond)
			return
		}
		st.SetSyscall(guest.SysWrite, 1, 64)
	}, 2)
	return Spec{
		Name:   "hanoi",
		Status: s,
		Procs:  []*guest.ProcSpec{{Comm: "hanoi", UID: 1000, Program: prog}},
	}
}

// MakeJ models "make -jN" compilation of libxml: N parallel compiler tasks,
// each compiling files, with heavy ext3/block traffic (open, read, compute,
// write, close) — the paper's make -j1 and make -j2 workloads.
func MakeJ(jobs, files int) Spec {
	if jobs <= 0 {
		jobs = 1
	}
	if files <= 0 {
		files = 24
	}
	s := &Status{expected: jobs}
	perJob := files / jobs
	if perJob == 0 {
		perJob = 1
	}
	var procs []*guest.ProcSpec
	for j := 0; j < jobs; j++ {
		prog := seqProgram(s, perJob, func(unit, sub int, st *guest.Step) {
			switch sub {
			case 0:
				st.SetSyscall(guest.SysOpen, uint64(unit))
			case 1:
				st.SetSyscall(guest.SysRead, 3, 65536)
			case 2:
				st.SetCompute(3 * time.Millisecond) // parse+codegen
			case 3:
				st.SetSyscall(guest.SysWrite, 3, 32768)
			case 4:
				st.SetSyscall(guest.SysClose, 3)
			default:
				st.SetSyscall(guest.SysLog, 1)
			}
		}, 6)
		procs = append(procs, &guest.ProcSpec{
			Comm: fmt.Sprintf("cc-%d", j), UID: 1000, Program: prog,
		})
	}
	return Spec{Name: fmt.Sprintf("make -j%d", jobs), Status: s, Procs: procs}
}

// HTTPPort is the port the HTTP workload serves on.
const HTTPPort = 80

// HTTPServer returns a server workload handling requests on HTTPPort; pair
// it with ServeHTTPLoad, which plays the ApacheBench role.
func HTTPServer() Spec {
	s := &Status{expected: 1}
	prog := guest.ProgramFunc(func(ctx *guest.ProgContext, st *guest.Step) {
		switch ctx.StepIndex % 4 {
		case 0:
			st.SetSyscall(guest.SysNetRecv, HTTPPort)
		case 1:
			st.SetCompute(300 * time.Microsecond) // request handling
		case 2:
			st.SetSyscall(guest.SysRead, 0, 8192) // static file
		default:
			s.addUnit()
			st.SetSyscall(guest.SysNetSend, HTTPPort, uint64(ctx.StepIndex))
		}
	})
	return Spec{
		Name:   "http server",
		Status: s,
		Procs:  []*guest.ProcSpec{{Comm: "httpd", UID: 33, Program: prog}},
	}
}

// ServeHTTPLoad injects requests requests spaced by gap and runs the machine
// until all replies arrive (or maxTime elapses). It returns the number of
// replies and the virtual time consumed.
func ServeHTTPLoad(m *hv.Machine, requests int, gap, maxTime time.Duration) (int, time.Duration) {
	start := m.Clock().Now()
	replies := 0
	for i := 0; i < requests; i++ {
		m.InjectNetRequest(HTTPPort, uint64(i))
		m.Run(gap)
		replies += len(m.Kernel().DrainNetReplies())
	}
	m.RunUntil(maxTime, func() bool {
		replies += len(m.Kernel().DrainNetReplies())
		return replies >= requests
	})
	return replies, m.Clock().Now() - start
}

// SSHDPort is the port the guest SSH daemon serves on.
const SSHDPort = 22

// SSHD returns the guest SSH service used by the campaign's external probe:
// it answers liveness pings, exercising the sshd-subsystem kernel sections.
func SSHD() *guest.ProcSpec {
	return &guest.ProcSpec{
		Comm: "sshd", UID: 0,
		Program: &guest.LoopProgram{Body: []guest.Step{
			guest.DoSyscall(guest.SysNetRecv, SSHDPort),
			guest.DoSyscall(guest.SysSSHHandle, 1),
			guest.Compute(200 * time.Microsecond),
			guest.DoSyscall(guest.SysNetSend, SSHDPort, 1),
		}},
	}
}
