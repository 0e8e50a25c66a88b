package workload

import (
	"fmt"
	"time"

	"hypertap/internal/guest"
)

// UnixBench-style suite: the benchmark classes of the paper's Fig. 7. Each
// item performs a fixed amount of work; the performance experiment measures
// virtual time to completion under different monitoring configurations.
//
// Scale (>= 1) multiplies the work so benches can trade runtime for
// measurement stability.

// Dhrystone is the integer-CPU benchmark: pure user-mode compute.
func Dhrystone(scale int) Spec {
	s := &Status{expected: 1}
	prog := seqProgram(s, 40*clamp(scale), func(_, _ int, st *guest.Step) {
		st.SetCompute(2 * time.Millisecond)
	}, 1)
	return Spec{Name: "Dhrystone 2", Status: s,
		Procs: []*guest.ProcSpec{{Comm: "dhry", UID: 1000, Program: prog}}}
}

// Whetstone is the floating-point benchmark: compute with rare syscalls.
func Whetstone(scale int) Spec {
	s := &Status{expected: 1}
	prog := seqProgram(s, 20*clamp(scale), func(_, sub int, st *guest.Step) {
		if sub == 1 {
			st.SetSyscall(guest.SysGetPID)
			return
		}
		st.SetCompute(3 * time.Millisecond)
	}, 2)
	return Spec{Name: "Whetstone", Status: s,
		Procs: []*guest.ProcSpec{{Comm: "whet", UID: 1000, Program: prog}}}
}

// SyscallOverhead is the system-call micro-benchmark (getpid loop) — the
// worst case for syscall interception, the paper's ~19% row.
func SyscallOverhead(scale int) Spec {
	s := &Status{expected: 1}
	prog := seqProgram(s, 4000*clamp(scale), func(_, _ int, st *guest.Step) {
		st.SetSyscall(guest.SysGetPID)
	}, 1)
	return Spec{Name: "System Call Overhead", Status: s,
		Procs: []*guest.ProcSpec{{Comm: "syscall", UID: 1000, Program: prog}}}
}

// PipeThroughput models the pipe read/write micro-benchmark: alternating
// small I/O syscalls in one process.
func PipeThroughput(scale int) Spec {
	s := &Status{expected: 1}
	prog := seqProgram(s, 1500*clamp(scale), func(_, sub int, st *guest.Step) {
		if sub == 0 {
			st.SetSyscall(guest.SysWrite, 1, 512)
			return
		}
		st.SetSyscall(guest.SysRead, 0, 512)
	}, 2)
	return Spec{Name: "Pipe Throughput", Status: s,
		Procs: []*guest.ProcSpec{{Comm: "pipe", UID: 1000, Program: prog}}}
}

// ContextSwitching is the pipe-based context-switching micro-benchmark: two
// processes on the same CPU handing a token back and forth through a
// loopback "pipe" (blocking receive, immediate send), maximizing the context
// switch rate — the paper's ~10% row.
func ContextSwitching(scale int) Spec {
	s := &Status{expected: 2}
	const pipeAB, pipeBA = 9001, 9002
	n := 800 * clamp(scale)
	ping := seqProgram(s, n, func(unit, sub int, st *guest.Step) {
		if sub == 0 {
			st.SetSyscall(guest.SysNetSend, pipeAB, uint64(unit))
			return
		}
		st.SetSyscall(guest.SysNetRecv, pipeBA)
	}, 2)
	pong := seqProgram(s, n, func(unit, sub int, st *guest.Step) {
		if sub == 0 {
			st.SetSyscall(guest.SysNetRecv, pipeAB)
			return
		}
		st.SetSyscall(guest.SysNetSend, pipeBA, uint64(unit))
	}, 2)
	return Spec{Name: "Pipe-based Context Switching", Status: s, Procs: []*guest.ProcSpec{
		{Comm: "ctx-a", UID: 1000, Pinned: true, CPUAffinity: 0, Program: ping},
		{Comm: "ctx-b", UID: 1000, Pinned: true, CPUAffinity: 0, Program: pong},
	}}
}

// FileCopy models the File Copy benchmark with a buffer size: read/write
// loops through the ext3 and block paths; smaller buffers mean more
// syscalls for the same bytes — the paper's Disk-I/O-intensive class.
func FileCopy(bufSize, scale int) Spec {
	if bufSize <= 0 {
		bufSize = 1024
	}
	totalBytes := 2 << 20 * clamp(scale)
	units := totalBytes / bufSize
	if units > 6000 {
		units = 6000
	}
	s := &Status{expected: 1}
	prog := seqProgram(s, units, func(_, sub int, st *guest.Step) {
		if sub == 0 {
			st.SetSyscall(guest.SysRead, 3, uint64(bufSize))
			return
		}
		st.SetSyscall(guest.SysWrite, 3, uint64(bufSize))
	}, 2)
	return Spec{Name: fmt.Sprintf("File Copy %d bufsize", bufSize), Status: s,
		Procs: []*guest.ProcSpec{{Comm: "filecopy", UID: 1000, Program: prog}}}
}

// ProcessCreation is the fork/exit micro-benchmark.
func ProcessCreation(scale int) Spec {
	n := 60 * clamp(scale)
	s := &Status{expected: 1}
	child := &guest.ProcSpec{
		Comm: "child", UID: 1000,
		Program: guest.NewStepList(guest.Compute(50 * time.Microsecond)),
	}
	prog := guest.ProgramFunc(func(ctx *guest.ProgContext, st *guest.Step) {
		if ctx.StepIndex >= n {
			s.procDone(ctx.Now)
			st.SetExit(0)
			return
		}
		s.addUnit()
		st.SetSpawn(child)
	})
	return Spec{Name: "Process Creation", Status: s,
		Procs: []*guest.ProcSpec{{Comm: "forker", UID: 1000, Program: prog}}}
}

// Execl models the execl-throughput benchmark: process replacement loops
// (spawn + file read for the new image).
func Execl(scale int) Spec {
	n := 50 * clamp(scale)
	s := &Status{expected: 1}
	prog := seqProgram(s, n, func(_, sub int, st *guest.Step) {
		switch sub {
		case 0:
			st.SetSyscall(guest.SysOpen, 7)
		case 1:
			st.SetSyscall(guest.SysRead, 3, 16384)
		case 2:
			st.SetSyscall(guest.SysClose, 3)
		default:
			st.SetCompute(150 * time.Microsecond)
		}
	}, 4)
	return Spec{Name: "Execl Throughput", Status: s,
		Procs: []*guest.ProcSpec{{Comm: "execl", UID: 1000, Program: prog}}}
}

// ShellScripts models the "Shell Scripts (N concurrent)" benchmark: N
// script interpreters doing a spawn+file+compute mix.
func ShellScripts(concurrent, scale int) Spec {
	if concurrent <= 0 {
		concurrent = 1
	}
	s := &Status{expected: concurrent}
	cmd := &guest.ProcSpec{
		Comm: "sh-cmd", UID: 1000,
		Program: guest.NewStepList(
			guest.DoSyscall(guest.SysOpen, 1),
			guest.DoSyscall(guest.SysRead, 3, 1024),
			guest.DoSyscall(guest.SysClose, 3),
		),
	}
	var procs []*guest.ProcSpec
	for i := 0; i < concurrent; i++ {
		prog := seqProgram(s, 20*clamp(scale), func(_, sub int, st *guest.Step) {
			switch sub {
			case 0:
				st.SetSpawn(cmd)
			case 1:
				st.SetCompute(400 * time.Microsecond)
			case 2:
				st.SetSyscall(guest.SysWrite, 1, 256)
			default:
				st.SetSyscall(guest.SysLog, 1)
			}
		}, 4)
		procs = append(procs, &guest.ProcSpec{
			Comm: fmt.Sprintf("sh-%d", i), UID: 1000, Program: prog,
		})
	}
	return Spec{Name: fmt.Sprintf("Shell Scripts (%d concurrent)", concurrent), Status: s, Procs: procs}
}

// Suite returns the full Fig. 7 benchmark list at a given scale.
func Suite(scale int) []Spec {
	return []Spec{
		Dhrystone(scale),
		Whetstone(scale),
		Execl(scale),
		FileCopy(1024, scale),
		FileCopy(256, scale),
		FileCopy(4096, scale),
		PipeThroughput(scale),
		ContextSwitching(scale),
		ProcessCreation(scale),
		ShellScripts(1, scale),
		ShellScripts(8, scale),
		SyscallOverhead(scale),
	}
}

// Categories groups suite items into the paper's summary classes.
func Categories() map[string][]string {
	return map[string][]string{
		"CPU intensive":      {"Dhrystone 2", "Whetstone"},
		"Disk I/O intensive": {"File Copy 1024 bufsize", "File Copy 256 bufsize", "File Copy 4096 bufsize"},
		"Context switching":  {"Pipe-based Context Switching"},
		"System call":        {"System Call Overhead", "Pipe Throughput"},
	}
}

func clamp(scale int) int {
	if scale < 1 {
		return 1
	}
	return scale
}
