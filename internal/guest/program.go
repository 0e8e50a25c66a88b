package guest

import "time"

// StepKind classifies one unit of user-program behaviour.
type StepKind uint8

// Step kinds.
const (
	// StepCompute burns CPU in user mode for Dur of virtual time.
	StepCompute StepKind = iota + 1
	// StepSyscall invokes a system call with the given number and args.
	StepSyscall
	// StepSleep asks the kernel to sleep for Dur (shorthand for the
	// nanosleep syscall; modeled as a step so programs read naturally).
	StepSleep
	// StepExit terminates the process with Code.
	StepExit
	// StepSpawn forks a child process running Child.
	StepSpawn
	// StepIO performs a programmed-I/O port access from the program
	// (through the kernel's device path).
	StepIO
	// StepYield relinquishes the CPU without sleeping.
	StepYield
	// StepLoadModule loads a kernel module (requires root), the vehicle by
	// which rootkits enter the kernel.
	StepLoadModule
)

func (k StepKind) String() string {
	switch k {
	case StepCompute:
		return "compute"
	case StepSyscall:
		return "syscall"
	case StepSleep:
		return "sleep"
	case StepExit:
		return "exit"
	case StepSpawn:
		return "spawn"
	case StepIO:
		return "io"
	case StepYield:
		return "yield"
	default:
		return "?"
	}
}

// Step is one unit of work yielded by a program.
type Step struct {
	Kind StepKind
	// Dur is the virtual time consumed by compute and sleep steps.
	Dur time.Duration
	// Nr and Args describe a system call.
	Nr   Syscall
	Args [4]uint64
	// Code is the exit status for StepExit.
	Code int
	// Child describes a spawned process for StepSpawn.
	Child *ProcSpec
	// Port and Out describe a StepIO access.
	Port uint16
	Out  bool
	// Module is the kernel module loaded by StepLoadModule.
	Module KernelModule
}

// Convenience constructors keep workload definitions readable.

// Compute returns a user-mode CPU burn step.
func Compute(d time.Duration) Step { return Step{Kind: StepCompute, Dur: d} }

// DoSyscall returns a system-call step.
func DoSyscall(nr Syscall, args ...uint64) Step {
	s := Step{Kind: StepSyscall, Nr: nr}
	copy(s.Args[:], args)
	return s
}

// Sleep returns a sleep step.
func Sleep(d time.Duration) Step { return Step{Kind: StepSleep, Dur: d} }

// Exit returns a process-exit step.
func Exit(code int) Step { return Step{Kind: StepExit, Code: code} }

// Spawn returns a fork step.
func Spawn(child *ProcSpec) Step { return Step{Kind: StepSpawn, Child: child} }

// Yield returns a voluntary CPU release step.
func Yield() Step { return Step{Kind: StepYield} }

// LoadModule returns a kernel-module load step.
func LoadModule(m KernelModule) Step { return Step{Kind: StepLoadModule, Module: m} }

// PortIO returns a programmed-I/O step.
func PortIO(port uint16, out bool) Step { return Step{Kind: StepIO, Port: port, Out: out} }

// SyscallResult carries a completed system call's outcome back to the
// program on its next scheduling.
type SyscallResult struct {
	// Ret is the handler's return value (RAX after the call).
	Ret uint64
	// Err is nonzero for failed calls (negative errno convention).
	Err int32
	// Data carries bulk results (directory listings, /proc reads) without
	// modeling user-space buffers byte-for-byte.
	Data any
}

// ProgContext is the view a program gets of its own execution when asked for
// its next step. Programs are user code: everything here is information a
// real process could obtain about itself.
type ProgContext struct {
	// PID is the process id.
	PID int
	// Now is the current virtual time.
	Now time.Duration
	// LastResult is the result of the program's most recent syscall step,
	// or nil if the previous step was not a syscall.
	LastResult *SyscallResult
	// StepIndex counts steps already executed.
	StepIndex int
}

// Program produces the behaviour of one process as a stream of steps. Next
// is called each time the previous step completes; returning a StepExit ends
// the process. Programs run inside the deterministic simulator core and must
// not retain ctx or ctx.LastResult past the call: both live in the task's
// reused storage and are overwritten by later steps.
type Program interface {
	Next(ctx *ProgContext) Step
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(ctx *ProgContext) Step

// Next implements Program.
func (f ProgramFunc) Next(ctx *ProgContext) Step { return f(ctx) }

var _ Program = (ProgramFunc)(nil)

// ProcSpec describes a process to create.
type ProcSpec struct {
	// Comm is the command name (truncated to TaskCommLen-1).
	Comm string
	// UID and GID are the real credentials; EUID defaults to UID.
	UID, GID uint32
	// EUID, when non-nil, overrides the effective UID (setuid binaries).
	EUID *uint32
	// Program is the process behaviour.
	Program Program
	// KernelThread marks a kthread: no own address space (borrows CR3).
	KernelThread bool
	// ThreadOfPID, when nonzero, creates a user thread inside an existing
	// process: it shares that thread group's address space (same CR3/PDBA)
	// while getting its own kernel stack — so thread switches within the
	// group update TSS.RSP0 without a CR3 load, the architectural
	// distinction the paper's §VI-A builds on.
	ThreadOfPID int
	// Pinned pins the process to vCPU CPUAffinity.
	Pinned bool
	// CPUAffinity is the target vCPU when Pinned is set. Out-of-range
	// values fall back to least-loaded placement.
	CPUAffinity int
	// Nice biases timeslice length; 0 is default. Currently informational.
	Nice int
}

// StepList is a Program that plays a fixed sequence of steps and then exits.
type StepList struct {
	Steps    []Step
	ExitCode int
	pos      int
}

// NewStepList builds a StepList program.
func NewStepList(steps ...Step) *StepList {
	return &StepList{Steps: steps}
}

// Next implements Program.
func (s *StepList) Next(*ProgContext) Step {
	if s.pos >= len(s.Steps) {
		return Exit(s.ExitCode)
	}
	st := s.Steps[s.pos]
	s.pos++
	return st
}

var _ Program = (*StepList)(nil)

// LoopProgram repeats a body of steps forever (daemons, idle spammers).
type LoopProgram struct {
	Body []Step
	pos  int
}

// Next implements Program.
func (l *LoopProgram) Next(*ProgContext) Step {
	if len(l.Body) == 0 {
		return Sleep(time.Second)
	}
	st := l.Body[l.pos]
	l.pos = (l.pos + 1) % len(l.Body)
	return st
}

var _ Program = (*LoopProgram)(nil)

// idleProgram is the per-CPU swapper: it halts until the next interrupt.
// The kernel special-cases it, so its steps are never consulted; Next is
// implemented defensively.
type idleProgram struct{}

func (idleProgram) Next(*ProgContext) Step { return Yield() }
