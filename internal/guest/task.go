package guest

import (
	"fmt"
	"slices"
	"time"

	"hypertap/internal/arch"
)

// Task is the kernel's runtime bookkeeping for one process or kernel thread.
//
// Task is the *scheduler's* view: miniOS, like Linux, schedules from per-CPU
// runqueues, not from the global task list. The serialized task_struct in
// guest memory (at StructGVA) is the *accounting* view that /proc, VMI and
// rootkits operate on. The kernel keeps the two in sync through setters; a
// rootkit that edits guest memory desynchronizes them deliberately — and
// because scheduling does not consult the list, the hidden task keeps
// running, exactly the behaviour HRKD exploits.
type Task struct {
	PID  int
	TGID int
	UID  uint32
	EUID uint32
	GID  uint32
	Comm string
	// State is mirrored into the serialized task_struct on change.
	State TaskState
	// KernelThread marks tasks without their own address space.
	KernelThread bool
	// Affinity pins the task to a vCPU (-1 = chosen at creation).
	Affinity int

	// PDBA is the page-directory base (this task's CR3 value); zero for
	// kernel threads, which borrow the previous task's address space.
	PDBA arch.GPA
	// StructGVA is the kernel virtual address of the serialized
	// task_struct.
	StructGVA arch.GVA
	// StackBase is the kernel virtual address of the kernel stack
	// (thread_info lives at its base).
	StackBase arch.GVA
	// RSP0 is the value loaded into TSS.RSP0 when this thread runs; it
	// uniquely identifies the thread (architectural invariant).
	RSP0 arch.GVA

	parent *Task
	// CPU is the vCPU the task is assigned to. Tasks do not migrate.
	CPU int

	program Program
	// curStep is the in-progress user step; remaining tracks compute time
	// left on it.
	curStep   *Step
	remaining time.Duration
	stepIndex int
	// lastResult carries the most recent syscall result to the program.
	lastResult *SyscallResult
	// kexec is the in-kernel execution state while inside a syscall.
	kexec *kernExec
	// ctx, step, res and kx are the task's reusable storage for the context
	// its program reads, its current step, its last syscall result and its
	// in-flight syscall: curStep, lastResult and kexec point into them, so
	// the steady-state syscall path allocates nothing. A program sees ctx,
	// ctx.LastResult and step only for the duration of its Next call.
	ctx  ProgContext
	step Step
	res  SyscallResult
	kx   kernExec

	// pendingSpawn/pendingModule stage step payloads for the corresponding
	// syscalls.
	pendingSpawn  *ProcSpec
	pendingModule KernelModule

	needResched bool
	// wakeCount increments each time the task is switched onto a CPU.
	wakeCount uint64
	// sleepUntil is the absolute virtual deadline while sleeping.
	sleepUntil time.Duration
	// ulockWait is the user lock the task is spinning for (0 = none).
	ulockWait uint64
	// kmutexWait is the kernel mutex the task is blocked on (0 = none).
	kmutexWait LockID
	// netWaiting marks a task blocked receiving on a port (it is queued in
	// that port's netWaiters).
	netWaiting bool

	// openFDs holds the open file descriptors in ascending order: the file
	// calls check only whether a descriptor is open. nextFD never reuses a
	// descriptor, so open appends and the list stays sorted.
	openFDs []int
	nextFD  int

	exitCode  int
	startTime time.Duration
	onRQ      bool
	// spinPD records that the task raised preempt/irq depth when it began
	// spinning on a kernel lock, so the depth is not raised twice.
	spinPD bool
}

func (t *Task) String() string {
	return fmt.Sprintf("task[pid=%d comm=%s uid=%d euid=%d %v]", t.PID, t.Comm, t.UID, t.EUID, t.State)
}

// setResult records the outcome the program reads on its next step, in the
// task's own storage.
func (t *Task) setResult(res SyscallResult) {
	t.res = res
	t.lastResult = &t.res
}

// fdIndex returns fd's index in t.openFDs, or -1 when fd is not open. The
// search is binary, not a scan from the newest: a program that loses track
// of its descriptors (one opening each iteration and closing a fixed fd
// that is long gone) keeps thousands open, and its checks name the oldest.
func (t *Task) fdIndex(fd int) int {
	if i, ok := slices.BinarySearch(t.openFDs, fd); ok {
		return i
	}
	return -1
}

// kernExec is the interpreted execution state of one in-flight system call.
type kernExec struct {
	nr   Syscall
	args [4]uint64
	// ops is the call's compiled kernel path, shared read-only (buildOps).
	ops []kernOp
	pos int
	// opLeft is the remaining duration of the current opWork.
	opLeft time.Duration
	// started marks that opLeft was initialized for the current op.
	started bool
}

// Stats aggregates kernel-wide counters used by experiments and tests.
type Stats struct {
	Syscalls        uint64
	ContextSwitches uint64
	ThreadSwitches  uint64
	BytesRead       uint64
	BytesWritten    uint64
	LogLines        uint64
	SSHSessions     uint64
	ModulesLoaded   uint64
	Escalations     uint64
	ProcsCreated    uint64
	ProcsExited     uint64
}

// KernelModule is code loaded into the kernel at runtime. Rootkits implement
// this interface; Init runs with full kernel privilege on the loading CPU,
// exactly like a real LKM's module_init.
type KernelModule interface {
	// Name identifies the module.
	Name() string
	// Init installs the module. Returning an error aborts the load.
	Init(k *Kernel, cpu int) error
}
