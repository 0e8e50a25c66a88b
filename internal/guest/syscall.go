package guest

import (
	"fmt"
	"time"

	"hypertap/internal/arch"
)

// Syscall is a miniOS system-call number. The numbering loosely follows
// 32-bit Linux so that monitor policy code reads naturally.
type Syscall uint32

// System calls.
const (
	SysExitProc  Syscall = 1
	SysSpawn     Syscall = 2 // fork+exec in one call
	SysRead      Syscall = 3
	SysWrite     Syscall = 4
	SysOpen      Syscall = 5
	SysClose     Syscall = 6
	SysLseek     Syscall = 19
	SysGetPID    Syscall = 20
	SysSetUID    Syscall = 23
	SysGetUID    Syscall = 24
	SysKill      Syscall = 37
	SysLog       Syscall = 103 // write to the kernel console (printk/tty)
	SysProcStat  Syscall = 106 // read /proc/PID/stat: the side channel
	SysYieldCPU  Syscall = 158
	SysSleepNs   Syscall = 162
	SysULock     Syscall = 180 // user-level lock acquire (futex-like)
	SysUUnlock   Syscall = 181 // user-level lock release
	SysNetRecv   Syscall = 190 // block until a network request arrives
	SysNetSend   Syscall = 191 // send a network reply
	SysListProcs Syscall = 220 // enumerate /proc (what ps/top read)
	SysModLoad   Syscall = 128 // load a kernel module (root only)
	SysSSHHandle Syscall = 230 // sshd's session bookkeeping path
	SysVulnIoctl Syscall = 240 // the CVE-sim: missing permission check

	// SyscallTableSize is the number of entries in the in-memory
	// sys_call_table.
	SyscallTableSize = 256
)

var syscallNames = map[Syscall]string{
	SysExitProc: "exit", SysSpawn: "spawn", SysRead: "read", SysWrite: "write",
	SysOpen: "open", SysClose: "close", SysLseek: "lseek", SysGetPID: "getpid",
	SysSetUID: "setuid", SysGetUID: "getuid", SysKill: "kill", SysLog: "log",
	SysProcStat: "procstat", SysYieldCPU: "yield", SysSleepNs: "nanosleep",
	SysULock: "ulock", SysUUnlock: "uunlock", SysNetRecv: "netrecv",
	SysNetSend: "netsend", SysListProcs: "listprocs", SysModLoad: "modload",
	SysSSHHandle: "sshhandle", SysVulnIoctl: "vulnioctl",
}

func (s Syscall) String() string {
	if n, ok := syscallNames[s]; ok {
		return n
	}
	return fmt.Sprintf("sys_%d", uint32(s))
}

// IOSyscalls are the I/O-related calls the paper's HT-Ninja checks at
// ("every I/O-related system call, e.g., open, read, write, and lseek").
var IOSyscalls = map[Syscall]bool{
	SysOpen: true, SysRead: true, SysWrite: true, SysLseek: true,
	SysClose: true, SysNetSend: true, SysNetRecv: true,
}

// Errno values (negative-return convention).
const (
	ErrPerm  int32 = 1  // EPERM
	ErrSrch  int32 = 3  // ESRCH
	ErrBadFd int32 = 9  // EBADF
	ErrNoEnt int32 = 2  // ENOENT
	ErrInval int32 = 22 // EINVAL
	ErrAgain int32 = 11 // EAGAIN
)

// ProcEntry is one row of the /proc process listing as returned by
// SysListProcs. This is the OS-invariant view: it is produced by walking the
// in-guest-memory task list through the (hijackable) syscall table, so both
// DKOM and syscall-hijack rootkits can subtract entries from it.
type ProcEntry struct {
	PID       int
	PPID      int
	UID       uint32
	EUID      uint32
	GID       uint32
	ParentUID uint32
	State     TaskState
	Comm      string
}

// ProcStat is the /proc/PID/stat+status view: scheduling state for the
// side-channel attack, plus the credential fields Ninja-style scanners
// re-check per process.
type ProcStat struct {
	PID   int
	State TaskState
	// WakeCount increments every time the task is scheduled onto a CPU; the
	// side channel uses transitions to time a poller's activity precisely.
	WakeCount uint64
	UID       uint32
	EUID      uint32
	ParentUID uint32
	PPID      int
	Comm      string
}

// SyscallHandler is the effect of a system call, run after its instrumented
// kernel path completes. Handlers are registered in the kernel's text-address
// map and dispatched through the in-memory sys_call_table, so a rootkit that
// rewrites a table entry really does interpose on the effect. Kernel modules
// (including rootkits) register their own handlers via RegisterKernelText.
type SyscallHandler func(k *Kernel, cpu int, t *Task, args [4]uint64) SyscallResult

// defaultHandlers returns the pristine handler set keyed by syscall number.
func defaultHandlers() map[Syscall]SyscallHandler {
	return map[Syscall]SyscallHandler{
		SysExitProc:  (*Kernel).sysExit,
		SysSpawn:     (*Kernel).sysSpawn,
		SysRead:      (*Kernel).sysRead,
		SysWrite:     (*Kernel).sysWrite,
		SysOpen:      (*Kernel).sysOpen,
		SysClose:     (*Kernel).sysClose,
		SysLseek:     (*Kernel).sysLseek,
		SysGetPID:    (*Kernel).sysGetPID,
		SysSetUID:    (*Kernel).sysSetUID,
		SysGetUID:    (*Kernel).sysGetUID,
		SysKill:      (*Kernel).sysKill,
		SysLog:       (*Kernel).sysLog,
		SysProcStat:  (*Kernel).sysProcStat,
		SysYieldCPU:  (*Kernel).sysYield,
		SysSleepNs:   (*Kernel).sysSleep,
		SysULock:     (*Kernel).sysULock,
		SysUUnlock:   (*Kernel).sysUUnlock,
		SysNetRecv:   (*Kernel).sysNetRecv,
		SysNetSend:   (*Kernel).sysNetSend,
		SysListProcs: (*Kernel).sysListProcs,
		SysModLoad:   (*Kernel).sysModLoad,
		SysSSHHandle: (*Kernel).sysSSHHandle,
		SysVulnIoctl: (*Kernel).sysVulnIoctl,
	}
}

// Free function adapters: methods cannot be referenced as values keyed by
// receiver in the map literal above, so define thin wrappers.

func (k *Kernel) sysExit(cpu int, t *Task, args [4]uint64) SyscallResult {
	k.terminateTask(cpu, t, int(int32(args[0])))
	return SyscallResult{}
}

func (k *Kernel) sysSpawn(cpu int, t *Task, _ [4]uint64) SyscallResult {
	spec := t.pendingSpawn
	t.pendingSpawn = nil
	if spec == nil {
		return SyscallResult{Err: ErrInval}
	}
	child, err := k.CreateProcess(spec, t)
	if err != nil {
		return SyscallResult{Err: ErrAgain}
	}
	return SyscallResult{Ret: uint64(child.PID)}
}

func (k *Kernel) sysOpen(_ int, t *Task, _ [4]uint64) SyscallResult {
	fd := t.nextFD
	t.nextFD++
	t.openFDs[fd] = struct{}{}
	return SyscallResult{Ret: uint64(fd)}
}

func (k *Kernel) sysClose(_ int, t *Task, args [4]uint64) SyscallResult {
	fd := int(args[0])
	if _, ok := t.openFDs[fd]; !ok {
		return SyscallResult{Err: ErrBadFd}
	}
	delete(t.openFDs, fd)
	return SyscallResult{}
}

func (k *Kernel) sysRead(_ int, t *Task, args [4]uint64) SyscallResult {
	if _, ok := t.openFDs[int(args[0])]; !ok && args[0] != 0 {
		return SyscallResult{Err: ErrBadFd}
	}
	k.stats.BytesRead += args[1]
	return SyscallResult{Ret: args[1]}
}

func (k *Kernel) sysWrite(_ int, t *Task, args [4]uint64) SyscallResult {
	if _, ok := t.openFDs[int(args[0])]; !ok && args[0] > 2 {
		return SyscallResult{Err: ErrBadFd}
	}
	k.stats.BytesWritten += args[1]
	return SyscallResult{Ret: args[1]}
}

func (k *Kernel) sysLseek(_ int, t *Task, args [4]uint64) SyscallResult {
	if _, ok := t.openFDs[int(args[0])]; !ok {
		return SyscallResult{Err: ErrBadFd}
	}
	return SyscallResult{Ret: args[1]}
}

func (k *Kernel) sysGetPID(_ int, t *Task, _ [4]uint64) SyscallResult {
	return SyscallResult{Ret: uint64(t.PID)}
}

func (k *Kernel) sysGetUID(_ int, t *Task, _ [4]uint64) SyscallResult {
	return SyscallResult{Ret: uint64(t.UID)}
}

func (k *Kernel) sysSetUID(_ int, t *Task, args [4]uint64) SyscallResult {
	// Proper check: only root may change identity arbitrarily.
	if t.EUID != 0 && uint32(args[0]) != t.UID {
		return SyscallResult{Err: ErrPerm}
	}
	k.setCreds(t, uint32(args[0]), uint32(args[0]))
	return SyscallResult{}
}

// sysVulnIoctl is the simulated vulnerability standing in for the paper's
// real exploits (CVE-2010-3847, CVE-2013-1763): a kernel path that updates
// the caller's credentials without the permission check above.
func (k *Kernel) sysVulnIoctl(_ int, t *Task, args [4]uint64) SyscallResult {
	if args[0] != vulnMagic {
		return SyscallResult{Err: ErrInval}
	}
	k.setCreds(t, 0, 0)
	k.stats.Escalations++
	return SyscallResult{}
}

// vulnMagic is the "crafted input" that reaches the vulnerable path.
const vulnMagic = 0x1763_3847

func (k *Kernel) sysKill(cpu int, t *Task, args [4]uint64) SyscallResult {
	target, ok := k.tasks[int(args[0])]
	if !ok || target.State == StateZombie {
		return SyscallResult{Err: ErrSrch}
	}
	if t.EUID != 0 && t.UID != target.UID {
		return SyscallResult{Err: ErrPerm}
	}
	k.terminateTask(cpu, target, -9)
	return SyscallResult{}
}

func (k *Kernel) sysLog(cpu int, _ *Task, args [4]uint64) SyscallResult {
	k.stats.LogLines++
	// The console is a memory-mapped device: its register page lies beyond
	// guest RAM, so every store traps through EPT (MMIO interception,
	// Table I) and the hypervisor emulates the device.
	mmio := arch.GPA(k.mem.Size())
	k.cpus[cpu].vcpu.CheckedAccess(mmio, 0, havAccessWrite, args[0])
	return SyscallResult{Ret: args[0]}
}

func (k *Kernel) sysProcStat(_ int, _ *Task, args [4]uint64) SyscallResult {
	target, ok := k.tasks[int(args[0])]
	if !ok || target.State == StateZombie {
		return SyscallResult{Err: ErrSrch}
	}
	st := ProcStat{
		PID:       target.PID,
		State:     target.State,
		WakeCount: target.wakeCount,
		UID:       target.UID,
		EUID:      target.EUID,
	}
	if target.parent != nil {
		st.ParentUID = target.parent.UID
		st.PPID = target.parent.PID
	}
	st.Comm = target.Comm
	return SyscallResult{Data: st}
}

func (k *Kernel) sysYield(cpu int, t *Task, _ [4]uint64) SyscallResult {
	t.needResched = true
	_ = cpu
	return SyscallResult{}
}

func (k *Kernel) sysSleep(cpu int, t *Task, args [4]uint64) SyscallResult {
	d := time.Duration(args[0])
	if d < 0 {
		return SyscallResult{Err: ErrInval}
	}
	k.sleepTask(cpu, t, d)
	return SyscallResult{}
}

func (k *Kernel) sysULock(cpu int, t *Task, args [4]uint64) SyscallResult {
	k.userLockAcquire(cpu, t, args[0])
	return SyscallResult{}
}

func (k *Kernel) sysUUnlock(_ int, t *Task, args [4]uint64) SyscallResult {
	k.userLockRelease(t, args[0])
	return SyscallResult{}
}

func (k *Kernel) sysNetRecv(cpu int, t *Task, args [4]uint64) SyscallResult {
	return k.netRecv(cpu, t, uint16(args[0]))
}

func (k *Kernel) sysNetSend(_ int, t *Task, args [4]uint64) SyscallResult {
	k.netSend(t, uint16(args[0]), args[1])
	return SyscallResult{}
}

func (k *Kernel) sysListProcs(_ int, _ *Task, _ [4]uint64) SyscallResult {
	entries, err := k.walkTaskList()
	if err != nil {
		return SyscallResult{Err: ErrInval}
	}
	return SyscallResult{Data: entries}
}

func (k *Kernel) sysModLoad(_ int, t *Task, args [4]uint64) SyscallResult {
	if t.EUID != 0 {
		return SyscallResult{Err: ErrPerm}
	}
	mod := t.pendingModule
	t.pendingModule = nil
	if mod == nil {
		return SyscallResult{Err: ErrInval}
	}
	if err := mod.Init(k, 0); err != nil {
		return SyscallResult{Err: ErrInval}
	}
	k.stats.ModulesLoaded++
	_ = args
	return SyscallResult{}
}

func (k *Kernel) sysSSHHandle(_ int, _ *Task, args [4]uint64) SyscallResult {
	k.stats.SSHSessions++
	return SyscallResult{Ret: args[0]}
}

// walkTaskList decodes the in-memory task list exactly as /proc does: from
// the init_task symbol, following tasks.next until the list closes. This is
// deliberately the *guest's own* OS-invariant view — the one rootkits defeat.
func (k *Kernel) walkTaskList() ([]ProcEntry, error) {
	const maxIter = 8192
	var entries []ProcEntry
	head := k.sym.InitTask
	cur := head
	for i := 0; i < maxIter; i++ {
		e, err := k.decodeTaskStruct(cur)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
		nextGVA, err := k.kread64(cur + TaskOffListNext)
		if err != nil {
			return nil, err
		}
		cur = arch.GVA(nextGVA)
		if cur == head {
			return entries, nil
		}
	}
	return nil, fmt.Errorf("guest: task list walk did not terminate after %d entries", maxIter)
}

// decodeTaskStruct reads one serialized task_struct at a kernel GVA.
func (k *Kernel) decodeTaskStruct(gva arch.GVA) (ProcEntry, error) {
	gpa := KVAToGPA(gva)
	pid, err := k.mem.ReadU32(gpa + TaskOffPID)
	if err != nil {
		return ProcEntry{}, err
	}
	uid, _ := k.mem.ReadU32(gpa + TaskOffUID)
	euid, _ := k.mem.ReadU32(gpa + TaskOffEUID)
	gid, _ := k.mem.ReadU32(gpa + TaskOffGID)
	state, _ := k.mem.ReadU32(gpa + TaskOffState)
	comm, _ := k.mem.ReadCString(gpa+TaskOffComm, TaskCommLen)
	parentGVA, _ := k.mem.ReadU64(gpa + TaskOffParent)

	var ppid int
	var parentUID uint32
	if parentGVA != 0 {
		pgpa := KVAToGPA(arch.GVA(parentGVA))
		pp, _ := k.mem.ReadU32(pgpa + TaskOffPID)
		pu, _ := k.mem.ReadU32(pgpa + TaskOffUID)
		ppid, parentUID = int(pp), pu
	}
	return ProcEntry{
		PID: int(pid), PPID: ppid, UID: uid, EUID: euid, GID: gid,
		ParentUID: parentUID, State: TaskState(state), Comm: comm,
	}, nil
}
