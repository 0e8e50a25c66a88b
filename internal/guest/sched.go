package guest

import (
	"math/bits"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/hav"
)

// Scheduler and execution engine. The hypervisor drives each vCPU in fixed
// slices of virtual time; within a slice the kernel interprets the current
// task's user steps and in-kernel operations, pausing wherever a lock spin
// or block prevents progress. Context switches perform the two architectural
// writes the paper's interception algorithms observe: TSS.RSP0 (every thread
// switch) and CR3 (address-space changes only).

// syscallBaseWork is the uninstrumented kernel time of each syscall.
var syscallBaseWork = map[Syscall]time.Duration{
	SysGetPID:   2 * time.Microsecond,
	SysGetUID:   2 * time.Microsecond,
	SysYieldCPU: 800 * time.Nanosecond,
	SysProcStat: 1500 * time.Nanosecond,
}

const defaultSyscallWork = 2 * time.Microsecond

// enqueue adds t to its CPU's runqueue tail if absent.
func (k *Kernel) enqueue(t *Task) {
	c := k.cpus[t.CPU]
	if t.onRQ || t == c.idle || t.State == StateZombie {
		return
	}
	t.onRQ = true
	c.rq = append(c.rq, t)
}

// popRQ removes and returns the runqueue head, compacting in place so the
// queue keeps one backing array while enqueue appends behind it.
func (c *cpuState) popRQ() *Task {
	head := c.rq[0]
	n := copy(c.rq, c.rq[1:])
	c.rq[n] = nil
	c.rq = c.rq[:n]
	return head
}

// dequeue removes t from its CPU's runqueue.
func (k *Kernel) dequeue(t *Task) {
	if !t.onRQ {
		return
	}
	c := k.cpus[t.CPU]
	for i, q := range c.rq {
		if q == t {
			c.rq = append(c.rq[:i], c.rq[i+1:]...)
			break
		}
	}
	t.onRQ = false
}

// inKernel reports whether the task is executing kernel code.
func (t *Task) inKernel() bool { return t.kexec != nil || t.ulockWait != 0 }

// canPreempt applies the kernel preemption model: user code is always
// preemptible; kernel code only with CONFIG_PREEMPT and no held spinlocks.
func (k *Kernel) canPreempt(c *cpuState, t *Task) bool {
	if !t.inKernel() {
		return true
	}
	return k.cfg.Preemptible && c.preemptDepth == 0
}

// DeliverTimer models the per-tick timer interrupt on a CPU. It is a no-op
// when the CPU has interrupts disabled (the missing-irq-restore hang mode).
// The interrupt itself causes an EXTERNAL_INT VM Exit before the guest
// handler runs.
func (k *Kernel) DeliverTimer(cpu int, tick time.Duration) {
	c := k.cpus[cpu]
	if c.irqDepth > 0 {
		return
	}
	c.vcpu.ExternalInterrupt(arch.VectorTimer)
	// The handler acknowledges the interrupt at the local APIC's EOI
	// register (APIC_ACCESS interception, Table I).
	c.vcpu.APICAccess(arch.APICOffEOI, true)
	c.sliceLeft -= tick
	if c.sliceLeft <= 0 {
		c.sliceLeft = timeslice
		if len(c.rq) > 0 && c.current != c.idle {
			c.current.needResched = true
		}
	}
}

// DeliverDevice models a device interrupt (network) on a CPU, then delivers
// the packet into the stack.
func (k *Kernel) DeliverDevice(cpu int, port uint16, payload uint64) {
	c := k.cpus[cpu]
	if c.irqDepth > 0 {
		// The packet is lost to this CPU until interrupts return; queue it
		// without a wakeup (level-triggered redelivery is not modeled).
		k.netIn[port] = append(k.netIn[port], payload)
		return
	}
	c.vcpu.ExternalInterrupt(arch.VectorDevice)
	c.vcpu.APICAccess(arch.APICOffEOI, true)
	k.InjectPacket(port, payload)
}

// RunSlice executes up to budget of virtual time on one CPU, starting at
// absolute virtual time start. It is the kernel half of the hypervisor's
// tick loop.
func (k *Kernel) RunSlice(cpu int, start, budget time.Duration) {
	c := k.cpus[cpu]
	c.localNow = start
	remaining := budget

	for remaining > 0 {
		// Monitoring and exit costs stall the guest.
		if c.extraCharge > 0 {
			use := minDur(c.extraCharge, remaining)
			c.extraCharge -= use
			remaining -= use
			c.localNow += use
			continue
		}

		// Sleeper wakeups are timer work: a CPU with interrupts disabled
		// (missing-irq-restore fault) wakes nobody.
		if c.irqDepth == 0 {
			k.wakeSleepers(c)
		}

		t := c.current
		// Blocked, sleeping or dead current task: switch away.
		if t.State != StateRunning {
			k.schedule(cpu)
			continue
		}
		// Preemption point.
		if t.needResched && t != c.idle {
			if k.canPreempt(c, t) {
				t.needResched = false
				k.schedule(cpu)
				continue
			}
			if !t.inKernel() {
				t.needResched = false
			}
		}

		if t == c.idle {
			if len(c.rq) > 0 {
				k.schedule(cpu)
				continue
			}
			idleFor := remaining
			if c.irqDepth == 0 {
				if next, ok := c.nextSleeperDeadline(); ok && next > c.localNow && next-c.localNow < idleFor {
					idleFor = next - c.localNow
				}
			}
			if !c.vcpu.Halted() {
				c.vcpu.Halt()
			}
			remaining -= idleFor
			c.localNow += idleFor
			continue
		}

		// In-kernel execution (system call paths, lock spins).
		if t.kexec != nil {
			remaining = k.execKernOps(cpu, t, remaining)
			continue
		}
		// User-lock spin (futex-like contention inside the kernel).
		if t.ulockWait != 0 {
			if holder, held := k.userLocks[t.ulockWait]; !held || holder == t {
				k.userLocks[t.ulockWait] = t
				t.ulockWait = 0
				t.setResult(SyscallResult{})
				c.vcpu.Regs.CPL = arch.RingUser
				continue
			}
			use := k.spinStep(c, remaining, c.irqDepth == 0)
			remaining -= use
			c.localNow += use
			continue
		}

		remaining = k.execUserStep(cpu, t, remaining)
	}

	if c.localNow > k.bootNow {
		k.bootNow = c.localNow
	}
}

// wakeSleepers moves due sleepers to the runqueue. It runs before every
// scheduler step, and usually nobody is due, so it looks for the first due
// sleeper before it writes anything: the list is compacted only from there.
func (k *Kernel) wakeSleepers(c *cpuState) {
	first := -1
	for i, s := range c.sleepers {
		if s.dueAt(c.localNow) {
			first = i
			break
		}
	}
	if first < 0 {
		return
	}
	kept := c.sleepers[:first]
	for _, s := range c.sleepers[first:] {
		if s.dueAt(c.localNow) {
			s.State = StateRunning
			k.syncState(s)
			s.setResult(SyscallResult{})
			k.enqueue(s)
			continue
		}
		kept = append(kept, s)
	}
	c.sleepers = kept
}

// dueAt reports whether a sleeping task's deadline has passed at now.
func (t *Task) dueAt(now time.Duration) bool {
	return t.State == StateSleeping && t.sleepUntil <= now
}

// nextSleeperDeadline returns the earliest pending sleeper deadline.
func (c *cpuState) nextSleeperDeadline() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, s := range c.sleepers {
		if !found || s.sleepUntil < best {
			best, found = s.sleepUntil, true
		}
	}
	return best, found
}

// spinSpan returns how much of remaining a lock spin spends before anything
// it could observe may change. The hypervisor runs each vCPU's slice to the
// end before starting the next, so while a CPU spins no other CPU can
// release the lock; the only event inside the slice is a sleeper wakeup,
// which RunSlice checks before every costSpinProbe probe when wakes is set.
// The spin therefore jumps to the first probe at or after the next sleeper
// deadline, where wakeSleepers fires at the instant it would have, or to
// the end of the slice. A deadline already due keeps the one-probe step.
func (c *cpuState) spinSpan(remaining time.Duration, wakes bool) time.Duration {
	if !wakes {
		return remaining
	}
	next, ok := c.nextSleeperDeadline()
	if !ok {
		return remaining
	}
	if next <= c.localNow {
		return minDur(costSpinProbe, remaining)
	}
	probes := (next - c.localNow + costSpinProbe - 1) / costSpinProbe
	return minDur(probes*costSpinProbe, remaining)
}

// schedule picks the next task for a CPU and context-switches to it.
func (k *Kernel) schedule(cpu int) {
	c := k.cpus[cpu]
	var next *Task
	for len(c.rq) > 0 {
		cand := c.popRQ()
		cand.onRQ = false
		if cand.State == StateRunning {
			next = cand
			break
		}
	}
	if next == nil {
		if c.current.State == StateRunning && c.current != c.idle {
			// Nothing else runnable: keep running.
			return
		}
		next = c.idle
	}
	k.contextSwitch(cpu, next)
}

// contextSwitch performs the architectural task switch to next.
func (k *Kernel) contextSwitch(cpu int, next *Task) {
	c := k.cpus[cpu]
	prev := c.current
	if prev == next {
		return
	}
	k.stats.ContextSwitches++

	// Thread switch: the kernel stores the incoming thread's kernel stack
	// top into TSS.RSP0. With the TSS page write-protected by a monitor,
	// this store raises an EPT_VIOLATION exit — Fig. 3B's invariant.
	_ = k.kwrite64(cpu, c.tssGVA+arch.TSSOffRSP0, uint64(next.RSP0))
	k.stats.ThreadSwitches++

	// Process switch: load the new address space unless the incoming task
	// borrows the active one (kernel threads, threads of the same process).
	if next.PDBA != 0 && next.PDBA != c.activePDBA {
		c.vcpu.WriteCR3(next.PDBA)
		// A CR3 load flushes the software TLB, as it would the hardware
		// one. Translations are keyed by PDBA so this is not needed for
		// correctness of cross-space reads, but it keeps the cache's
		// behaviour aligned with the architectural model it mirrors.
		k.tlb.flush()
		c.activePDBA = next.PDBA
	}

	if prev.State == StateRunning && prev != c.idle {
		k.enqueue(prev)
	}
	c.current = next
	next.wakeCount++
	c.vcpu.Regs.RSP = next.RSP0
	if next.inKernel() {
		c.vcpu.Regs.CPL = arch.RingKernel
	} else {
		c.vcpu.Regs.CPL = arch.RingUser
	}
	c.sliceLeft = timeslice
	c.extraCharge += costContextSwitch
}

// execUserStep fetches and executes the current user-mode step.
//
//hypertap:hotpath
func (k *Kernel) execUserStep(cpu int, t *Task, remaining time.Duration) time.Duration {
	c := k.cpus[cpu]

	if t.curStep == nil {
		if t.program == nil {
			// Defensive: a programless non-idle task just sleeps.
			k.sleepTask(cpu, t, time.Second)
			return remaining
		}
		t.ctx = ProgContext{PID: t.PID, Now: c.localNow, LastResult: t.lastResult, StepIndex: t.stepIndex}
		// The program fills the zeroed slot in place (see Program).
		st := &t.step
		*st = Step{}
		t.program.Next(&t.ctx, st)
		t.stepIndex++
		t.lastResult = nil
		t.curStep = st
		t.remaining = st.Dur

		// Step dispatch overhead guarantees forward progress even for
		// zero-duration steps.
		use := minDur(costStepOverhead, remaining)
		remaining -= use
		c.localNow += use

		switch st.Kind {
		case StepCompute:
			// Consumed below across slices.
		case StepSyscall:
			k.enterSyscall(cpu, t, st.Nr, st.Args)
			t.curStep = nil
		case StepSleep:
			k.enterSyscall(cpu, t, SysSleepNs, [4]uint64{uint64(st.Dur)})
			t.curStep = nil
		case StepExit:
			k.enterSyscall(cpu, t, SysExitProc, [4]uint64{uint64(uint32(st.Code))})
			t.curStep = nil
		case StepSpawn:
			t.pendingSpawn = st.Child
			k.enterSyscall(cpu, t, SysSpawn, [4]uint64{})
			t.curStep = nil
		case StepLoadModule:
			t.pendingModule = st.Module
			k.enterSyscall(cpu, t, SysModLoad, [4]uint64{})
			t.curStep = nil
		case StepYield:
			k.enterSyscall(cpu, t, SysYieldCPU, [4]uint64{})
			t.curStep = nil
		case StepIO:
			// Programmed I/O from the process (through an IO_INST exit).
			var dir uint32
			if st.Out {
				dir = 1
			}
			c.vcpu.IO(st.Port, st.Out, dir)
			t.curStep = nil
		default:
			// Unknown step: treat as a yield to stay live.
			t.curStep = nil
		}
		return remaining
	}

	// Continue an in-progress compute step.
	use := minDur(t.remaining, remaining)
	t.remaining -= use
	remaining -= use
	c.localNow += use
	if t.remaining <= 0 {
		t.curStep = nil
	}
	return remaining
}

// enterSyscall performs the architectural user→kernel transition and stages
// the interpreted kernel path of the call.
func (k *Kernel) enterSyscall(cpu int, t *Task, nr Syscall, args [4]uint64) {
	c := k.cpus[cpu]
	k.stats.Syscalls++

	// Parameters travel through general-purpose registers.
	regs := &c.vcpu.Regs
	regs.SetGPR(arch.RAX, uint64(nr))
	regs.SetGPR(arch.RBX, args[0])
	regs.SetGPR(arch.RCX, args[1])
	regs.SetGPR(arch.RDX, args[2])
	regs.SetGPR(arch.RSI, args[3])

	// The gate: software interrupt or SYSENTER.
	switch k.cfg.Mech {
	case MechInt80:
		c.vcpu.SoftwareInterrupt(arch.VectorLinuxSyscall)
	case MechInt2E:
		c.vcpu.SoftwareInterrupt(arch.VectorWindowsSyscall)
	case MechSysenter:
		// SYSENTER fetches its target from IA32_SYSENTER_EIP; executing
		// the (possibly execute-protected) entry page is what monitors
		// trap on.
		entry := arch.GVA(c.vcpu.ReadMSR(arch.MSRSysenterEIP))
		if entry != 0 {
			c.vcpu.CheckedAccess(KVAToGPA(entry), entry, hav.AccessExec, 0)
			regs.RIP = entry
		}
	}

	// Privilege transfer: the CPU loads the kernel stack from TSS.RSP0.
	regs.CPL = arch.RingKernel
	if rsp0, err := k.kread64(c.tssGVA + arch.TSSOffRSP0); err == nil {
		regs.RSP = arch.GVA(rsp0)
	}

	// Field by field: a whole-struct assignment builds a temporary and
	// copies it.
	kx := &t.kx
	kx.nr, kx.args, kx.ops = nr, args, k.buildOps(nr)
	kx.pos, kx.opLeft, kx.started = 0, 0, false
	t.kexec = kx
	c.extraCharge += costSyscallEntry
}

// buildOps returns the compiled kernel path for a syscall. On the fault
// plan's path it consults the plan once per dispatch and picks the faulted
// or the fault-free list; every other path is fault-free. The lists are
// shared and read-only.
func (k *Kernel) buildOps(nr Syscall) []kernOp {
	if k.faultOps != nil && nr == k.faultPath && k.plan.Armed(k.plan.Site()) {
		return k.faultOps
	}
	if nr < SyscallTableSize {
		return k.paths.ops[nr]
	}
	return k.paths.other
}

// execKernOps interprets the current task's kernel path until the budget is
// spent, the path blocks, or the syscall completes.
//
// At a section boundary it steps the annotated uncontended run (annotateRuns)
// in one charge when op-by-op interpretation would provably end in the same
// state. Nothing in this loop reads depth, irq state or lock holders between
// ops, and the hypervisor runs each vCPU's slice to the end before the next
// one starts, so no other CPU can touch a lock while the run is stepped. The
// run must start fresh (a work op already under way has less than its
// duration left), the task must not come out of a spin (its depth was raised
// when the spin began, so the run's first lock would not raise it again),
// every lock of the run must be free (else the op-by-op path spins), and the
// run must end strictly inside the slice: a run that ends exactly at the
// slice end leaves its last unlock for the next slice, and until then the
// other CPUs see the lock held and DeliverTimer may see interrupts off.
func (k *Kernel) execKernOps(cpu int, t *Task, remaining time.Duration) time.Duration {
	c := k.cpus[cpu]
	ke := t.kexec
	for remaining > 0 {
		if ke.pos >= len(ke.ops) {
			k.finishSyscall(cpu, t)
			return remaining
		}
		op := &ke.ops[ke.pos]
		if op.runLen != 0 && !ke.started && !t.spinPD && op.runWork < remaining && k.locksFree(op.runLocks) {
			ke.pos += int(op.runLen)
			remaining -= op.runWork
			c.localNow += op.runWork
			continue
		}
		switch op.kind {
		case opWork:
			if !ke.started {
				ke.opLeft = op.dur
				ke.started = true
			}
			use := minDur(ke.opLeft, remaining)
			ke.opLeft -= use
			remaining -= use
			c.localNow += use
			if ke.opLeft <= 0 {
				ke.pos++
				ke.started = false
			}

		case opLock:
			l := &k.locks[op.lock]
			if isMutexLock(op.lock) {
				if l.holder == nil {
					l.holder = t
					ke.pos++
					continue
				}
				// Sleeping mutex: block until the holder releases. A
				// self-deadlock blocks forever — quietly, without
				// stopping the scheduler.
				t.kmutexWait = op.lock
				t.State = StateBlocked
				k.syncState(t)
				k.mutexWaiters[op.lock] = append(k.mutexWaiters[op.lock], t)
				return remaining
			}
			if l.holder == nil {
				l.holder = t
				if t.spinPD {
					// Depth was already raised when the spin began.
					t.spinPD = false
				} else {
					c.preemptDepth++
					if op.irq {
						c.irqDepth++
					}
				}
				ke.pos++
				continue
			}
			// Contended (or self-deadlocked): spin with preemption (and
			// possibly interrupts) disabled, as spin_lock does.
			if !t.spinPD {
				c.preemptDepth++
				if op.irq {
					c.irqDepth++
				}
				t.spinPD = true
			}
			// Nothing between probes wakes sleepers here, so the spin
			// runs out the slice.
			use := k.spinStep(c, remaining, false)
			remaining -= use
			c.localNow += use

		case opUnlock:
			if op.lock != 0 && isMutexLock(op.lock) {
				l := &k.locks[op.lock]
				if l.holder == t {
					l.holder = nil
					k.wakeMutexWaiters(op.lock)
				}
				ke.pos++
				continue
			}
			if op.lock != 0 {
				l := &k.locks[op.lock]
				if l.holder == t {
					l.holder = nil
				}
			}
			if c.preemptDepth > 0 {
				c.preemptDepth--
			}
			if op.irq && c.irqDepth > 0 {
				c.irqDepth--
			}
			ke.pos++
		}
	}
	return 0
}

// locksFree reports whether no task holds any lock in mask (bit 1<<id).
func (k *Kernel) locksFree(mask uint16) bool {
	for ; mask != 0; mask &= mask - 1 {
		if k.locks[bits.TrailingZeros16(mask)].holder != nil {
			return false
		}
	}
	return true
}

// wakeMutexWaiters unblocks every task sleeping on a kernel mutex; they
// re-attempt the acquire when next scheduled.
func (k *Kernel) wakeMutexWaiters(l LockID) {
	waiters := k.mutexWaiters[l]
	if len(waiters) == 0 {
		return
	}
	delete(k.mutexWaiters, l)
	for _, w := range waiters {
		w.kmutexWait = 0
		if w.State == StateBlocked {
			w.State = StateRunning
			k.syncState(w)
			k.enqueue(w)
		}
	}
}

// finishSyscall dispatches the semantic handler through the in-memory
// syscall table and completes the kernel→user transition.
//
//hypertap:hotpath
func (k *Kernel) finishSyscall(cpu int, t *Task) {
	c := k.cpus[cpu]
	ke := t.kexec
	t.kexec = nil

	res := SyscallResult{Err: ErrInval}
	slot := k.sym.SyscallTable + arch.GVA(uint64(ke.nr)*8)
	if uint64(ke.nr) < SyscallTableSize {
		if hgva, err := k.kread64(slot); err == nil && hgva != 0 {
			res = k.DispatchText(arch.GVA(hgva), cpu, t, ke.args)
		}
	}

	c.extraCharge += costSyscallReturn
	c.vcpu.Regs.SetGPR(arch.RAX, res.Ret)

	if t.ulockWait != 0 {
		// Still spinning for a user lock: the syscall has not returned.
		return
	}
	if t.netWaiting {
		// Blocked in netrecv: the result arrives with the packet.
		return
	}
	t.setResult(res)
	if t.State == StateRunning {
		c.vcpu.Regs.CPL = arch.RingUser
	}
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
