package guest

import (
	"fmt"
	"sync"
	"time"
)

// LockID identifies one kernel spinlock.
type LockID uint8

// Kernel spinlocks, grouped by subsystem. These model the shared-data locks
// that the fault-injection study of the paper (following Cotroneo et al.)
// targets: improper use of exactly these primitives is the dominant cause of
// kernel hangs.
const (
	LockRunqueue   LockID = iota + 1 // core: scheduler runqueues (irq-safe)
	LockPIDTable                     // core: pid allocation and task list
	LockFS                           // ext3: superblock / dentry paths
	LockInode                        // ext3: per-inode data paths
	LockJournal                      // ext3: journal commit paths
	LockBlockQueue                   // block: request queue (irq-safe)
	LockCharTTY                      // char: console/tty output
	LockNet                          // net: device queue (irq-safe)
	LockSSHSession                   // sshd: per-session bookkeeping
	numLocks
)

var lockNames = [...]string{
	LockRunqueue:   "runqueue",
	LockPIDTable:   "pid_table",
	LockFS:         "fs",
	LockInode:      "inode",
	LockJournal:    "journal",
	LockBlockQueue: "block_queue",
	LockCharTTY:    "char_tty",
	LockNet:        "net",
	LockSSHSession: "ssh_session",
}

func (l LockID) String() string {
	if int(l) < len(lockNames) && lockNames[l] != "" {
		return lockNames[l]
	}
	return fmt.Sprintf("lock%d", uint8(l))
}

// spinLock is a non-reentrant kernel busy-wait lock.
type spinLock struct {
	holder *Task // nil when free
}

// isMutexLock marks locks with sleeping-mutex semantics: contended (or
// self-deadlocked) acquirers block instead of spinning, so the CPU keeps
// scheduling. The SSH session lock is a mutex — which is exactly why a hang
// confined to sshd fools an external probe without hanging the scheduler
// (the paper's "Not Detected" cases).
func isMutexLock(l LockID) bool { return l == LockSSHSession }

// SiteID identifies one fault-injection site: a specific lock operation on a
// specific kernel code path.
type SiteID int

// FaultKind is the class of hang-causing bug a site can host, following the
// four causes identified by the fault model the paper adopts.
type FaultKind uint8

// Fault kinds.
const (
	// FaultNone marks an unarmed site.
	FaultNone FaultKind = iota
	// FaultMissingRelease skips the final unlock of a critical section, so
	// the next acquirer of the lock spins forever.
	FaultMissingRelease
	// FaultWrongOrder swaps the acquisition order of a two-lock section,
	// deadlocking against concurrent correct-order paths (ABBA).
	FaultWrongOrder
	// FaultMissingPair drops a mid-section unlock/lock pair, making the
	// section re-acquire a lock it already holds: a self-deadlock.
	FaultMissingPair
	// FaultMissingIRQRestore skips the interrupt-state restore of an
	// irq-save section, leaving interrupts disabled on that CPU.
	FaultMissingIRQRestore
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultMissingRelease:
		return "missing-release"
	case FaultWrongOrder:
		return "wrong-order"
	case FaultMissingPair:
		return "missing-pair"
	case FaultMissingIRQRestore:
		return "missing-irq-restore"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// SiteInfo describes a fault site for campaign planning.
type SiteInfo struct {
	// ID is the site number (1-based, dense).
	ID SiteID
	// Subsystem is the kernel area the site lives in (core, ext3, block,
	// char, net, sshd).
	Subsystem string
	// Path is the syscall path containing the site.
	Path Syscall
	// Kind is the fault this location hosts when armed.
	Kind FaultKind
	// Lock is the primary lock the faulted operation manipulates.
	Lock LockID
}

// FaultPlan decides, each time an instrumented kernel path is dispatched,
// whether the fault at a site is armed for that dispatch. Implementations
// (internal/inject) use the callback both to apply transient/persistent
// semantics and to record that the site's code was executed at all (the
// "Not Activated" outcome of the paper's campaign).
//
// A plan arms at most one site, which it names with Site. The kernel
// consults Armed exactly once per dispatch of that site's path and never
// for any other site, so Armed(s) for s != Site() must return false and have
// no side effect.
type FaultPlan interface {
	// Site is the one site the plan can arm; 0 means none.
	Site() SiteID
	Armed(site SiteID) bool
}

// nopPlan is the default plan: no faults.
type nopPlan struct{}

func (nopPlan) Site() SiteID      { return 0 }
func (nopPlan) Armed(SiteID) bool { return false }

var _ FaultPlan = nopPlan{}

// sitePlan arms one site on every consultation. It compiles a path's faulted
// variant; it is never installed as a kernel's plan.
type sitePlan SiteID

func (p sitePlan) Site() SiteID        { return SiteID(p) }
func (p sitePlan) Armed(s SiteID) bool { return s == SiteID(p) }

// kernOpKind enumerates interpreted kernel-path operations. Handler paths
// are interpreted rather than executed as Go calls so that a path can pause
// indefinitely while spinning on a lock and resume when it frees.
type kernOpKind uint8

const (
	opWork   kernOpKind = iota + 1 // burn kernel CPU time
	opLock                         // acquire spinlock (optionally irq-save)
	opUnlock                       // release spinlock (optionally irq-restore)
)

// kernOp is one interpreted kernel operation.
type kernOp struct {
	kind kernOpKind
	lock LockID
	// irq marks irq-save/irq-restore lock variants.
	irq bool
	// runLen, when nonzero, marks a section boundary: the next runLen ops
	// are an uncontended run that takes every lock in runLocks (bit 1<<id)
	// and releases it again, burning runWork in total. execKernOps steps
	// such a run in one charge when nothing in it can be observed; see
	// annotateRuns.
	runLen   uint16
	runLocks uint16
	dur      time.Duration
	runWork  time.Duration
}

// section declares one critical section of a handler path at build time.
// Faults are applied by transforming the emitted op list, mirroring how a
// source-level bug changes the compiled path.
type section struct {
	subsystem string
	lock      LockID
	// lock2, when nonzero, is acquired after lock (two-lock section,
	// hosting a wrong-order site).
	lock2 LockID
	irq   bool
	// work is the kernel time burned inside the section.
	work time.Duration

	// Site IDs (0 = no such site on this section).
	siteOrder SiteID // wrong-order (needs lock2)
	sitePair  SiteID // missing unlock/lock pair
	siteRel   SiteID // missing release
	siteIRQ   SiteID // missing irq-restore (needs irq)
}

// emit appends the section's op list to ops, consulting the fault plan at
// each site, and reports whether any of its sites was armed.
func (s *section) emit(plan FaultPlan, ops []kernOp) ([]kernOp, bool) {
	swapped := s.siteOrder != 0 && plan.Armed(s.siteOrder)
	doublePair := s.sitePair != 0 && plan.Armed(s.sitePair)
	skipRel := s.siteRel != 0 && plan.Armed(s.siteRel)
	skipIRQ := s.siteIRQ != 0 && plan.Armed(s.siteIRQ)

	first, second := s.lock, s.lock2
	if swapped {
		first, second = second, first
	}
	ops = append(ops, kernOp{kind: opLock, lock: first, irq: s.irq})
	if second != 0 {
		ops = append(ops, kernOp{kind: opLock, lock: second})
	}

	half := s.work / 2
	ops = append(ops, kernOp{kind: opWork, dur: half})
	if doublePair {
		// The missing unlock/lock pair leaves the path re-acquiring a
		// lock it already holds: a self-deadlock on a non-reentrant
		// spinlock.
		ops = append(ops, kernOp{kind: opLock, lock: s.lock})
	}
	ops = append(ops, kernOp{kind: opWork, dur: s.work - half})

	if s.lock2 != 0 {
		ops = append(ops, kernOp{kind: opUnlock, lock: s.lock2})
	}
	if !skipRel {
		ops = append(ops, kernOp{kind: opUnlock, lock: s.lock, irq: s.irq && !skipIRQ})
	} else {
		// The buggy exit path forgot the unlock but still ran
		// preempt_enable (and the irq restore unless that is the armed
		// fault): only the lock itself leaks. A lock==0 unlock op models
		// exactly that.
		ops = append(ops, kernOp{kind: opUnlock, lock: 0, irq: s.irq && !skipIRQ})
	}
	return ops, swapped || doublePair || skipRel || skipIRQ
}

// annotateRuns marks the uncontended runs of a kernel path. Run with every
// lock free, the ops return to "nothing held, preempt and irq depth
// unchanged" at each section boundary. The run from a boundary reaches the
// last such point before the first op whose effect depends on state outside
// the path: a lock taken twice, an unlock of lock 0 or of a lock not held,
// an irq restore that does not match its save, or any mutex op (a mutex
// unlock wakes waiters). Every boundary before that point gets its run; no
// op from there on gets one. Two linear passes: forward to find the run end,
// then backward to sum each boundary's work and locks. Before the end every
// unlock follows its lock, so an op starts balanced exactly when the ops
// from it to the end take as many locks as they release.
func annotateRuns(ops []kernOp) {
	var held, irqs uint16
	end := 0
scan:
	for i := range ops {
		op := &ops[i]
		bit := uint16(1) << op.lock
		switch op.kind {
		case opLock:
			if op.lock == 0 || isMutexLock(op.lock) || held&bit != 0 {
				break scan
			}
			held |= bit
			if op.irq {
				irqs |= bit
			}
		case opUnlock:
			if op.lock == 0 || isMutexLock(op.lock) || held&bit == 0 || (irqs&bit != 0) != op.irq {
				break scan
			}
			held &^= bit
			irqs &^= bit
		}
		if held == 0 {
			end = i + 1
		}
	}
	var work time.Duration
	var locks uint16
	open := 0
	for i := end - 1; i >= 0; i-- {
		op := &ops[i]
		switch op.kind {
		case opWork:
			work += op.dur
		case opLock:
			locks |= 1 << op.lock
			open--
		case opUnlock:
			open++
		}
		if open == 0 {
			op.runLen, op.runLocks, op.runWork = uint16(end-i), locks, work
		}
	}
}

// pathBuilder assigns dense site IDs while declaring handler paths, then
// compiles each path's fault-free op list.
type pathBuilder struct {
	nextSite SiteID
	sites    []SiteInfo
	paths    map[Syscall][]*section
	// ops holds the fault-free op list of every syscall in the table, and
	// other the list of any number past it. Both are shared read-only by
	// every kernel in the process: their capacity equals their length, so
	// an append copies instead of writing into a shared array.
	ops   [SyscallTableSize][]kernOp
	other []kernOp
}

func newPathBuilder() *pathBuilder {
	return &pathBuilder{nextSite: 1, paths: make(map[Syscall][]*section)}
}

// compile emits the op list of one dispatch of path nr under plan: the
// syscall's uninstrumented work, then each critical section in order. Its
// runs are annotated up to the first section with an armed site, so a
// faulty section always runs op by op.
func (b *pathBuilder) compile(nr Syscall, plan FaultPlan) []kernOp {
	base := syscallBaseWork[nr]
	if base == 0 {
		base = defaultSyscallWork
	}
	ops := []kernOp{{kind: opWork, dur: base}}
	faulty := -1
	for _, s := range b.paths[nr] {
		start := len(ops)
		var armed bool
		ops, armed = s.emit(plan, ops)
		if armed && faulty < 0 {
			faulty = start
		}
	}
	if faulty < 0 {
		faulty = len(ops)
	}
	annotateRuns(ops[:faulty])
	return ops[:len(ops):len(ops)]
}

// kernelPaths is the process-wide compiled path set: declaring and
// compiling it once serves every kernel, since no kernel ever writes it.
var kernelPaths = sync.OnceValue(buildKernelPaths)

func (b *pathBuilder) site(sub string, path Syscall, kind FaultKind, lock LockID) SiteID {
	id := b.nextSite
	b.nextSite++
	b.sites = append(b.sites, SiteInfo{ID: id, Subsystem: sub, Path: path, Kind: kind, Lock: lock})
	return id
}

// addSection declares count copies of a critical section on a syscall path.
// Each copy hosts a missing-pair site and a missing-release site, plus a
// wrong-order site when lock2 is set and an irq-restore site when irq is set.
func (b *pathBuilder) addSection(path Syscall, sub string, lock, lock2 LockID, irq bool, work time.Duration, count int) {
	for i := 0; i < count; i++ {
		s := &section{subsystem: sub, lock: lock, lock2: lock2, irq: irq, work: work}
		if lock2 != 0 {
			s.siteOrder = b.site(sub, path, FaultWrongOrder, lock)
		}
		s.sitePair = b.site(sub, path, FaultMissingPair, lock)
		s.siteRel = b.site(sub, path, FaultMissingRelease, lock)
		if irq {
			s.siteIRQ = b.site(sub, path, FaultMissingIRQRestore, lock)
		}
		b.paths[path] = append(b.paths[path], s)
	}
}

// buildKernelPaths declares and compiles every instrumented kernel path of
// miniOS. The totals are pinned by TestFaultSiteCount to exactly 374 sites,
// the number of injection locations the paper identifies in the Linux
// kernel's core functions and frequently used modules (ext3, char, block).
func buildKernelPaths() *pathBuilder {
	b := newPathBuilder()
	const q = time.Microsecond

	// core: scheduler and pid/task management — 96 sites.
	b.addSection(SysSpawn, "core", LockPIDTable, LockRunqueue, false, 12*q, 8)   // 24
	b.addSection(SysExitProc, "core", LockPIDTable, LockRunqueue, false, 8*q, 6) // 18
	b.addSection(SysKill, "core", LockPIDTable, 0, false, 4*q, 5)                // 10
	b.addSection(SysListProcs, "core", LockPIDTable, 0, false, 6*q, 6)           // 12
	b.addSection(SysProcStat, "core", LockPIDTable, 0, false, 2*q, 4)            // 8
	b.addSection(SysSleepNs, "core", LockRunqueue, 0, true, 2*q, 5)              // 15
	b.addSection(SysULock, "core", LockRunqueue, 0, true, 2*q, 2)                // 6
	b.addSection(SysUUnlock, "core", LockRunqueue, 0, true, 2*q, 1)              // 3

	// ext3: filesystem paths — 120 sites.
	b.addSection(SysOpen, "ext3", LockFS, 0, false, 8*q, 8)            // 16
	b.addSection(SysClose, "ext3", LockFS, 0, false, 4*q, 5)           // 10
	b.addSection(SysRead, "ext3", LockInode, LockFS, false, 10*q, 10)  // 30
	b.addSection(SysWrite, "ext3", LockInode, LockFS, false, 10*q, 10) // 30
	b.addSection(SysWrite, "ext3", LockJournal, 0, false, 12*q, 14)    // 28
	b.addSection(SysLseek, "ext3", LockInode, 0, false, 2*q, 3)        // 6

	// block: request queue under the filesystem — 78 sites.
	b.addSection(SysRead, "block", LockBlockQueue, 0, true, 6*q, 14)  // 42
	b.addSection(SysWrite, "block", LockBlockQueue, 0, true, 6*q, 12) // 36
	// char: console/tty — 42 sites.
	b.addSection(SysLog, "char", LockCharTTY, 0, false, 4*q, 21) // 42
	// net: device queues — 36 sites.
	b.addSection(SysNetRecv, "net", LockNet, 0, true, 4*q, 6) // 18
	b.addSection(SysNetSend, "net", LockNet, 0, true, 4*q, 6) // 18
	// sshd: session handling used only by the SSH service — 2 sites.
	b.addSection(SysSSHHandle, "sshd", LockSSHSession, 0, false, 6*q, 1) // 2

	for nr := range b.ops {
		b.ops[nr] = b.compile(Syscall(nr), nopPlan{})
	}
	b.other = b.compile(SyscallTableSize, nopPlan{})
	return b
}
