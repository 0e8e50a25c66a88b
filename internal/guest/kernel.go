package guest

import (
	"fmt"
	"math/rand"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/gmem"
	"hypertap/internal/hav"
)

// havAccessWrite aliases the HAV access type used by the MMU helpers.
const havAccessWrite = hav.AccessWrite

// SyscallMech selects the architectural system-call gate the kernel uses.
type SyscallMech uint8

// System-call mechanisms.
const (
	// MechInt80 issues software interrupt 0x80 (legacy Linux).
	MechInt80 SyscallMech = iota + 1
	// MechInt2E issues software interrupt 0x2E (legacy Windows).
	MechInt2E
	// MechSysenter uses the fast-syscall path through IA32_SYSENTER_EIP.
	MechSysenter
)

func (m SyscallMech) String() string {
	switch m {
	case MechInt80:
		return "int80"
	case MechInt2E:
		return "int2e"
	case MechSysenter:
		return "sysenter"
	default:
		return fmt.Sprintf("SyscallMech(%d)", uint8(m))
	}
}

// OSProfile selects guest-OS flavour details (process naming, default gate).
type OSProfile uint8

// OS profiles.
const (
	// ProfileLinux26 models a Linux 2.6-era distribution.
	ProfileLinux26 OSProfile = iota + 1
	// ProfileWindows models a Windows NT-family guest: INT 0x2E gate, no
	// standalone kernel-thread address-space borrowing quirks exposed.
	ProfileWindows
)

func (p OSProfile) String() string {
	switch p {
	case ProfileLinux26:
		return "linux-2.6"
	case ProfileWindows:
		return "windows"
	default:
		return fmt.Sprintf("OSProfile(%d)", uint8(p))
	}
}

// Config describes the guest kernel to boot.
type Config struct {
	// Mem is the VM's guest-physical memory.
	Mem *gmem.Memory
	// VCPUs are the virtual CPUs, already created by the hypervisor.
	VCPUs []*hav.VCPU
	// Profile selects OS flavour. Default ProfileLinux26.
	Profile OSProfile
	// Mech selects the system-call gate. Default: profile-appropriate
	// legacy interrupt gate.
	Mech SyscallMech
	// Preemptible enables kernel preemption (CONFIG_PREEMPT).
	Preemptible bool
	// Timeslice is the scheduler round-robin quantum. Default 6ms.
	Timeslice time.Duration
	// HousekeepingPeriod is the kworker wake period, bounding the maximum
	// inter-context-switch gap on an idle CPU. Default 900ms.
	HousekeepingPeriod time.Duration
	// Seed drives the deterministic jitter in housekeeping and workloads.
	Seed int64
	// UserPagesPerProc is the initial user mapping size. Default 4.
	UserPagesPerProc int
}

func (c *Config) fillDefaults() {
	if c.Profile == 0 {
		c.Profile = ProfileLinux26
	}
	if c.Mech == 0 {
		if c.Profile == ProfileWindows {
			c.Mech = MechInt2E
		} else {
			c.Mech = MechInt80
		}
	}
	if c.Timeslice == 0 {
		c.Timeslice = 6 * time.Millisecond
	}
	if c.HousekeepingPeriod == 0 {
		c.HousekeepingPeriod = 900 * time.Millisecond
	}
	if c.UserPagesPerProc == 0 {
		c.UserPagesPerProc = 4
	}
}

// Cost model constants: the virtual-time prices of kernel operations. They
// are calibrated to commodity hardware of the paper's era so that exit-rate
// driven overheads come out in the right regime.
const (
	costSyscallEntry  = 1500 * time.Nanosecond
	costSyscallReturn = 1000 * time.Nanosecond
	costContextSwitch = 3 * time.Microsecond
	costSpinProbe     = 500 * time.Nanosecond // granularity of lock spinning
	costStepOverhead  = 150 * time.Nanosecond
)

// cpuState is the kernel's per-vCPU state.
type cpuState struct {
	id   int
	vcpu *hav.VCPU
	// current is the task on the CPU (never nil after boot; idle counts).
	current *Task
	// idle is the swapper task for this CPU.
	idle *Task
	// rq is the runnable queue, excluding current.
	rq []*Task
	// sleepers are tasks assigned here that wait on a deadline.
	sleepers []*Task
	// sliceLeft is the remaining round-robin quantum of current.
	sliceLeft time.Duration
	// preemptDepth > 0 forbids kernel preemption (spinlocks held).
	preemptDepth int
	// irqDepth > 0 means interrupts are disabled on this CPU.
	irqDepth int
	// extraCharge accumulates VM-exit and monitoring costs to be deducted
	// from this CPU's execution budget.
	extraCharge time.Duration
	// localNow is the fine-grained virtual time within the current slice.
	localNow time.Duration
	// tssGVA is this CPU's TSS location.
	tssGVA arch.GVA
	// switches counts context switches on this CPU.
	switches uint64
	// activePDBA is the address space currently loaded (kernel threads
	// borrow it without a CR3 write).
	activePDBA arch.GPA
}

// netPacket is a simulated inbound or outbound network unit.
type netPacket struct {
	Port    uint16
	Payload uint64
	At      time.Duration
}

// NetReply is a packet emitted by the guest, observed by the harness.
type NetReply struct {
	Port    uint16
	Payload uint64
	At      time.Duration
	PID     int
}

// Kernel is the miniOS kernel instance for one VM.
type Kernel struct {
	cfg   Config
	mem   *gmem.Memory
	cpus  []*cpuState
	rng   *rand.Rand
	paths *pathBuilder
	plan  FaultPlan
	// faultOps is the plan's site path (faultPath) compiled with the site
	// armed, nil when the plan names no site of this kernel.
	faultPath Syscall
	faultOps  []kernOp
	// spinStep is how far one step of a lock spin moves a CPU: spinSpan,
	// or a probe-by-probe reference that tests check it against.
	spinStep func(c *cpuState, remaining time.Duration, wakes bool) time.Duration

	sym Symbols
	// lowNext/highNext are the physical bump allocators (kernel window /
	// general memory).
	lowNext  arch.GPA
	highNext arch.GPA
	// taskArena suballocates task_structs within kernel-window pages.
	taskArena    arch.GPA
	taskArenaOff int
	// textNext allocates kernel-text slot addresses for handlers.
	textNext arch.GVA

	tasks   map[int]*Task
	nextPID int
	// mmUsers counts the threads sharing each address space, so a page
	// directory dies only with its last thread.
	mmUsers map[arch.GPA]int
	locks   [numLocks]spinLock
	// userLocks maps futex ids to holders.
	userLocks map[uint64]*Task
	// mutexWaiters holds tasks blocked on kernel mutexes.
	mutexWaiters map[LockID][]*Task
	// textHandlers maps kernel-text GVAs to Go handler functions.
	textHandlers map[arch.GVA]SyscallHandler

	// netIn queues inbound packets by port; netWaiters holds blocked
	// receivers by port.
	netIn      map[uint16][]netPacket
	netWaiters map[uint16][]*Task
	netOut     []NetReply

	// tlb caches page-directory walk results; see tlb.go for the
	// invalidation contract.
	tlb tlbCache

	stats  Stats
	booted bool
	// bootNow tracks virtual time across slices (monotonic, kernel-wide).
	bootNow time.Duration
}

// New constructs an unbooted kernel.
func New(cfg Config) (*Kernel, error) {
	cfg.fillDefaults()
	if cfg.Mem == nil {
		return nil, fmt.Errorf("guest: Config.Mem is required")
	}
	if len(cfg.VCPUs) == 0 {
		return nil, fmt.Errorf("guest: at least one vCPU is required")
	}
	if cfg.Mem.Size() < 2*KernelWindowBytes {
		return nil, fmt.Errorf("guest: need at least %d bytes of guest memory", 2*KernelWindowBytes)
	}
	k := &Kernel{
		cfg:          cfg,
		mem:          cfg.Mem,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		plan:         nopPlan{},
		paths:        kernelPaths(),
		spinStep:     (*cpuState).spinSpan,
		lowNext:      arch.PageSize, // page 0 stays unmapped (NULL)
		highNext:     KernelWindowBytes,
		tasks:        make(map[int]*Task),
		nextPID:      1,
		userLocks:    make(map[uint64]*Task),
		mutexWaiters: make(map[LockID][]*Task),
		mmUsers:      make(map[arch.GPA]int),
		textHandlers: make(map[arch.GVA]SyscallHandler),
		netIn:        make(map[uint16][]netPacket),
		netWaiters:   make(map[uint16][]*Task),
	}
	for i, v := range cfg.VCPUs {
		k.cpus = append(k.cpus, &cpuState{id: i, vcpu: v})
	}
	// Generation 1 leaves the zero-valued TLB entries invalid.
	k.tlb.gen = 1
	return k, nil
}

// Sites enumerates every fault-injection site in the kernel, for campaign
// planning by internal/inject.
func (k *Kernel) Sites() []SiteInfo {
	out := make([]SiteInfo, len(k.paths.sites))
	copy(out, k.paths.sites)
	return out
}

// SetFaultPlan installs the fault plan consulted on every dispatch of its
// site's kernel path, compiling that path's faulted variant once.
func (k *Kernel) SetFaultPlan(p FaultPlan) {
	if p == nil {
		p = nopPlan{}
	}
	k.plan, k.faultPath, k.faultOps = p, 0, nil
	if site := p.Site(); site > 0 && int(site) <= len(k.paths.sites) {
		k.faultPath = k.paths.sites[site-1].Path
		k.faultOps = k.paths.compile(k.faultPath, sitePlan(site))
	}
}

// Symbols returns the kernel's symbol map (available after Boot).
func (k *Kernel) Symbols() Symbols { return k.sym }

// Stats returns a copy of the kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Config returns the booted configuration.
func (k *Kernel) Config() Config { return k.cfg }

// NumCPUs returns the vCPU count.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// Boot initializes kernel structures in guest memory, programs the
// architectural registers (TR, SYSENTER MSRs), creates the idle and
// housekeeping threads, and performs the first CR3 load. Boot generates the
// VM Exits (WRMSR, CR_ACCESS) that HyperTap's interception algorithms key
// their arming on.
func (k *Kernel) Boot() error {
	if k.booted {
		return fmt.Errorf("guest: kernel already booted")
	}

	// Static kernel objects.
	tablePages := (SyscallTableSize*8 + arch.PageSize - 1) / arch.PageSize
	tableGPA, err := k.allocLow(tablePages, 1)
	if err != nil {
		return err
	}
	k.sym.SyscallTable = GPAToKVA(tableGPA)

	tssPages := (len(k.cpus)*arch.TSSSize + arch.PageSize - 1) / arch.PageSize
	tssGPA, err := k.allocLow(tssPages, 1)
	if err != nil {
		return err
	}
	k.sym.TSSBase = GPAToKVA(tssGPA)

	textGPA, err := k.allocLow(1, 1)
	if err != nil {
		return err
	}
	k.sym.KernelTextBase = GPAToKVA(textGPA)
	k.textNext = k.sym.KernelTextBase

	// The fast-syscall entry stub gets its own page so execute-protecting
	// it does not perturb neighbours.
	entryGPA, err := k.allocLow(1, 1)
	if err != nil {
		return err
	}
	k.sym.SysenterEntry = GPAToKVA(entryGPA)

	// Install syscall handlers: allocate a text slot per handler and point
	// the in-memory table at it.
	for nr, h := range defaultHandlers() {
		gva := k.RegisterKernelText(h)
		slot := tableGPA + arch.GPA(nr*8)
		if err := k.mem.WriteU64(slot, uint64(gva)); err != nil {
			return err
		}
	}

	// Program the TSS and TR for each CPU (LTR at boot; does not exit).
	for _, c := range k.cpus {
		c.tssGVA = k.sym.TSSBase + arch.GVA(c.id*arch.TSSSize)
		c.vcpu.Regs.TR = c.tssGVA
	}

	// Program the fast-syscall MSRs. WRMSR is privileged: these writes
	// cause WRMSR VM Exits, which is how HyperTap learns the entry point.
	if k.cfg.Mech == MechSysenter {
		for _, c := range k.cpus {
			c.vcpu.WriteMSR(arch.MSRSysenterCS, 0x10)
			c.vcpu.WriteMSR(arch.MSRSysenterESP, uint64(k.sym.TSSBase))
			c.vcpu.WriteMSR(arch.MSRSysenterEIP, uint64(k.sym.SysenterEntry))
		}
	}

	// init_task (pid 0, swapper/0) heads the circular task list.
	swapper, err := k.newTask(&ProcSpec{Comm: "swapper/0", KernelThread: true, Pinned: true, CPUAffinity: 0}, nil, 0)
	if err != nil {
		return err
	}
	k.sym.InitTask = swapper.StructGVA
	k.tasks[swapper.PID] = swapper
	// Close the list on itself.
	if err := k.mem.WriteU64(KVAToGPA(swapper.StructGVA)+TaskOffListNext, uint64(swapper.StructGVA)); err != nil {
		return err
	}
	if err := k.mem.WriteU64(KVAToGPA(swapper.StructGVA)+TaskOffListPrev, uint64(swapper.StructGVA)); err != nil {
		return err
	}
	k.cpus[0].idle = swapper
	k.cpus[0].current = swapper
	swapper.State = StateRunning
	k.syncState(swapper)

	// Per-CPU idle threads for the remaining CPUs.
	for _, c := range k.cpus[1:] {
		idle, err := k.CreateProcess(&ProcSpec{
			Comm:         fmt.Sprintf("swapper/%d", c.id),
			KernelThread: true,
			Pinned:       true,
			CPUAffinity:  c.id,
		}, swapper)
		if err != nil {
			return err
		}
		// Idle tasks are not runqueue citizens.
		k.dequeue(idle)
		idle.program = nil
		c.idle = idle
		c.current = idle
		idle.State = StateRunning
		k.syncState(idle)
	}

	// The swapper needs an address space for the first CR3 load: give the
	// boot CPU an init_mm directory.
	initMM, err := k.newPageDirectory(0)
	if err != nil {
		return err
	}
	swapper.PDBA = initMM
	if err := k.mem.WriteU64(KVAToGPA(swapper.StructGVA)+TaskOffCR3, uint64(initMM)); err != nil {
		return err
	}

	// First CR3 loads: one per CPU. These CR_ACCESS exits are the arming
	// signal for thread-switch interception (Fig. 3B) and TSS integrity
	// checking (Fig. 3C).
	for _, c := range k.cpus {
		c.vcpu.WriteCR3(initMM)
		k.tlb.flush()
		c.activePDBA = initMM
		// Publish the boot thread's RSP0.
		boot := c.current
		if err := k.kwrite64(c.id, c.tssGVA+arch.TSSOffRSP0, uint64(boot.RSP0)); err != nil {
			return err
		}
		c.sliceLeft = k.cfg.Timeslice
	}

	// Housekeeping kernel threads (kworkers): they bound the maximum
	// inter-switch gap on an otherwise idle CPU, which is what the paper's
	// guest profiling measures to set the GOSHD threshold.
	for _, c := range k.cpus {
		period := k.cfg.HousekeepingPeriod
		jitter := time.Duration(k.rng.Int63n(int64(period / 4)))
		_, err := k.CreateProcess(&ProcSpec{
			Comm:         fmt.Sprintf("kworker/%d", c.id),
			KernelThread: true,
			Pinned:       true,
			CPUAffinity:  c.id,
			Program: &LoopProgram{Body: []Step{
				Sleep(period + jitter),
				Compute(200 * time.Microsecond),
				DoSyscall(SysLog, 1),
			}},
		}, swapper)
		if err != nil {
			return err
		}
	}

	// kjournald: the filesystem journal flusher. Its periodic commits give
	// the cross-CPU lock coupling real kernels have: a leaked ext3/journal/
	// block lock eventually hangs kjournald's CPU too, turning partial
	// hangs into full hangs over seconds (the propagation the paper's
	// Fig. 5 full-hang line shows).
	{
		rng := k.rng
		journal := ProgramFunc(func(ctx *ProgContext) Step {
			if ctx.StepIndex%2 == 0 {
				// Commit interval: long and jittered, so propagation of a
				// leaked lock to this CPU spreads over tens of seconds.
				return Sleep(10*time.Second + time.Duration(rng.Int63n(int64(10*time.Second))))
			}
			return DoSyscall(SysWrite, 1, 4096)
		})
		if _, err := k.CreateProcess(&ProcSpec{
			Comm:         "kjournald",
			KernelThread: true,
			Pinned:       true,
			CPUAffinity:  len(k.cpus) - 1,
			Program:      journal,
		}, swapper); err != nil {
			return err
		}
	}

	// init (pid of the first user process): parent of all user daemons.
	if _, err := k.CreateProcess(&ProcSpec{
		Comm: "init",
		Program: &LoopProgram{Body: []Step{
			Sleep(5 * time.Second),
		}},
	}, swapper); err != nil {
		return err
	}

	k.booted = true
	return nil
}

// InitProcess returns the init task (the default parent for new programs).
func (k *Kernel) InitProcess() *Task {
	for _, t := range k.tasks {
		if t.Comm == "init" {
			return t
		}
	}
	return nil
}

// FindTask returns the task with the given pid, or nil.
func (k *Kernel) FindTask(pid int) *Task { return k.tasks[pid] }

// TasksByComm returns live tasks whose command name matches.
func (k *Kernel) TasksByComm(comm string) []*Task {
	var out []*Task
	for _, t := range k.tasks {
		if t.Comm == comm && t.State != StateZombie {
			out = append(out, t)
		}
	}
	return out
}

// LiveTaskCount returns the number of non-zombie tasks, including idle
// threads — the simulator's ground truth that cross-view detection is
// validated against.
func (k *Kernel) LiveTaskCount() int {
	n := 0
	for _, t := range k.tasks {
		if t.State != StateZombie {
			n++
		}
	}
	return n
}

// RegisterKernelText allocates a kernel-text address and binds a handler to
// it. Kernel modules (rootkits) use this to create hooks; the returned GVA
// is what they write into the syscall table.
func (k *Kernel) RegisterKernelText(h SyscallHandler) arch.GVA {
	gva := k.textNext
	k.textNext += 16
	k.textHandlers[gva] = h
	return gva
}

// DispatchText invokes the handler bound to a kernel-text address; rootkit
// wrappers use it to chain to the original handler.
func (k *Kernel) DispatchText(gva arch.GVA, cpu int, t *Task, args [4]uint64) SyscallResult {
	h, ok := k.textHandlers[gva]
	if !ok {
		return SyscallResult{Err: ErrInval}
	}
	return h(k, cpu, t, args)
}

// KernelRead64 reads kernel memory by GVA with full privilege (module API).
func (k *Kernel) KernelRead64(gva arch.GVA) (uint64, error) { return k.kread64(gva) }

// KernelRead32 reads a 32-bit kernel field by GVA.
func (k *Kernel) KernelRead32(gva arch.GVA) (uint32, error) {
	return k.mem.ReadU32(KVAToGPA(gva))
}

// KernelWrite64 writes kernel memory by GVA from a CPU, passing the EPT
// check like any guest store (module API).
func (k *Kernel) KernelWrite64(cpu int, gva arch.GVA, v uint64) error {
	return k.kwrite64(cpu, gva, v)
}

// KernelWrite32 writes a 32-bit kernel field by GVA.
func (k *Kernel) KernelWrite32(cpu int, gva arch.GVA, v uint32) error {
	return k.kwrite32(cpu, gva, v)
}

// newTask builds the Go-side task and its serialized guest structures, but
// does not link it into scheduling or the task list.
func (k *Kernel) newTask(spec *ProcSpec, parent *Task, pid int) (*Task, error) {
	// Kernel stack: KStackSize-aligned so thread_info derivation works.
	stackGPA, err := k.allocLow(KStackSize/arch.PageSize, KStackSize/arch.PageSize)
	if err != nil {
		return nil, err
	}
	// task_struct from the arena.
	if k.taskArena == 0 || k.taskArenaOff+TaskStructSize > arch.PageSize {
		arena, err := k.allocLow(1, 1)
		if err != nil {
			return nil, err
		}
		k.taskArena, k.taskArenaOff = arena, 0
	}
	structGPA := k.taskArena + arch.GPA(k.taskArenaOff)
	k.taskArenaOff += TaskStructSize

	var pdba arch.GPA
	tgid := pid
	switch {
	case spec.KernelThread:
		// kthreads have no mm: they borrow the active address space.
	case spec.ThreadOfPID != 0:
		leader, ok := k.tasks[spec.ThreadOfPID]
		if !ok || leader.State == StateZombie || leader.PDBA == 0 {
			return nil, fmt.Errorf("guest: thread group leader pid %d unavailable", spec.ThreadOfPID)
		}
		pdba = leader.PDBA
		tgid = leader.TGID
	default:
		pdba, err = k.newPageDirectory(k.cfg.UserPagesPerProc)
		if err != nil {
			return nil, err
		}
	}
	if pdba != 0 {
		k.mmUsers[pdba]++
	}

	euid := spec.UID
	if spec.EUID != nil {
		euid = *spec.EUID
	}
	affinity := -1
	if spec.Pinned && spec.CPUAffinity >= 0 && spec.CPUAffinity < len(k.cpus) {
		affinity = spec.CPUAffinity
	}
	t := &Task{
		PID: pid, TGID: tgid,
		UID: spec.UID, EUID: euid, GID: spec.GID,
		Comm:         spec.Comm,
		State:        StateRunning,
		KernelThread: spec.KernelThread,
		Affinity:     affinity,
		PDBA:         pdba,
		StructGVA:    GPAToKVA(structGPA),
		StackBase:    GPAToKVA(stackGPA),
		RSP0:         GPAToKVA(stackGPA) + KStackSize - 16,
		parent:       parent,
		program:      spec.Program,
		nextFD:       3,
		startTime:    k.bootNow,
	}

	// Serialize the task_struct.
	if err := k.writeTaskStruct(t); err != nil {
		return nil, err
	}
	// thread_info at the stack base.
	if err := k.mem.WriteU64(stackGPA+ThreadInfoOffTask, uint64(t.StructGVA)); err != nil {
		return nil, err
	}
	if err := k.mem.WriteU32(stackGPA+ThreadInfoOffCPU, uint32(maxInt(affinity, 0))); err != nil {
		return nil, err
	}
	return t, nil
}

// writeTaskStruct serializes every task_struct field from the Go-side task.
func (k *Kernel) writeTaskStruct(t *Task) error {
	gpa := KVAToGPA(t.StructGVA)
	var flags uint32
	if t.KernelThread {
		flags |= TaskFlagKernelThread
	}
	var parentGVA uint64
	if t.parent != nil {
		parentGVA = uint64(t.parent.StructGVA)
	}
	writes := []struct {
		off arch.GPA
		fn  func() error
	}{
		{TaskOffPID, func() error { return k.mem.WriteU32(gpa+TaskOffPID, uint32(t.PID)) }},
		{TaskOffTGID, func() error { return k.mem.WriteU32(gpa+TaskOffTGID, uint32(t.TGID)) }},
		{TaskOffUID, func() error { return k.mem.WriteU32(gpa+TaskOffUID, t.UID) }},
		{TaskOffEUID, func() error { return k.mem.WriteU32(gpa+TaskOffEUID, t.EUID) }},
		{TaskOffGID, func() error { return k.mem.WriteU32(gpa+TaskOffGID, t.GID) }},
		{TaskOffState, func() error { return k.mem.WriteU32(gpa+TaskOffState, uint32(t.State)) }},
		{TaskOffFlags, func() error { return k.mem.WriteU32(gpa+TaskOffFlags, flags) }},
		{TaskOffCR3, func() error { return k.mem.WriteU64(gpa+TaskOffCR3, uint64(t.PDBA)) }},
		{TaskOffParent, func() error { return k.mem.WriteU64(gpa+TaskOffParent, parentGVA) }},
		{TaskOffStack, func() error { return k.mem.WriteU64(gpa+TaskOffStack, uint64(t.StackBase)) }},
		{TaskOffComm, func() error { return k.mem.WriteCString(gpa+TaskOffComm, t.Comm, TaskCommLen) }},
		{TaskOffStartTime, func() error { return k.mem.WriteU64(gpa+TaskOffStartTime, uint64(t.startTime)) }},
	}
	for _, w := range writes {
		if err := w.fn(); err != nil {
			return err
		}
	}
	return nil
}

// syncState mirrors the Go-side scheduling state into the serialized
// task_struct, keeping /proc and VMI views live.
func (k *Kernel) syncState(t *Task) {
	_ = k.mem.WriteU32(KVAToGPA(t.StructGVA)+TaskOffState, uint32(t.State))
}

// setCreds updates a task's credentials in both views.
func (k *Kernel) setCreds(t *Task, uid, euid uint32) {
	t.UID, t.EUID = uid, euid
	gpa := KVAToGPA(t.StructGVA)
	_ = k.mem.WriteU32(gpa+TaskOffUID, uid)
	_ = k.mem.WriteU32(gpa+TaskOffEUID, euid)
}

// CreateProcess creates a process (or kernel thread), links it into the
// task list, and enqueues it for scheduling. The parent defaults to init.
func (k *Kernel) CreateProcess(spec *ProcSpec, parent *Task) (*Task, error) {
	if spec == nil || (spec.Program == nil && !spec.KernelThread) {
		return nil, fmt.Errorf("guest: ProcSpec requires a Program for user processes")
	}
	if parent == nil {
		parent = k.InitProcess()
	}
	pid := k.nextPID
	k.nextPID++
	t, err := k.newTask(spec, parent, pid)
	if err != nil {
		return nil, err
	}
	k.tasks[pid] = t
	k.stats.ProcsCreated++

	// Link into the circular task list before init_task (i.e., at the
	// tail), by editing the serialized structures.
	if k.sym.InitTask != 0 {
		head := k.sym.InitTask
		prev64, err := k.kread64(head + TaskOffListPrev)
		if err != nil {
			return nil, err
		}
		prev := arch.GVA(prev64)
		if err := k.mem.WriteU64(KVAToGPA(t.StructGVA)+TaskOffListNext, uint64(head)); err != nil {
			return nil, err
		}
		if err := k.mem.WriteU64(KVAToGPA(t.StructGVA)+TaskOffListPrev, uint64(prev)); err != nil {
			return nil, err
		}
		if err := k.mem.WriteU64(KVAToGPA(prev)+TaskOffListNext, uint64(t.StructGVA)); err != nil {
			return nil, err
		}
		if err := k.mem.WriteU64(KVAToGPA(head)+TaskOffListPrev, uint64(t.StructGVA)); err != nil {
			return nil, err
		}
	}

	// Assign a CPU: affinity, else least loaded.
	cpu := t.Affinity
	if cpu < 0 {
		best, bestLoad := 0, int(^uint(0)>>1)
		for _, c := range k.cpus {
			load := len(c.rq)
			if c.current != nil && c.current != c.idle {
				load++
			}
			if load < bestLoad {
				best, bestLoad = c.id, load
			}
		}
		cpu = best
	}
	t.CPU = cpu
	if t.program != nil {
		k.enqueue(t)
	}
	return t, nil
}

// terminateTask ends a task: zombie state, unlink from the task list, clear
// its address space (making its PDBA fail the known-GVA probe), release any
// user locks, and deschedule.
func (k *Kernel) terminateTask(cpu int, t *Task, code int) {
	if t.State == StateZombie {
		return
	}
	t.exitCode = code
	t.State = StateZombie
	k.syncState(t)
	k.stats.ProcsExited++

	// Unlink from the serialized list using the list's own pointers.
	gpa := KVAToGPA(t.StructGVA)
	next64, err1 := k.mem.ReadU64(gpa + TaskOffListNext)
	prev64, err2 := k.mem.ReadU64(gpa + TaskOffListPrev)
	if err1 == nil && err2 == nil && next64 != 0 && prev64 != 0 {
		_ = k.mem.WriteU64(KVAToGPA(arch.GVA(prev64))+TaskOffListNext, next64)
		_ = k.mem.WriteU64(KVAToGPA(arch.GVA(next64))+TaskOffListPrev, prev64)
	}

	// Tear down the address space so stale-PDBA sweeps can detect death —
	// but only with the thread group's last member.
	if t.PDBA != 0 {
		if k.mmUsers[t.PDBA] > 0 {
			k.mmUsers[t.PDBA]--
		}
		if k.mmUsers[t.PDBA] == 0 {
			_ = k.clearPageDirectory(t.PDBA)
			delete(k.mmUsers, t.PDBA)
		}
	}

	// Release user locks held by the dying task.
	for id, holder := range k.userLocks {
		if holder == t {
			delete(k.userLocks, id)
		}
	}

	k.dequeue(t)
	k.removeSleeper(t)
	if t.netWaitPort != nil {
		k.removeNetWaiter(t)
	}
	if c := k.cpus[t.CPU]; c.current == t {
		c.current.needResched = true
	}
	_ = cpu
}

// sleepTask puts the current task to sleep for d.
func (k *Kernel) sleepTask(cpu int, t *Task, d time.Duration) {
	c := k.cpus[cpu]
	t.sleepUntil = c.localNow + d
	t.State = StateSleeping
	k.syncState(t)
	c.sleepers = append(c.sleepers, t)
}

// removeSleeper removes t from its CPU's sleeper list.
func (k *Kernel) removeSleeper(t *Task) {
	c := k.cpus[t.CPU]
	for i, s := range c.sleepers {
		if s == t {
			c.sleepers = append(c.sleepers[:i], c.sleepers[i+1:]...)
			return
		}
	}
}

// userLockAcquire implements the futex-like user lock: uncontended acquire
// succeeds; contended acquire leaves the task spinning in kernel context
// (ulockWait set), whose preemptibility depends on the kernel configuration.
func (k *Kernel) userLockAcquire(cpu int, t *Task, id uint64) {
	if holder, held := k.userLocks[id]; held && holder != t {
		t.ulockWait = id
		return
	}
	k.userLocks[id] = t
	_ = cpu
}

// userLockRelease frees a user lock if held by t.
func (k *Kernel) userLockRelease(t *Task, id uint64) {
	if k.userLocks[id] == t {
		delete(k.userLocks, id)
	}
}

// netRecv returns a queued packet or blocks the caller on the port.
func (k *Kernel) netRecv(cpu int, t *Task, port uint16) SyscallResult {
	if q := k.netIn[port]; len(q) > 0 {
		pkt := q[0]
		k.netIn[port] = q[1:]
		return SyscallResult{Ret: pkt.Payload, Data: pkt}
	}
	t.netWaitPort = &port
	t.State = StateBlocked
	k.syncState(t)
	k.netWaiters[port] = append(k.netWaiters[port], t)
	return SyscallResult{}
}

// LoopbackPortBase divides the port space: ports below it are external
// (replies surface to the harness, requests arrive via device interrupts);
// ports at or above it are guest-internal loopback, connecting guest
// processes to each other like pipes or local sockets.
const LoopbackPortBase = 1024

// netSend emits a packet: to the harness for external ports, to a local
// receiver for loopback ports.
func (k *Kernel) netSend(t *Task, port uint16, payload uint64) {
	if port >= LoopbackPortBase {
		k.InjectPacket(port, payload)
		return
	}
	k.netOut = append(k.netOut, NetReply{Port: port, Payload: payload, At: k.bootNow, PID: t.PID})
}

// InjectPacket queues an inbound packet and wakes a blocked receiver. The
// hypervisor calls this when delivering a virtual device interrupt.
func (k *Kernel) InjectPacket(port uint16, payload uint64) {
	k.netIn[port] = append(k.netIn[port], netPacket{Port: port, Payload: payload, At: k.bootNow})
	waiters := k.netWaiters[port]
	if len(waiters) == 0 {
		return
	}
	t := waiters[0]
	k.netWaiters[port] = waiters[1:]
	t.netWaitPort = nil
	t.State = StateRunning
	k.syncState(t)
	// Deliver the queued packet to the blocked syscall's result.
	pkt := k.netIn[port][0]
	k.netIn[port] = k.netIn[port][1:]
	t.setResult(SyscallResult{Ret: pkt.Payload, Data: pkt})
	k.enqueue(t)
}

// removeNetWaiter removes t from any port wait queue.
func (k *Kernel) removeNetWaiter(t *Task) {
	for port, waiters := range k.netWaiters {
		for i, w := range waiters {
			if w == t {
				k.netWaiters[port] = append(waiters[:i], waiters[i+1:]...)
				t.netWaitPort = nil
				return
			}
		}
	}
}

// DrainNetReplies returns and clears the guest's outbound packets.
func (k *Kernel) DrainNetReplies() []NetReply {
	out := k.netOut
	k.netOut = nil
	return out
}

// ChargeExit adds hypervisor-side cost (VM exit handling, monitor logging)
// to a CPU's budget; the run loop deducts it from guest execution time.
func (k *Kernel) ChargeExit(cpu int, d time.Duration) {
	if cpu >= 0 && cpu < len(k.cpus) {
		k.cpus[cpu].extraCharge += d
	}
}

// LocalNow returns the fine-grained virtual time of a CPU within the
// current slice; the hypervisor uses it to timestamp forwarded events.
func (k *Kernel) LocalNow(cpu int) time.Duration {
	if cpu >= 0 && cpu < len(k.cpus) {
		return k.cpus[cpu].localNow
	}
	return k.bootNow
}

// IRQsDisabled reports whether a CPU has interrupts masked (used by the
// hypervisor to decide whether a timer interrupt can be delivered).
func (k *Kernel) IRQsDisabled(cpu int) bool {
	return k.cpus[cpu].irqDepth > 0
}

// CurrentTask returns the task on a CPU.
func (k *Kernel) CurrentTask(cpu int) *Task { return k.cpus[cpu].current }

// SwitchCount returns the number of context switches a CPU has performed —
// the simulator-level ground truth the hang experiments classify against
// (independent of what any monitor observes).
func (k *Kernel) SwitchCount(cpu int) uint64 { return k.cpus[cpu].switches }

// RunqueueLen returns the number of runnable-but-not-running tasks on a CPU.
func (k *Kernel) RunqueueLen(cpu int) int { return len(k.cpus[cpu].rq) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
