package guest

import (
	"testing"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/gmem"
	"hypertap/internal/hav"
)

// testVM bundles a standalone kernel with its HAV pieces for driving the
// guest without a hypervisor.
type testVM struct {
	mem   *gmem.Memory
	ctrls *hav.Controls
	ept   *hav.EPT
	vcpus []*hav.VCPU
	k     *Kernel
	now   time.Duration
	exits []hav.Exit
}

func newTestVM(t *testing.T, ncpu int, mutate func(*Config)) *testVM {
	t.Helper()
	mem := gmem.MustNew(96 << 20)
	ctrls := &hav.Controls{}
	ept := hav.NewEPT(mem.Pages())
	var seq uint64
	vm := &testVM{mem: mem, ctrls: ctrls, ept: ept}
	for i := 0; i < ncpu; i++ {
		v := hav.NewVCPU(i, ctrls, ept, &seq)
		// Record a copy: the exit is borrowed for the handler call only.
		v.SetHandler(hav.ExitHandlerFunc(func(e *hav.Exit) { vm.exits = append(vm.exits, *e) }))
		vm.vcpus = append(vm.vcpus, v)
	}
	cfg := Config{Mem: mem, VCPUs: vm.vcpus, Seed: 1}
	if mutate != nil {
		mutate(&cfg)
	}
	k, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := k.Boot(); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	vm.k = k
	return vm
}

const testTick = time.Millisecond

// run advances the VM by d of virtual time.
func (vm *testVM) run(d time.Duration) {
	end := vm.now + d
	for vm.now < end {
		for cpu := range vm.vcpus {
			vm.k.DeliverTimer(cpu, testTick)
			vm.k.RunSlice(cpu, vm.now, testTick)
		}
		vm.now += testTick
	}
}

func (vm *testVM) exitCount(r hav.ExitReason) int {
	n := 0
	for _, e := range vm.exits {
		if e.Reason == r {
			n++
		}
	}
	return n
}

func TestFaultSiteCount(t *testing.T) {
	b := buildKernelPaths()
	if got := len(b.sites); got != 374 {
		t.Fatalf("fault sites = %d, want 374 (the paper's count)", got)
	}
	// Site IDs must be dense and 1-based.
	for i, s := range b.sites {
		if int(s.ID) != i+1 {
			t.Fatalf("site %d has ID %d, want dense numbering", i, s.ID)
		}
	}
	// Every subsystem of the paper's description must be represented.
	subsys := map[string]int{}
	for _, s := range b.sites {
		subsys[s.Subsystem]++
	}
	for _, want := range []string{"core", "ext3", "block", "char", "net", "sshd"} {
		if subsys[want] == 0 {
			t.Errorf("subsystem %q has no fault sites", want)
		}
	}
	// All four fault kinds must exist.
	kinds := map[FaultKind]int{}
	for _, s := range b.sites {
		kinds[s.Kind]++
	}
	for _, k := range []FaultKind{FaultMissingRelease, FaultWrongOrder, FaultMissingPair, FaultMissingIRQRestore} {
		if kinds[k] == 0 {
			t.Errorf("fault kind %v has no sites", k)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without memory succeeded")
	}
	mem := gmem.MustNew(64 << 20)
	if _, err := New(Config{Mem: mem}); err == nil {
		t.Error("New without vCPUs succeeded")
	}
	small := gmem.MustNew(4 << 20)
	ctrls := &hav.Controls{}
	ept := hav.NewEPT(small.Pages())
	var seq uint64
	v := hav.NewVCPU(0, ctrls, ept, &seq)
	if _, err := New(Config{Mem: small, VCPUs: []*hav.VCPU{v}}); err == nil {
		t.Error("New with tiny memory succeeded")
	}
}

func TestBootPublishesSymbolsAndRegisters(t *testing.T) {
	vm := newTestVM(t, 2, nil)
	sym := vm.k.Symbols()
	if sym.InitTask == 0 || sym.SyscallTable == 0 || sym.TSSBase == 0 {
		t.Fatalf("missing symbols: %+v", sym)
	}
	for i, v := range vm.vcpus {
		if v.Regs.TR == 0 {
			t.Errorf("cpu%d TR not programmed", i)
		}
		if v.Regs.CR3 == 0 {
			t.Errorf("cpu%d CR3 not loaded at boot", i)
		}
		wantTSS := sym.TSSBase + arch.GVA(i*arch.TSSSize)
		if v.Regs.TR != wantTSS {
			t.Errorf("cpu%d TR = %#x, want %#x", i, uint64(v.Regs.TR), uint64(wantTSS))
		}
	}
	if vm.k.InitProcess() == nil {
		t.Fatal("no init process after boot")
	}
	if err := vm.k.Boot(); err == nil {
		t.Fatal("double Boot succeeded")
	}
}

func TestBootWritesMSRsForSysenter(t *testing.T) {
	vm := newTestVM(t, 2, func(c *Config) { c.Mech = MechSysenter })
	if got := vm.exitCount(hav.ExitWRMSR); got != 6 { // 3 MSRs × 2 CPUs
		t.Fatalf("WRMSR exits at boot = %d, want 6", got)
	}
	entry := vm.vcpus[0].ReadMSR(arch.MSRSysenterEIP)
	if arch.GVA(entry) != vm.k.Symbols().SysenterEntry {
		t.Fatalf("SYSENTER EIP = %#x, want %#x", entry, uint64(vm.k.Symbols().SysenterEntry))
	}
}

func TestContextSwitchWritesArchState(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	vm.ctrls.CR3LoadExiting = true

	// Two CPU-bound processes force regular switches.
	for i := 0; i < 2; i++ {
		_, err := vm.k.CreateProcess(&ProcSpec{
			Comm: "spin", UID: 1000,
			Program: &LoopProgram{Body: []Step{Compute(2 * time.Millisecond)}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	vm.run(100 * time.Millisecond)

	st := vm.k.Stats()
	if st.ContextSwitches < 5 {
		t.Fatalf("context switches = %d, want several", st.ContextSwitches)
	}
	if got := vm.exitCount(hav.ExitCRAccess); got < 5 {
		t.Fatalf("CR_ACCESS exits = %d, want several", got)
	}

	// The TSS.RSP0 in guest memory must match the running task's RSP0 —
	// the architectural invariant itself.
	cur := vm.k.CurrentTask(0)
	tss := vm.vcpus[0].Regs.TR
	rsp0, err := vm.k.kread64(tss + arch.TSSOffRSP0)
	if err != nil {
		t.Fatal(err)
	}
	if arch.GVA(rsp0) != cur.RSP0 {
		t.Fatalf("TSS.RSP0 = %#x, current task RSP0 = %#x", rsp0, uint64(cur.RSP0))
	}
}

func TestThreadInfoDerivation(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	if _, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "worker", UID: 1000,
		Program: &LoopProgram{Body: []Step{Compute(time.Millisecond)}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(20 * time.Millisecond)

	// Replay HT-Ninja's derivation chain: TR → TSS.RSP0 → thread_info →
	// task_struct → pid, purely from guest memory and registers.
	tss := vm.vcpus[0].Regs.TR
	rsp0, err := vm.k.kread64(tss + arch.TSSOffRSP0)
	if err != nil {
		t.Fatal(err)
	}
	tiBase := ThreadInfoBase(arch.GVA(rsp0))
	taskGVA, err := vm.k.kread64(tiBase + ThreadInfoOffTask)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := vm.k.KernelRead32(arch.GVA(taskGVA) + TaskOffPID)
	if err != nil {
		t.Fatal(err)
	}
	cur := vm.k.CurrentTask(0)
	if int(pid) != cur.PID {
		t.Fatalf("derived pid = %d, current = %d", pid, cur.PID)
	}
}

func TestSyscallGateInt80(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	vm.ctrls.SetExceptionBit(arch.VectorLinuxSyscall, true)
	if _, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "caller", UID: 1000,
		Program: NewStepList(DoSyscall(SysGetPID), DoSyscall(SysGetUID), Exit(0)),
	}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(50 * time.Millisecond)
	// 2 explicit syscalls + exit (also a syscall) at minimum.
	if got := vm.exitCount(hav.ExitException); got < 3 {
		t.Fatalf("EXCEPTION exits = %d, want >= 3", got)
	}
}

func TestSyscallGateSysenterExecProtect(t *testing.T) {
	vm := newTestVM(t, 1, func(c *Config) { c.Mech = MechSysenter })
	// A monitor would execute-protect the entry page after the WRMSR.
	entryGPA := KVAToGPA(vm.k.Symbols().SysenterEntry)
	if err := vm.ept.SetPerm(entryGPA, hav.PermRead|hav.PermWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "caller", UID: 1000,
		Program: NewStepList(DoSyscall(SysGetPID), Exit(0)),
	}, nil); err != nil {
		t.Fatal(err)
	}
	before := vm.exitCount(hav.ExitEPTViolation)
	vm.run(50 * time.Millisecond)
	if got := vm.exitCount(hav.ExitEPTViolation) - before; got < 2 {
		t.Fatalf("EPT_VIOLATION exits from syscall fetches = %d, want >= 2", got)
	}
	// The syscall still worked despite the traps.
	if vm.k.Stats().Syscalls < 2 {
		t.Fatal("syscalls did not execute")
	}
}

func TestSyscallRegistersCarryNumberAndArgs(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	vm.ctrls.SetExceptionBit(arch.VectorLinuxSyscall, true)
	if _, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "caller", UID: 1000,
		Program: NewStepList(DoSyscall(SysWrite, 1, 4096), Exit(0)),
	}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(50 * time.Millisecond)
	var found bool
	for _, e := range vm.exits {
		if e.Reason != hav.ExitException {
			continue
		}
		if Syscall(e.Guest.GPR(arch.RAX)) == SysWrite {
			found = true
			if e.Guest.GPR(arch.RBX) != 1 || e.Guest.GPR(arch.RCX) != 4096 {
				t.Fatalf("syscall args in registers = %d,%d want 1,4096",
					e.Guest.GPR(arch.RBX), e.Guest.GPR(arch.RCX))
			}
		}
	}
	if !found {
		t.Fatal("no EXCEPTION exit carried the write syscall")
	}
}

func TestTaskListWalkMatchesCreation(t *testing.T) {
	vm := newTestVM(t, 2, nil)
	for i := 0; i < 5; i++ {
		if _, err := vm.k.CreateProcess(&ProcSpec{
			Comm: "daemon", UID: 1000,
			Program: &LoopProgram{Body: []Step{Sleep(time.Second)}},
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := vm.k.walkTaskList()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != vm.k.LiveTaskCount() {
		t.Fatalf("list walk found %d tasks, ground truth %d", len(entries), vm.k.LiveTaskCount())
	}
	daemons := 0
	for _, e := range entries {
		if e.Comm == "daemon" {
			daemons++
			if e.UID != 1000 {
				t.Errorf("daemon uid = %d, want 1000", e.UID)
			}
		}
	}
	if daemons != 5 {
		t.Fatalf("daemons in /proc = %d, want 5", daemons)
	}
}

func TestSpawnAndExitMaintainList(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	child := &ProcSpec{Comm: "child", UID: 1000, Program: NewStepList(Compute(time.Millisecond), Exit(0))}
	if _, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "parent", UID: 1000,
		Program: NewStepList(Spawn(child), Compute(time.Millisecond), Exit(0)),
	}, nil); err != nil {
		t.Fatal(err)
	}
	baseline := vm.k.LiveTaskCount()
	vm.run(200 * time.Millisecond)
	st := vm.k.Stats()
	if st.ProcsCreated < 2 || st.ProcsExited < 2 {
		t.Fatalf("created/exited = %d/%d, want >= 2 each", st.ProcsCreated, st.ProcsExited)
	}
	entries, err := vm.k.walkTaskList()
	if err != nil {
		t.Fatal(err)
	}
	// parent and child both exited; list back to pre-spawn baseline - 1
	// (the parent itself was in baseline).
	if len(entries) != baseline-1 {
		t.Fatalf("list has %d entries, want %d", len(entries), baseline-1)
	}
	for _, e := range entries {
		if e.Comm == "parent" || e.Comm == "child" {
			t.Fatalf("exited %q still in task list", e.Comm)
		}
	}
}

func TestExitClearsPageDirectory(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	task, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "brief", UID: 1000,
		Program: NewStepList(Compute(time.Millisecond), Exit(0)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pdba := task.PDBA
	if _, ok := vm.k.Translate(pdba, arch.KernelBase); !ok {
		t.Fatal("fresh page directory does not map the kernel")
	}
	vm.run(100 * time.Millisecond)
	if task.State != StateZombie {
		t.Fatalf("task state = %v, want zombie", task.State)
	}
	if _, ok := vm.k.Translate(pdba, arch.KernelBase); ok {
		t.Fatal("dead address space still maps the kernel (stale-PDBA sweep would fail)")
	}
}

func TestCredentialChecks(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	var gotUID, escalatedUID uint64 = 999, 999
	prog := ProgramFunc(func(ctx *ProgContext) Step {
		switch ctx.StepIndex {
		case 0:
			return DoSyscall(SysSetUID, 0) // should fail: not root
		case 1:
			return DoSyscall(SysGetUID)
		case 2:
			if ctx.LastResult != nil {
				gotUID = ctx.LastResult.Ret
			}
			return DoSyscall(SysVulnIoctl, vulnMagic) // exploit
		case 3:
			return DoSyscall(SysGetUID)
		default:
			if ctx.LastResult != nil && ctx.StepIndex == 4 {
				escalatedUID = ctx.LastResult.Ret
			}
			return Exit(0)
		}
	})
	if _, err := vm.k.CreateProcess(&ProcSpec{Comm: "attacker", UID: 1000, Program: prog}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(100 * time.Millisecond)
	if gotUID != 1000 {
		t.Fatalf("uid after denied setuid = %d, want 1000", gotUID)
	}
	if escalatedUID != 0 {
		t.Fatalf("uid after exploit = %d, want 0", escalatedUID)
	}
	if vm.k.Stats().Escalations != 1 {
		t.Fatalf("escalations = %d, want 1", vm.k.Stats().Escalations)
	}
}

func TestCredentialsVisibleInGuestMemory(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	task, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "attacker", UID: 1000,
		Program: NewStepList(DoSyscall(SysVulnIoctl, vulnMagic), Compute(time.Second)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm.run(50 * time.Millisecond)
	euid, err := vm.k.KernelRead32(task.StructGVA + TaskOffEUID)
	if err != nil {
		t.Fatal(err)
	}
	if euid != 0 {
		t.Fatalf("serialized euid = %d, want 0 after exploit", euid)
	}
}

func TestSleepAndWake(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	var wokeAt time.Duration = -1
	prog := ProgramFunc(func(ctx *ProgContext) Step {
		switch ctx.StepIndex {
		case 0:
			return Sleep(10 * time.Millisecond)
		case 1:
			wokeAt = ctx.Now
			return Exit(0)
		default:
			return Exit(0)
		}
	})
	if _, err := vm.k.CreateProcess(&ProcSpec{Comm: "sleeper", UID: 1, Program: prog}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(100 * time.Millisecond)
	if wokeAt < 10*time.Millisecond {
		t.Fatalf("woke at %v, before the 10ms deadline", wokeAt)
	}
	if wokeAt > 30*time.Millisecond {
		t.Fatalf("woke at %v, far past the deadline", wokeAt)
	}
}

func TestUserLockContention(t *testing.T) {
	// A contended user lock spins in kernel context; only a preemptible
	// kernel lets the holder run on the same CPU (the paper's partial- vs
	// full-hang distinction). Use CONFIG_PREEMPT so handoff can happen.
	vm := newTestVM(t, 1, func(c *Config) { c.Preemptible = true })
	const lock = 42
	order := []int{}
	holder := ProgramFunc(func(ctx *ProgContext) Step {
		switch ctx.StepIndex {
		case 0:
			return DoSyscall(SysULock, lock)
		case 1:
			return Compute(20 * time.Millisecond)
		case 2:
			order = append(order, 1)
			return DoSyscall(SysUUnlock, lock)
		default:
			return Exit(0)
		}
	})
	waiter := ProgramFunc(func(ctx *ProgContext) Step {
		switch ctx.StepIndex {
		case 0:
			return Sleep(2 * time.Millisecond) // let holder grab it first
		case 1:
			return DoSyscall(SysULock, lock)
		case 2:
			order = append(order, 2)
			return DoSyscall(SysUUnlock, lock)
		default:
			return Exit(0)
		}
	})
	if _, err := vm.k.CreateProcess(&ProcSpec{Comm: "holder", UID: 1, Program: holder}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.k.CreateProcess(&ProcSpec{Comm: "waiter", UID: 1, Program: waiter}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(200 * time.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("lock handoff order = %v, want [1 2]", order)
	}
}

func TestNetRequestResponse(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	const port = 80
	server := &LoopProgram{Body: []Step{
		DoSyscall(SysNetRecv, port),
		Compute(500 * time.Microsecond),
		DoSyscall(SysNetSend, port, 0xCAFE),
	}}
	if _, err := vm.k.CreateProcess(&ProcSpec{Comm: "httpd", UID: 33, Program: server}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(10 * time.Millisecond) // let the server block in netrecv
	vm.k.DeliverDevice(0, port, 1)
	vm.run(20 * time.Millisecond)
	replies := vm.k.DrainNetReplies()
	if len(replies) != 1 || replies[0].Payload != 0xCAFE {
		t.Fatalf("replies = %+v, want one 0xCAFE", replies)
	}
}

func TestHousekeepingBoundsSwitchGap(t *testing.T) {
	vm := newTestVM(t, 2, nil)
	// Idle guest: only kworkers wake. Measure context switches per CPU by
	// observing TSS writes... simpler: total switches must keep growing.
	before := vm.k.Stats().ContextSwitches
	vm.run(3 * time.Second)
	after := vm.k.Stats().ContextSwitches
	if after-before < 4 {
		t.Fatalf("idle guest made %d switches in 3s, want housekeeping activity", after-before)
	}
}

// armAlways is a FaultPlan arming one site persistently.
type armAlways struct{ site SiteID }

func (a armAlways) Site() SiteID        { return a.site }
func (a armAlways) Armed(s SiteID) bool { return s == a.site }

// findSite returns the first site matching kind and path.
func findSite(t *testing.T, k *Kernel, kind FaultKind, path Syscall) SiteID {
	t.Helper()
	for _, s := range k.Sites() {
		if s.Kind == kind && s.Path == path {
			return s.ID
		}
	}
	t.Fatalf("no %v site on %v", kind, path)
	return 0
}

func TestMissingReleaseCausesHang(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	site := findSite(t, vm.k, FaultMissingRelease, SysWrite)
	vm.k.SetFaultPlan(armAlways{site: site})

	// Two writers: the first leaks the lock, the second spins forever.
	writer := func() Program {
		return &LoopProgram{Body: []Step{
			DoSyscall(SysOpen, 1),
			DoSyscall(SysWrite, 3, 512),
			DoSyscall(SysClose, 3),
			Compute(time.Millisecond),
		}}
	}
	for i := 0; i < 2; i++ {
		if _, err := vm.k.CreateProcess(&ProcSpec{Comm: "writer", UID: 1, Program: writer()}, nil); err != nil {
			t.Fatal(err)
		}
	}
	vm.run(500 * time.Millisecond)
	mid := vm.k.Stats().ContextSwitches
	vm.run(3 * time.Second)
	if got := vm.k.Stats().ContextSwitches; got != mid {
		t.Fatalf("context switches kept happening after hang (%d -> %d)", mid, got)
	}
}

func TestMissingIRQRestoreKillsTimer(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	site := findSite(t, vm.k, FaultMissingIRQRestore, SysSleepNs)
	vm.k.SetFaultPlan(armAlways{site: site})
	if _, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "napper", UID: 1,
		Program: &LoopProgram{Body: []Step{Sleep(time.Millisecond), Compute(time.Millisecond)}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(time.Second)
	if !vm.k.IRQsDisabled(0) {
		t.Fatal("interrupts still enabled after missing irq-restore fault")
	}
}

func TestTransientPlanActivatesOnce(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	// Use a wrong-order site: without concurrency it does not hang, so the
	// path keeps being dispatched and we can observe one-shot arming.
	site := findSite(t, vm.k, FaultWrongOrder, SysRead)
	plan := &countingPlan{site: site, fireLimit: 1}
	vm.k.SetFaultPlan(plan)
	if _, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "reader", UID: 1,
		Program: &LoopProgram{Body: []Step{
			DoSyscall(SysOpen, 1), DoSyscall(SysRead, 3, 128), DoSyscall(SysClose, 3),
		}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(300 * time.Millisecond)
	if plan.fired != 1 {
		t.Fatalf("transient fault fired %d times, want 1", plan.fired)
	}
	if plan.consulted < 2 {
		t.Fatalf("site consulted %d times, want repeated execution", plan.consulted)
	}
}

type countingPlan struct {
	site      SiteID
	fireLimit int
	fired     int
	consulted int
}

func (p *countingPlan) Site() SiteID { return p.site }

func (p *countingPlan) Armed(s SiteID) bool {
	if s != p.site {
		return false
	}
	p.consulted++
	if p.fired < p.fireLimit {
		p.fired++
		return true
	}
	return false
}

func TestDKOMHidesFromListButKeepsRunning(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	victim, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "malware", UID: 0,
		Program: &LoopProgram{Body: []Step{Compute(time.Millisecond), DoSyscall(SysWrite, 1, 64)}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm.run(10 * time.Millisecond)

	// DKOM by hand: unlink the victim's task_struct from the list using
	// only guest memory operations (what a rootkit module does).
	next, _ := vm.k.KernelRead64(victim.StructGVA + TaskOffListNext)
	prev, _ := vm.k.KernelRead64(victim.StructGVA + TaskOffListPrev)
	if err := vm.k.KernelWrite64(0, arch.GVA(prev)+TaskOffListNext, next); err != nil {
		t.Fatal(err)
	}
	if err := vm.k.KernelWrite64(0, arch.GVA(next)+TaskOffListPrev, prev); err != nil {
		t.Fatal(err)
	}

	entries, err := vm.k.walkTaskList()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.PID == victim.PID {
			t.Fatal("DKOM'd task still visible in task list")
		}
	}
	if len(entries) != vm.k.LiveTaskCount()-1 {
		t.Fatalf("list entries = %d, ground truth-1 = %d", len(entries), vm.k.LiveTaskCount()-1)
	}

	// The hidden task still executes: the scheduler does not consult the
	// task list, so its program keeps making progress.
	before := victim.stepIndex
	vm.run(100 * time.Millisecond)
	if victim.stepIndex <= before {
		t.Fatal("hidden task stopped executing")
	}
}

func TestSyscallTableHijackFiltersListing(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	k := vm.k

	// A rootkit-style wrapper: call the original handler, drop pid 0.
	slot := k.Symbols().SyscallTable + arch.GVA(uint64(SysListProcs)*8)
	orig, err := k.KernelRead64(slot)
	if err != nil {
		t.Fatal(err)
	}
	wrapper := k.RegisterKernelText(func(k *Kernel, cpu int, t *Task, args [4]uint64) SyscallResult {
		res := k.DispatchText(arch.GVA(orig), cpu, t, args)
		entries, ok := res.Data.([]ProcEntry)
		if !ok {
			return res
		}
		var filtered []ProcEntry
		for _, e := range entries {
			if e.Comm != "init" {
				filtered = append(filtered, e)
			}
		}
		res.Data = filtered
		return res
	})
	if err := k.KernelWrite64(0, slot, uint64(wrapper)); err != nil {
		t.Fatal(err)
	}

	// A guest observer calls listprocs; init must be missing from its view.
	var sawInit, ran bool
	prog := ProgramFunc(func(ctx *ProgContext) Step {
		switch ctx.StepIndex {
		case 0:
			return DoSyscall(SysListProcs)
		default:
			if ctx.LastResult != nil {
				ran = true
				if entries, ok := ctx.LastResult.Data.([]ProcEntry); ok {
					for _, e := range entries {
						if e.Comm == "init" {
							sawInit = true
						}
					}
				}
			}
			return Exit(0)
		}
	})
	if _, err := k.CreateProcess(&ProcSpec{Comm: "ps", UID: 1000, Program: prog}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(50 * time.Millisecond)
	if !ran {
		t.Fatal("observer never completed listprocs")
	}
	if sawInit {
		t.Fatal("hijacked listing still shows init")
	}
	// The unhijacked walk (VMI-style) still sees init.
	entries, err := k.walkTaskList()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Comm == "init" {
			found = true
		}
	}
	if !found {
		t.Fatal("direct list walk lost init")
	}
}

func TestProcStatSideChannelVisibility(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	sleeper, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "ninja", UID: 0,
		Program: &LoopProgram{Body: []Step{Sleep(20 * time.Millisecond), Compute(10 * time.Millisecond)}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var states []TaskState
	observer := ProgramFunc(func(ctx *ProgContext) Step {
		if ctx.StepIndex%2 == 0 {
			return DoSyscall(SysProcStat, uint64(sleeper.PID))
		}
		if ctx.LastResult != nil {
			if st, ok := ctx.LastResult.Data.(ProcStat); ok {
				states = append(states, st.State)
			}
		}
		if ctx.StepIndex > 400 {
			return Exit(0)
		}
		return Sleep(time.Millisecond)
	})
	if _, err := vm.k.CreateProcess(&ProcSpec{Comm: "spy", UID: 1000, Program: observer}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(400 * time.Millisecond)
	var sawSleep, sawRun bool
	for _, s := range states {
		switch s {
		case StateSleeping:
			sawSleep = true
		case StateRunning:
			sawRun = true
		}
	}
	if !sawSleep || !sawRun {
		t.Fatalf("side channel saw sleep=%v run=%v, want both", sawSleep, sawRun)
	}
}

func TestKernelThreadBorrowsAddressSpace(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	vm.ctrls.CR3LoadExiting = true
	if _, err := vm.k.CreateProcess(&ProcSpec{
		Comm: "user", UID: 1,
		Program: &LoopProgram{Body: []Step{Compute(time.Millisecond)}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(50 * time.Millisecond)
	// Find a kworker switch: kernel threads never load CR3, so every
	// CR_ACCESS value must be a *user* (or init_mm) page directory.
	kworkers := vm.k.TasksByComm("kworker/0")
	if len(kworkers) != 1 {
		t.Fatalf("kworkers = %d, want 1", len(kworkers))
	}
	if kworkers[0].PDBA != 0 {
		t.Fatal("kernel thread has its own page directory")
	}
	for _, e := range vm.exits {
		if e.Reason != hav.ExitCRAccess {
			continue
		}
		if e.Qual.Value == 0 {
			t.Fatal("CR3 loaded with 0 (kernel thread PDBA leaked into hardware)")
		}
	}
}

func TestStringersGuest(t *testing.T) {
	vals := []string{
		StateRunning.String(), StateZombie.String(), TaskState(99).String(),
		MechInt80.String(), MechSysenter.String(), SyscallMech(9).String(),
		ProfileLinux26.String(), ProfileWindows.String(), OSProfile(9).String(),
		SysOpen.String(), Syscall(777).String(),
		LockRunqueue.String(), LockID(99).String(),
		FaultMissingRelease.String(), FaultKind(99).String(),
		StepCompute.String(), StepKind(99).String(),
	}
	for i, v := range vals {
		if v == "" {
			t.Fatalf("stringer %d returned empty", i)
		}
	}
	vm := newTestVM(t, 1, nil)
	if vm.k.CurrentTask(0).String() == "" {
		t.Fatal("Task.String empty")
	}
}
