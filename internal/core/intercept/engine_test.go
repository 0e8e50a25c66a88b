package intercept

import (
	"testing"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/hav"
)

// fakeControl is a minimal in-memory VMControl for engine unit tests: two
// vCPUs, a flat identity page table over a small memory, and recorded
// control-plane calls.
type fakeControl struct {
	regs      []arch.RegisterFile
	mem       map[arch.GPA]uint64
	mapped    map[arch.GVA]arch.GPA
	cr3Exits  []bool
	excVecs   map[uint8]bool
	protected map[uint64]hav.Perm
	paused    bool
	now       time.Duration
}

func newFakeControl() *fakeControl {
	return &fakeControl{
		regs:      make([]arch.RegisterFile, 2),
		mem:       make(map[arch.GPA]uint64),
		mapped:    make(map[arch.GVA]arch.GPA),
		excVecs:   make(map[uint8]bool),
		protected: make(map[uint64]hav.Perm),
	}
}

func (f *fakeControl) NumVCPUs() int                         { return len(f.regs) }
func (f *fakeControl) Regs(v int) arch.RegisterFile          { return f.regs[v] }
func (f *fakeControl) ReadGPA(arch.GPA, []byte) error        { return nil }
func (f *fakeControl) ReadU64GPA(g arch.GPA) (uint64, error) { return f.mem[g], nil }
func (f *fakeControl) ReadU32GPA(g arch.GPA) (uint32, error) { return uint32(f.mem[g]), nil }
func (f *fakeControl) TranslateGVA(_ arch.GPA, gva arch.GVA) (arch.GPA, bool) {
	gpa, ok := f.mapped[arch.PageAlignDown(gva)]
	if !ok {
		return 0, false
	}
	return gpa + arch.GPA(arch.PageOffset(gva)), true
}
func (f *fakeControl) ReadU64GVA(cr3 arch.GPA, gva arch.GVA) (uint64, error) {
	gpa, _ := f.TranslateGVA(cr3, gva)
	return f.mem[gpa], nil
}
func (f *fakeControl) ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error) {
	gpa, _ := f.TranslateGVA(cr3, gva)
	return uint32(f.mem[gpa]), nil
}
func (f *fakeControl) ReadCStringGVA(arch.GPA, arch.GVA, int) (string, error) { return "", nil }
func (f *fakeControl) Now() time.Duration                                     { return f.now }
func (f *fakeControl) PauseVM()                                               { f.paused = true }
func (f *fakeControl) ResumeVM()                                              { f.paused = false }
func (f *fakeControl) Paused() bool                                           { return f.paused }
func (f *fakeControl) SetCR3LoadExiting(on bool)                              { f.cr3Exits = append(f.cr3Exits, on) }
func (f *fakeControl) SetExceptionExit(v uint8, on bool)                      { f.excVecs[v] = on }
func (f *fakeControl) ProtectPage(g arch.GPA, p hav.Perm) error {
	f.protected[arch.PageNumber(g)] = p
	return nil
}
func (f *fakeControl) PagePerm(g arch.GPA) hav.Perm {
	if p, ok := f.protected[arch.PageNumber(g)]; ok {
		return p
	}
	return hav.PermAll
}

var _ core.VMControl = (*fakeControl)(nil)

func newEngine(t *testing.T, feat Features) (*Engine, *fakeControl, *[]core.Event) {
	t.Helper()
	ctl := newFakeControl()
	// Two TSSes in one kernel page mapped at GVA 0x8000000.
	const tssGVA = arch.GVA(0x8000000)
	const tssGPA = arch.GPA(0x2000)
	ctl.mapped[tssGVA] = tssGPA
	ctl.regs[0].TR = tssGVA
	ctl.regs[1].TR = tssGVA + arch.TSSSize
	// The known GVA (kernel base) maps for the "live" address space 0x9000.
	ctl.mapped[arch.KernelBase] = 0x3000

	em := core.NewMultiplexer()
	var events []core.Event
	aud := &core.AuditorFunc{AuditorName: "sink", EventMask: core.MaskAll,
		Fn: func(ev *core.Event) { events = append(events, *ev) }}
	if err := em.Register(aud, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Control: ctl, EM: em, Features: feat,
		Now: func(int) time.Duration { return 42 * time.Millisecond }})
	return e, ctl, &events
}

func cr3Exit(vcpu int, pdba uint64, seq uint64) *hav.Exit {
	return &hav.Exit{VCPU: vcpu, Reason: hav.ExitCRAccess,
		Qual: hav.Qualification{Register: 3, Value: pdba}, Sequence: seq}
}

func TestNewValidatesConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with nil deps did not panic")
		}
	}()
	New(Config{})
}

func TestArmingSetsControls(t *testing.T) {
	_, ctl, _ := newEngine(t, Features{ProcessSwitch: true, Syscalls: true})
	if len(ctl.cr3Exits) == 0 || !ctl.cr3Exits[0] {
		t.Fatal("CR3-load exiting not armed")
	}
	if !ctl.excVecs[arch.VectorLinuxSyscall] || !ctl.excVecs[arch.VectorWindowsSyscall] {
		t.Fatal("exception bitmap not armed for syscall gates")
	}
}

func TestNoFeaturesNoControls(t *testing.T) {
	_, ctl, _ := newEngine(t, Features{})
	if len(ctl.cr3Exits) != 0 || len(ctl.excVecs) != 0 {
		t.Fatal("controls armed with no features")
	}
}

func TestProcessSwitchDecoding(t *testing.T) {
	e, _, events := newEngine(t, Features{ProcessSwitch: true})
	e.HandleExit(cr3Exit(0, 0x9000, 1))
	e.HandleExit(cr3Exit(1, 0xA000, 2))
	e.HandleExit(cr3Exit(0, 0x9000, 3))

	var switches int
	for _, ev := range *events {
		if ev.Type == core.EvProcessSwitch {
			switches++
			if ev.Time != 42*time.Millisecond {
				t.Fatalf("timestamp = %v", ev.Time)
			}
		}
	}
	if switches != 3 {
		t.Fatalf("process-switch events = %d, want 3", switches)
	}
	if e.TrackedPDBAs() != 2 {
		t.Fatalf("tracked PDBAs = %d, want 2", e.TrackedPDBAs())
	}
	if len(e.PDBASet()) != 2 {
		t.Fatal("PDBASet size mismatch")
	}
}

func TestFirstCR3ArmsTSSProtection(t *testing.T) {
	e, ctl, events := newEngine(t, Features{ThreadSwitch: true})
	e.HandleExit(cr3Exit(0, 0x9000, 1))

	if perm, ok := ctl.protected[arch.PageNumber(arch.GPA(0x2000))]; !ok || perm.Allows(hav.AccessWrite) {
		t.Fatalf("TSS page not write-protected: %v, %v", perm, ok)
	}
	st := e.Stats()
	if !st.TSSArmed {
		t.Fatal("engine not armed")
	}

	// A write to vCPU0's TSS.RSP0 decodes as a thread switch.
	e.HandleExit(&hav.Exit{VCPU: 0, Reason: hav.ExitEPTViolation,
		Qual: hav.Qualification{GPA: 0x2000 + arch.TSSOffRSP0, GVA: 0x8000004,
			Access: hav.AccessWrite, Value: 0xBEEF000}, Sequence: 2})
	found := false
	for _, ev := range *events {
		if ev.Type == core.EvThreadSwitch {
			found = true
			if ev.RSP0 != 0xBEEF000 {
				t.Fatalf("RSP0 = %#x", uint64(ev.RSP0))
			}
		}
	}
	if !found {
		t.Fatal("no thread-switch event")
	}

	// A write elsewhere in the page is a fine-grained memory event.
	before := len(*events)
	e.HandleExit(&hav.Exit{VCPU: 0, Reason: hav.ExitEPTViolation,
		Qual: hav.Qualification{GPA: 0x2FF0, Access: hav.AccessWrite}, Sequence: 3})
	if (*events)[before].Type != core.EvMemAccess {
		t.Fatalf("off-RSP0 write decoded as %v", (*events)[before].Type)
	}
}

func TestThreadOnlyFeatureDropsCR3ExitsAfterArming(t *testing.T) {
	e, ctl, _ := newEngine(t, Features{ThreadSwitch: true})
	e.HandleExit(cr3Exit(0, 0x9000, 1))
	// Last control call must be "off": process tracking is not wanted.
	if got := ctl.cr3Exits[len(ctl.cr3Exits)-1]; got {
		t.Fatal("CR3 exiting still on after arming with thread-only features")
	}
}

func TestSyscallDecodingFromException(t *testing.T) {
	e, _, events := newEngine(t, Features{Syscalls: true})
	var regs arch.RegisterFile
	regs.SetGPR(arch.RAX, 4) // write
	regs.SetGPR(arch.RBX, 1)
	regs.SetGPR(arch.RCX, 4096)
	e.HandleExit(&hav.Exit{VCPU: 0, Reason: hav.ExitException,
		Qual:  hav.Qualification{ExcType: hav.ExcSoftwareInt, Vector: arch.VectorLinuxSyscall},
		Guest: regs, Sequence: 1})
	if len(*events) != 1 || (*events)[0].Type != core.EvSyscall {
		t.Fatalf("events = %v", *events)
	}
	ev := (*events)[0]
	if ev.SyscallNr != 4 || ev.SyscallArgs[0] != 1 || ev.SyscallArgs[1] != 4096 {
		t.Fatalf("decoded syscall = %d %v", ev.SyscallNr, ev.SyscallArgs)
	}
	// A non-syscall vector is a raw exit.
	e.HandleExit(&hav.Exit{VCPU: 0, Reason: hav.ExitException,
		Qual: hav.Qualification{ExcType: hav.ExcSoftwareInt, Vector: 0x21}, Sequence: 2})
	if (*events)[1].Type != core.EvRawExit {
		t.Fatalf("non-gate vector decoded as %v", (*events)[1].Type)
	}
}

func TestFastSyscallArming(t *testing.T) {
	e, ctl, events := newEngine(t, Features{Syscalls: true})
	const entryGVA = arch.GVA(0x8001000)
	const entryGPA = arch.GPA(0x4000)
	ctl.mapped[entryGVA] = entryGPA

	// WRMSR before any CR3: deferred.
	e.HandleExit(&hav.Exit{VCPU: 0, Reason: hav.ExitWRMSR,
		Qual: hav.Qualification{MSR: arch.MSRSysenterEIP, Value: uint64(entryGVA)}, Sequence: 1})
	if e.SyscallEntry() != entryGVA {
		t.Fatal("entry point not recorded")
	}
	if _, ok := ctl.protected[arch.PageNumber(entryGPA)]; ok {
		t.Fatal("entry page protected before a page walk was possible")
	}

	// First CR3 arrives (with the syscall feature, CR3 exiting was not
	// armed by the engine — but other features usually arm it; simulate
	// the exit arriving anyway).
	e.HandleExit(cr3Exit(0, 0x9000, 2))
	perm, ok := ctl.protected[arch.PageNumber(entryGPA)]
	if !ok || perm.Allows(hav.AccessExec) {
		t.Fatalf("entry page not execute-protected: %v %v", perm, ok)
	}

	// An exec fetch in the entry page decodes as a syscall.
	var regs arch.RegisterFile
	regs.SetGPR(arch.RAX, 20)
	e.HandleExit(&hav.Exit{VCPU: 1, Reason: hav.ExitEPTViolation,
		Qual:  hav.Qualification{GPA: entryGPA + 8, GVA: entryGVA + 8, Access: hav.AccessExec},
		Guest: regs, Sequence: 3})
	last := (*events)[len(*events)-1]
	if last.Type != core.EvSyscall || last.SyscallNr != 20 {
		t.Fatalf("fast syscall decoded as %v nr=%d", last.Type, last.SyscallNr)
	}
}

func TestTSSIntegrityAlert(t *testing.T) {
	e, ctl, events := newEngine(t, Features{TSSIntegrity: true})
	e.HandleExit(cr3Exit(0, 0x9000, 1))
	// Relocate vCPU1's TR.
	ctl.regs[1].TR += 0x1000
	exit := &hav.Exit{VCPU: 1, Reason: hav.ExitHLT,
		Guest: ctl.regs[1], Sequence: 2}
	e.HandleExit(exit)
	alerts := 0
	for _, ev := range *events {
		if ev.Type == core.EvTSSRelocated {
			alerts++
		}
	}
	if alerts != 1 {
		t.Fatalf("TSS alerts = %d, want 1", alerts)
	}
	// Rate limited.
	e.HandleExit(exit)
	alerts = 0
	for _, ev := range *events {
		if ev.Type == core.EvTSSRelocated {
			alerts++
		}
	}
	if alerts != 1 {
		t.Fatal("TSS alert not rate limited")
	}
}

func TestIOFeatureGatesIOEvents(t *testing.T) {
	eOn, _, evOn := newEngine(t, Features{IO: true})
	eOff, _, evOff := newEngine(t, Features{})
	exits := []*hav.Exit{
		{Reason: hav.ExitIOInstruction, Qual: hav.Qualification{Port: 0x3F8, Write: true, Value: 'x'}},
		{Reason: hav.ExitExternalInterrupt, Qual: hav.Qualification{Vector: arch.VectorTimer}},
		{Reason: hav.ExitAPICAccess, Qual: hav.Qualification{Offset: arch.APICOffEOI, Write: true}},
	}
	for i, x := range exits {
		x.Sequence = uint64(i + 1)
		eOn.HandleExit(x)
		eOff.HandleExit(x)
	}
	if len(*evOn) != 3 {
		t.Fatalf("IO-enabled engine produced %d events, want 3", len(*evOn))
	}
	if (*evOn)[0].Type != core.EvIOPort || (*evOn)[1].Type != core.EvInterrupt || (*evOn)[2].Type != core.EvAPICAccess {
		t.Fatalf("decoded = %v %v %v", (*evOn)[0].Type, (*evOn)[1].Type, (*evOn)[2].Type)
	}
	if len(*evOff) != 0 {
		t.Fatalf("IO-disabled engine produced %d events", len(*evOff))
	}
}

func TestCountProcessesSweepsStaleEntries(t *testing.T) {
	e, ctl, _ := newEngine(t, Features{ProcessSwitch: true})
	e.HandleExit(cr3Exit(0, 0x9000, 1))
	e.HandleExit(cr3Exit(0, 0xA000, 2))
	// 0x9000 translates the known GVA (the fake maps it globally); to make
	// 0xA000 stale we need per-root translation — extend the fake: remove
	// the global mapping and observe both entries drop.
	if got := e.CountProcesses(); got != 2 {
		t.Fatalf("count = %d, want 2 while mapping is live", got)
	}
	delete(ctl.mapped, arch.KernelBase)
	if got := e.CountProcesses(); got != 0 {
		t.Fatalf("count = %d after address spaces died, want 0", got)
	}
	if e.TrackedPDBAs() != 0 {
		t.Fatal("stale PDBAs not removed from the set")
	}
}

func TestNonCR3ControlRegisterIsRaw(t *testing.T) {
	e, _, events := newEngine(t, Features{ProcessSwitch: true})
	e.HandleExit(&hav.Exit{VCPU: 0, Reason: hav.ExitCRAccess,
		Qual: hav.Qualification{Register: 0, Value: 0x80000011}, Sequence: 1})
	if len(*events) != 1 || (*events)[0].Type != core.EvRawExit {
		t.Fatalf("CR0 write decoded as %v", (*events)[0].Type)
	}
}

func TestHaltDecoding(t *testing.T) {
	e, _, events := newEngine(t, Features{})
	e.HandleExit(&hav.Exit{VCPU: 0, Reason: hav.ExitHLT, Sequence: 1})
	if len(*events) != 1 || (*events)[0].Type != core.EvHalt {
		t.Fatalf("HLT decoded as %v", (*events)[0].Type)
	}
}

func TestStatsSnapshot(t *testing.T) {
	e, _, _ := newEngine(t, Features{ProcessSwitch: true})
	e.HandleExit(cr3Exit(0, 0x9000, 1))
	st := e.Stats()
	if st.Decoded[core.EvProcessSwitch] != 1 {
		t.Fatalf("stats = %+v", st.Decoded)
	}
	// The snapshot is a copy.
	st.Decoded[core.EvProcessSwitch] = 99
	if e.Stats().Decoded[core.EvProcessSwitch] != 1 {
		t.Fatal("Stats leaked internal map")
	}
}
