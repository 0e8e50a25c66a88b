package vmi_test

import (
	"errors"
	"testing"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/guest"
	"hypertap/internal/hv"
	"hypertap/internal/vmi"
)

func bootVM(t *testing.T) *hv.Machine {
	t.Helper()
	m, err := hv.New(hv.Config{VCPUs: 2, MemBytes: 64 << 20, Guest: guest.Config{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewNilViewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	vmi.New(nil, guest.Symbols{})
}

func TestListProcessesMatchesGroundTruth(t *testing.T) {
	m := bootVM(t)
	for i := 0; i < 3; i++ {
		if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
			Comm: "svc", UID: 500,
			Program: &guest.LoopProgram{Body: []guest.Step{guest.Sleep(10 * time.Millisecond)}},
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(30 * time.Millisecond)

	intro := vmi.New(m, m.Kernel().Symbols())
	entries, err := intro.ListProcesses()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != m.Kernel().LiveTaskCount() {
		t.Fatalf("VMI sees %d tasks, ground truth %d", len(entries), m.Kernel().LiveTaskCount())
	}
	svc := 0
	for _, e := range entries {
		if e.Comm == "svc" {
			svc++
			if e.UID != 500 {
				t.Errorf("svc uid = %d, want 500", e.UID)
			}
		}
	}
	if svc != 3 {
		t.Fatalf("VMI sees %d svc processes, want 3", svc)
	}
}

func TestDeriveCurrentTask(t *testing.T) {
	m := bootVM(t)
	if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: "busy", UID: 7,
		Program: &guest.LoopProgram{Body: []guest.Step{guest.Compute(time.Millisecond)}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	m.Run(20 * time.Millisecond)

	intro := vmi.New(m, m.Kernel().Symbols())
	for cpu := 0; cpu < m.NumVCPUs(); cpu++ {
		entry, err := intro.DeriveCurrentTask(cpu)
		if err != nil {
			t.Fatalf("cpu%d: %v", cpu, err)
		}
		truth := m.Kernel().CurrentTask(cpu)
		if entry.PID != truth.PID || entry.Comm != truth.Comm {
			t.Fatalf("cpu%d derived pid=%d comm=%q, truth pid=%d comm=%q",
				cpu, entry.PID, entry.Comm, truth.PID, truth.Comm)
		}
	}
}

func TestDerivationSurvivesDKOM(t *testing.T) {
	m := bootVM(t)
	victim, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: "hidden", UID: 0, Pinned: true, CPUAffinity: 0,
		Program: &guest.LoopProgram{Body: []guest.Step{guest.Compute(time.Millisecond)}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(20 * time.Millisecond)

	// DKOM-unlink the victim.
	k := m.Kernel()
	next, _ := k.KernelRead64(victim.StructGVA + guest.TaskOffListNext)
	prev, _ := k.KernelRead64(victim.StructGVA + guest.TaskOffListPrev)
	if err := k.KernelWrite64(0, arch.GVA(prev)+guest.TaskOffListNext, next); err != nil {
		t.Fatal(err)
	}
	if err := k.KernelWrite64(0, arch.GVA(next)+guest.TaskOffListPrev, prev); err != nil {
		t.Fatal(err)
	}

	intro := vmi.New(m, m.Kernel().Symbols())
	// The list walk has lost it...
	entries, err := intro.ListProcesses()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.PID == victim.PID {
			t.Fatal("DKOM'd task still in VMI listing")
		}
	}
	// ...but RSP0 derivation still finds it: it cannot hide from the CPU.
	cr3 := m.Regs(0).CR3
	entry, err := intro.DeriveTaskFromRSP0(cr3, victim.RSP0)
	if err != nil {
		t.Fatal(err)
	}
	if entry.PID != victim.PID || entry.Comm != "hidden" {
		t.Fatalf("derivation found pid=%d comm=%q, want the hidden task", entry.PID, entry.Comm)
	}
}

func TestTaskFlags(t *testing.T) {
	m := bootVM(t)
	intro := vmi.New(m, m.Kernel().Symbols())
	kworkers := m.Kernel().TasksByComm("kworker/0")
	if len(kworkers) != 1 {
		t.Fatal("no kworker/0")
	}
	flags, err := intro.TaskFlags(kworkers[0].PID)
	if err != nil {
		t.Fatal(err)
	}
	if flags&guest.TaskFlagKernelThread == 0 {
		t.Fatal("kworker not flagged as kernel thread in guest memory")
	}
	if _, err := intro.TaskFlags(99999); err == nil {
		t.Fatal("TaskFlags on missing pid succeeded")
	}
}

func TestDeriveFromBadRSP0(t *testing.T) {
	m := bootVM(t)
	intro := vmi.New(m, m.Kernel().Symbols())
	cr3 := m.Regs(0).CR3
	// A stack base whose thread_info holds a nil task pointer: page 0 of
	// the kernel window is unmapped, so use an address translating to a
	// zeroed region (a fresh high page is not kernel-mapped; use an
	// unmapped GVA instead).
	if _, err := intro.DeriveTaskFromRSP0(cr3, arch.GVA(0)); err == nil {
		t.Fatal("derivation from GVA 0 succeeded")
	}
}

func TestTaskStructGVAFromRSP0(t *testing.T) {
	m := bootVM(t)
	task, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: "t", UID: 1,
		Program: &guest.LoopProgram{Body: []guest.Step{guest.Compute(time.Millisecond)}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10 * time.Millisecond)
	intro := vmi.New(m, m.Kernel().Symbols())
	cr3 := m.Regs(0).CR3
	gva, err := intro.TaskStructGVAFromRSP0(cr3, task.RSP0)
	if err != nil {
		t.Fatal(err)
	}
	if gva != task.StructGVA {
		t.Fatalf("derived task_struct %#x, want %#x", uint64(gva), uint64(task.StructGVA))
	}
	if _, err := intro.TaskStructGVAFromRSP0(cr3, 0); err == nil {
		t.Fatal("bogus RSP0 accepted")
	}
}

func TestDeriveCurrentTaskNoRegisters(t *testing.T) {
	// A vCPU with no TR/CR3 programmed yet must error cleanly. Build raw
	// pieces without booting.
	m, err := hv.New(hv.Config{VCPUs: 1, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	intro := vmi.New(m, guest.Symbols{InitTask: 0x800000})
	if _, err := intro.DeriveCurrentTask(0); err == nil {
		t.Fatal("derivation without TR/CR3 succeeded")
	}
	if _, err := intro.ListProcesses(); err == nil {
		t.Fatal("list walk without a walkable CR3 succeeded")
	}
}

var errEUIDRead = errors.New("euid read refused")

// euidFailingView fails exactly the reads that cover one task_struct's euid,
// whether they come as a field read or as a physical read of the header.
type euidFailingView struct {
	core.GuestView
	task arch.GVA
	gpa  arch.GPA
}

func (v *euidFailingView) ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error) {
	if gva == v.task+guest.TaskOffEUID {
		return 0, errEUIDRead
	}
	return v.GuestView.ReadU32GVA(cr3, gva)
}

func (v *euidFailingView) ReadGPA(gpa arch.GPA, buf []byte) error {
	if euid := v.gpa + guest.TaskOffEUID; gpa <= euid && euid < gpa+arch.GPA(len(buf)) {
		return errEUIDRead
	}
	return v.GuestView.ReadGPA(gpa, buf)
}

// TestDecodeFailsClosedOnUnreadableEUID: an euid that cannot be read must
// fail the decode, not come back as 0 — which is root, and would feed the
// privilege-escalation rule a false identity.
func TestDecodeFailsClosedOnUnreadableEUID(t *testing.T) {
	m := bootVM(t)
	task, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: "user", UID: 1000,
		Program: &guest.LoopProgram{Body: []guest.Step{guest.Compute(time.Millisecond)}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10 * time.Millisecond)
	cr3 := m.Regs(0).CR3
	gpa, ok := m.TranslateGVA(cr3, task.StructGVA)
	if !ok {
		t.Fatal("task_struct unmapped")
	}
	sym := m.Kernel().Symbols()

	if e, err := vmi.New(m, sym).DeriveTaskFromRSP0(cr3, task.RSP0); err != nil || e.EUID != 1000 {
		t.Fatalf("healthy view: entry %+v, err %v", e, err)
	}
	intro := vmi.New(&euidFailingView{GuestView: m, task: task.StructGVA, gpa: gpa}, sym)
	if e, err := intro.DeriveTaskFromRSP0(cr3, task.RSP0); !errors.Is(err, errEUIDRead) {
		t.Fatalf("DeriveTaskFromRSP0 = %+v, %v; want the euid read's error", e, err)
	}
	if tk, err := intro.TaskFromRSP0(cr3, task.RSP0); !errors.Is(err, errEUIDRead) {
		t.Fatalf("TaskFromRSP0 = euid %d, %v; want the euid read's error", tk.EUID(), err)
	}
	if _, err := intro.ListProcesses(); !errors.Is(err, errEUIDRead) {
		t.Fatalf("ListProcesses err = %v, want the euid read's error", err)
	}
}
