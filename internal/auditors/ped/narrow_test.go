package ped_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/auditors/ped"
	"hypertap/internal/core"
	"hypertap/internal/guest"
	"hypertap/internal/vmi"
)

// TestHTNinjaFlagsEUIDOverwriteAtNextIOSyscall is the TOCTOU case of a
// per-syscall check: a user task under a non-magic parent has its euid
// overwritten to 0 between two of its I/O syscalls, as a kernel exploit's
// arbitrary write would. The check must derive the identity afresh and flag
// the very next I/O syscall, at that syscall's virtual time.
func TestHTNinjaFlagsEUIDOverwriteAtNextIOSyscall(t *testing.T) {
	m, intro := bootVM(t, true)
	htn, err := ped.NewHTNinja(ped.HTNinjaConfig{Policy: ped.DefaultPolicy(), View: m, Intro: intro})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EM().Register(htn, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	shell, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: "bash", UID: 1000,
		Program: &guest.LoopProgram{Body: []guest.Step{guest.Sleep(time.Second)}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: "victim", UID: 1000,
		Program: &guest.LoopProgram{Body: []guest.Step{
			guest.DoSyscall(guest.SysWrite, 1, 64), guest.Compute(300 * time.Microsecond),
		}},
	}, shell)
	if err != nil {
		t.Fatal(err)
	}
	// The virtual time of every I/O syscall the victim makes, seen by a
	// sync auditor delivered after HT-Ninja on the same events.
	var ioAt []time.Duration
	rec := &core.AuditorFunc{AuditorName: "victim-io", EventMask: core.MaskOf(core.EvSyscall),
		Fn: func(ev *core.Event) {
			if !guest.IOSyscalls[guest.Syscall(ev.SyscallNr)] {
				return
			}
			if rsp0, err := m.ReadU64GVA(ev.Regs.CR3, ev.Regs.TR+arch.TSSOffRSP0); err == nil && arch.GVA(rsp0) == victim.RSP0 {
				ioAt = append(ioAt, ev.Time)
			}
		}}
	if err := m.EM().Register(rec, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}

	m.Run(50 * time.Millisecond)
	before := len(ioAt)
	if before == 0 || htn.Detected() {
		t.Fatalf("before the overwrite: %d victim I/O syscalls, detections %v", before, htn.Detections())
	}
	if err := m.Kernel().KernelWrite32(0, victim.StructGVA+guest.TaskOffEUID, 0); err != nil {
		t.Fatal(err)
	}
	m.Run(50 * time.Millisecond)
	if len(ioAt) <= before {
		t.Fatal("victim made no I/O syscall after the overwrite")
	}
	d := htn.Detections()
	if len(d) != 1 || d[0].PID != victim.PID || d[0].Comm != "victim" || d[0].Trigger != "io-syscall" {
		t.Fatalf("detections = %v, want one io-syscall detection of pid %d", d, victim.PID)
	}
	if d[0].At != ioAt[before] {
		t.Fatalf("flagged at %v, want the first I/O syscall after the overwrite at %v", d[0].At, ioAt[before])
	}
}

// countingView counts every GuestView call.
type countingView struct {
	core.GuestView
	calls int
}

func (v *countingView) ReadGPA(gpa arch.GPA, buf []byte) error {
	v.calls++
	return v.GuestView.ReadGPA(gpa, buf)
}

func (v *countingView) TranslateGVA(cr3 arch.GPA, gva arch.GVA) (arch.GPA, bool) {
	v.calls++
	return v.GuestView.TranslateGVA(cr3, gva)
}

func (v *countingView) ReadU64GVA(cr3 arch.GPA, gva arch.GVA) (uint64, error) {
	v.calls++
	return v.GuestView.ReadU64GVA(cr3, gva)
}

func (v *countingView) ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error) {
	v.calls++
	return v.GuestView.ReadU32GVA(cr3, gva)
}

func (v *countingView) ReadCStringGVA(cr3 arch.GPA, gva arch.GVA, max int) (string, error) {
	v.calls++
	return v.GuestView.ReadCStringGVA(cr3, gva, max)
}

// TestNarrowVerdictMatchesFullDecode: ViolatesTask on the narrow derivation
// gives ViolatesEntry's verdict on the full decode, for every live task of a
// booted guest and for headers mutated across root and non-root euids,
// whitelisted and unterminated comms, and real, root, nil and wild parents,
// both within a page and straddling one.
func TestNarrowVerdictMatchesFullDecode(t *testing.T) {
	m, _ := bootVM(t, false)
	k := m.Kernel()
	spawn := func(comm string, uid uint32, euid *uint32, parent *guest.Task) *guest.Task {
		t.Helper()
		task, err := k.CreateProcess(&guest.ProcSpec{
			Comm: comm, UID: uid, EUID: euid,
			Program: &guest.LoopProgram{Body: []guest.Step{guest.Sleep(time.Second)}},
		}, parent)
		if err != nil {
			t.Fatal(err)
		}
		return task
	}
	root := uint32(0)
	shell := spawn("bash", 1000, nil, nil)
	spawn("attack", 1000, &root, shell)
	spawn("sshd", 1000, &root, shell)
	spawn("cron", 0, nil, k.InitProcess())
	victim := spawn("victim", 1000, nil, shell)
	m.Run(20 * time.Millisecond)

	cr3 := m.Regs(0).CR3
	view := &countingView{GuestView: m}
	intro := vmi.New(view, k.Symbols())
	policy := ped.DefaultPolicy()
	var violations int
	check := func(name string, rsp0 arch.GVA, wantCalls int) {
		t.Helper()
		view.calls = 0
		task, nerr := intro.TaskFromRSP0(cr3, rsp0)
		if nerr == nil && view.calls != wantCalls {
			t.Errorf("%s: narrow derivation made %d view calls, want %d", name, view.calls, wantCalls)
		}
		entry, ferr := intro.DeriveTaskFromRSP0(cr3, rsp0)
		if (nerr == nil) != (ferr == nil) {
			t.Fatalf("%s: narrow err %v, full err %v", name, nerr, ferr)
		}
		if nerr != nil {
			return
		}
		if task.PID() != entry.PID || task.EUID() != entry.EUID || !bytes.Equal(task.Comm(), []byte(entry.Comm)) ||
			task.ParentUID() != entry.ParentUID {
			t.Fatalf("%s: narrow pid=%d euid=%d comm=%q parent-uid=%d, full %+v",
				name, task.PID(), task.EUID(), task.Comm(), task.ParentUID(), entry)
		}
		got, want := policy.ViolatesTask(&task), policy.ViolatesEntry(entry)
		if got != want {
			t.Fatalf("%s: narrow verdict %v, full decode %+v verdict %v", name, got, entry, want)
		}
		if want {
			violations++
		}
	}

	live := 0
	for pid := 1; pid < 256; pid++ {
		if task := k.FindTask(pid); task != nil && task.State != guest.StateZombie {
			live++
			check(fmt.Sprintf("live pid %d (%s)", pid, task.Comm), task.RSP0, 3)
		}
	}
	if live < 8 || violations != 1 {
		t.Fatalf("%d live tasks with %d violations, want >= 8 and exactly the attacker", live, violations)
	}

	// Mutate the victim's header in place, then again from a copy that
	// straddles the page boundary in the middle of its kernel stack.
	write32 := func(gva arch.GVA, v uint32) {
		if err := k.KernelWrite32(0, gva, v); err != nil {
			t.Fatal(err)
		}
	}
	write64 := func(gva arch.GVA, v uint64) {
		if err := k.KernelWrite64(0, gva, v); err != nil {
			t.Fatal(err)
		}
	}
	setComm := func(at arch.GVA, comm string) {
		var b [guest.TaskCommLen]byte
		copy(b[:], comm)
		for i := 0; i < len(b); i += 8 {
			var w uint64
			for j := 7; j >= 0; j-- {
				w = w<<8 | uint64(b[i+j])
			}
			write64(at+guest.TaskOffComm+arch.GVA(i), w)
		}
	}
	straddle := victim.StackBase + arch.PageSize - 40
	parents := []struct {
		name string
		gva  uint64
	}{
		{"bash parent", uint64(shell.StructGVA)},
		{"root parent", uint64(k.InitProcess().StructGVA)},
		{"nil parent", 0},
		{"wild parent", 0xdead_beef_f000},
	}
	for _, layout := range []string{"in-page", "straddling"} {
		at, calls := victim.StructGVA, 3
		if layout == "straddling" {
			for off := arch.GVA(0); off < guest.TaskStructSize; off += 8 {
				v, err := k.KernelRead64(victim.StructGVA + off)
				if err != nil {
					t.Fatal(err)
				}
				write64(straddle+off, v)
			}
			write64(victim.StackBase+guest.ThreadInfoOffTask, uint64(straddle))
			at, calls = straddle, 8
		}
		for _, euid := range []uint32{0, 1000} {
			for _, comm := range []string{"victim", "sshd", "", "unterminated-com"} {
				for _, p := range parents {
					write32(at+guest.TaskOffEUID, euid)
					setComm(at, comm)
					write64(at+guest.TaskOffParent, p.gva)
					check(fmt.Sprintf("%s euid=%d comm=%q %s", layout, euid, comm, p.name), victim.RSP0, calls)
				}
			}
		}
	}
}
