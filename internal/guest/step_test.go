package guest

import (
	"testing"
	"time"

	"hypertap/internal/arch"
)

// countModule is a kernel module that only counts its loads.
type countModule struct{ loads int }

func (m *countModule) Name() string            { return "count" }
func (m *countModule) Init(*Kernel, int) error { m.loads++; return nil }

// TestStepSlotZeroedBeforeNext pins the Program contract: the kernel zeroes
// the task's step slot before each Next, so a Next that writes only Kind, or
// nothing at all, never replays the previous step's Nr, Args, Child or
// Module, and the task stays live.
func TestStepSlotZeroedBeforeNext(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	child := &ProcSpec{Comm: "child", UID: 1000, Program: NewStepList()}
	mod := &countModule{}
	var (
		dirty   []int
		results = map[int]int32{}
		done    bool
	)
	prog := ProgramFunc(func(ctx *ProgContext, st *Step) {
		if *st != (Step{}) {
			dirty = append(dirty, ctx.StepIndex)
		}
		if ctx.LastResult != nil {
			results[ctx.StepIndex-1] = ctx.LastResult.Err
		}
		switch ctx.StepIndex {
		case 0:
			st.SetSyscall(SysWrite, 1, 64, 7, 9)
		case 1:
			st.Kind = StepSyscall
		case 2:
			st.SetSpawn(child)
		case 3:
			st.Kind = StepSpawn
		case 4:
			st.SetLoadModule(mod)
		case 5:
			st.Kind = StepLoadModule
		case 6:
			// Writes nothing: a zero Kind, which the kernel treats as a
			// yield.
		default:
			done = true
			st.SetExit(0)
		}
	})
	if _, err := vm.k.CreateProcess(&ProcSpec{Comm: "slots", UID: 0, Program: prog}, nil); err != nil {
		t.Fatal(err)
	}
	created := vm.k.Stats().ProcsCreated
	vm.run(50 * time.Millisecond)

	if !done {
		t.Fatal("the task never ran past the step that wrote nothing")
	}
	if len(dirty) != 0 {
		t.Fatalf("Next received a non-zero step slot at steps %v", dirty)
	}
	if results[0] != 0 {
		t.Fatalf("the full write step failed with errno %d", results[0])
	}
	for _, i := range []int{1, 3, 5} {
		if results[i] != ErrInval {
			t.Fatalf("Kind-only step %d returned errno %d, want EINVAL (the earlier step replayed)", i, results[i])
		}
	}
	if got := vm.k.Stats().ProcsCreated - created; got != 1 {
		t.Fatalf("spawned %d children, want 1", got)
	}
	if mod.loads != 1 {
		t.Fatalf("module loaded %d times, want 1", mod.loads)
	}
}

// TestDispatchTextRejectsHostileSlots writes hostile handler addresses into
// a syscall-table slot. The table is guest memory, so a rootkit or a
// corrupting fault controls every value DispatchText indexes by: each must
// fail the call with EINVAL, without a panic, while a registered hook still
// chains to the original handler.
func TestDispatchTextRejectsHostileSlots(t *testing.T) {
	vm := newTestVM(t, 1, nil)
	k := vm.k
	slot := k.Symbols().SyscallTable + arch.GVA(uint64(SysGetPID)*8)
	orig, err := k.KernelRead64(slot)
	if err != nil {
		t.Fatal(err)
	}
	chained := 0
	hook := k.RegisterKernelText(func(k *Kernel, cpu int, t *Task, args [4]uint64) SyscallResult {
		chained++
		return k.DispatchText(arch.GVA(orig), cpu, t, args)
	})
	base := k.Symbols().KernelTextBase
	past := base + arch.GVA(len(k.textHandlers)*textSlotSize)
	hostile := []uint64{0, uint64(hook) + 1, uint64(base - textSlotSize), uint64(past), ^uint64(0)}

	for _, v := range hostile {
		if res := k.DispatchText(arch.GVA(v), 0, k.CurrentTask(0), [4]uint64{}); res.Err != ErrInval {
			t.Fatalf("DispatchText(%#x) = errno %d, want EINVAL", v, res.Err)
		}
	}

	// The same values through the guest: each getpid reads the slot the
	// step before it wrote, the last through the hook.
	values := append(hostile, uint64(hook))
	var results []SyscallResult
	var pid int
	prog := ProgramFunc(func(ctx *ProgContext, st *Step) {
		pid = ctx.PID
		if ctx.LastResult != nil {
			results = append(results, *ctx.LastResult)
		}
		if ctx.StepIndex >= len(values) {
			st.SetExit(0)
			return
		}
		if err := k.KernelWrite64(0, slot, values[ctx.StepIndex]); err != nil {
			t.Error(err)
		}
		st.SetSyscall(SysGetPID)
	})
	if _, err := k.CreateProcess(&ProcSpec{Comm: "getpid", UID: 1000, Program: prog}, nil); err != nil {
		t.Fatal(err)
	}
	vm.run(50 * time.Millisecond)

	if len(results) != len(values) {
		t.Fatalf("%d of %d getpid calls returned", len(results), len(values))
	}
	for i, v := range hostile {
		if results[i].Err != ErrInval {
			t.Fatalf("getpid through slot value %#x = errno %d, want EINVAL", v, results[i].Err)
		}
	}
	if last := results[len(hostile)]; last.Err != 0 || last.Ret != uint64(pid) || chained != 1 {
		t.Fatalf("hooked getpid = %+v after %d hook calls, want pid %d through one chained call", last, chained, pid)
	}
}
