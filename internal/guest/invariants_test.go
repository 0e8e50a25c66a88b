package guest

import (
	"math/rand"
	"testing"
	"time"

	"hypertap/internal/arch"
)

// randomProgram builds a seeded random mix of every step kind.
func randomProgram(rng *rand.Rand) Program {
	return ProgramFunc(func(ctx *ProgContext, st *Step) {
		if ctx.StepIndex > 200 && rng.Intn(10) == 0 {
			st.SetExit(0)
			return
		}
		switch rng.Intn(10) {
		case 0:
			st.SetCompute(time.Duration(rng.Intn(2000)+1) * time.Microsecond)
		case 1:
			st.SetSleep(time.Duration(rng.Intn(5)+1) * time.Millisecond)
		case 2:
			st.SetSyscall(SysOpen, uint64(rng.Intn(8)))
		case 3:
			st.SetSyscall(SysRead, 3, uint64(rng.Intn(4096)))
		case 4:
			st.SetSyscall(SysWrite, 3, uint64(rng.Intn(4096)))
		case 5:
			st.SetSyscall(SysGetPID)
		case 6:
			st.SetSyscall(SysListProcs)
		case 7:
			st.SetSyscall(SysLog, 1)
		case 8:
			if rng.Intn(4) == 0 {
				st.SetSpawn(&ProcSpec{Comm: "rchild", UID: 1000,
					Program: NewStepList(Compute(time.Millisecond))})
				return
			}
			st.SetSyscall(SysYieldCPU)
		default:
			st.SetSyscall(SysULock, uint64(rng.Intn(2)+5000))
		}
	})
}

// checkInvariants asserts the architectural and bookkeeping invariants the
// monitors depend on.
func checkInvariants(t *testing.T, vm *testVM, round int) {
	t.Helper()
	k := vm.k
	for cpu, c := range k.cpus {
		// 1. The architectural invariant: TSS.RSP0 in guest memory equals
		// the current thread's kernel stack top.
		rsp0, err := k.kread64(c.tssGVA + arch.TSSOffRSP0)
		if err != nil {
			t.Fatalf("round %d: read TSS: %v", round, err)
		}
		if arch.GVA(rsp0) != c.current.RSP0 {
			t.Fatalf("round %d cpu%d: TSS.RSP0=%#x, current task RSP0=%#x",
				round, cpu, rsp0, uint64(c.current.RSP0))
		}
		// 2. TR still points at this CPU's TSS.
		if c.vcpu.Regs.TR != c.tssGVA {
			t.Fatalf("round %d cpu%d: TR moved", round, cpu)
		}
		// 3. Depth counters never go negative.
		if c.preemptDepth < 0 || c.irqDepth < 0 {
			t.Fatalf("round %d cpu%d: negative depth preempt=%d irq=%d",
				round, cpu, c.preemptDepth, c.irqDepth)
		}
		// 4. The active address space matches CR3 for user tasks.
		if c.current.PDBA != 0 && c.vcpu.Regs.CR3 != c.activePDBA {
			t.Fatalf("round %d cpu%d: CR3=%#x active=%#x",
				round, cpu, uint64(c.vcpu.Regs.CR3), uint64(c.activePDBA))
		}
		// 5. Runqueue entries are runnable and marked onRQ.
		for _, task := range c.rq {
			if task.State != StateRunning || !task.onRQ {
				t.Fatalf("round %d cpu%d: rq entry %v state=%v onRQ=%v",
					round, cpu, task.Comm, task.State, task.onRQ)
			}
		}
	}
	// 6. The serialized task list is a closed doubly-linked ring whose
	// membership equals the live task set.
	entries, err := k.walkTaskList()
	if err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
	if len(entries) != k.LiveTaskCount() {
		t.Fatalf("round %d: list=%d live=%d", round, len(entries), k.LiveTaskCount())
	}
	// Backward closure: prev pointers also form the ring.
	head := k.sym.InitTask
	cur := head
	for i := 0; i <= len(entries); i++ {
		prev64, err := k.kread64(cur + TaskOffListPrev)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		next64, err := k.kread64(arch.GVA(prev64) + TaskOffListNext)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if arch.GVA(next64) != cur {
			t.Fatalf("round %d: prev/next pointers disagree at %#x", round, uint64(cur))
		}
		cur = arch.GVA(prev64)
		if cur == head {
			return
		}
	}
	t.Fatalf("round %d: backward walk did not close", round)
}

// TestPropertyKernelInvariantsUnderRandomLoad drives randomized workloads on
// both kernel configurations and asserts the invariants every monitor
// depends on after every burst of execution.
func TestPropertyKernelInvariantsUnderRandomLoad(t *testing.T) {
	for _, preempt := range []bool{false, true} {
		preempt := preempt
		name := "non-preempt"
		if preempt {
			name = "preempt"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				vm := newTestVM(t, 2, func(c *Config) {
					c.Preemptible = preempt
					c.Seed = seed
				})
				rng := rand.New(rand.NewSource(seed * 1000))
				for i := 0; i < 4; i++ {
					if _, err := vm.k.CreateProcess(&ProcSpec{
						Comm: "fuzz", UID: 1000, Program: randomProgram(rng),
					}, nil); err != nil {
						t.Fatal(err)
					}
				}
				for round := 0; round < 20; round++ {
					vm.run(time.Duration(rng.Intn(40)+10) * time.Millisecond)
					checkInvariants(t, vm, round)
					if rng.Intn(3) == 0 {
						if _, err := vm.k.CreateProcess(&ProcSpec{
							Comm: "fuzz", UID: 1000, Program: randomProgram(rng),
						}, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// TestPropertyUserLocksNeverDoubleHeld: however execution interleaves, a
// user lock has at most one holder and holders are live tasks.
func TestPropertyUserLocksNeverDoubleHeld(t *testing.T) {
	vm := newTestVM(t, 2, func(c *Config) { c.Preemptible = true })
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		lock := uint64(6000 + i%2)
		if _, err := vm.k.CreateProcess(&ProcSpec{
			Comm: "locker", UID: 1, Program: &LoopProgram{Body: []Step{
				DoSyscall(SysULock, lock),
				Compute(time.Duration(rng.Intn(1000)+100) * time.Microsecond),
				DoSyscall(SysUUnlock, lock),
				Sleep(time.Millisecond),
			}},
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 30; round++ {
		vm.run(5 * time.Millisecond)
		for id, holder := range vm.k.userLocks {
			if holder == nil {
				t.Fatalf("round %d: lock %d held by nil", round, id)
			}
			if holder.State == StateZombie {
				t.Fatalf("round %d: lock %d held by zombie %s", round, id, holder.Comm)
			}
		}
	}
}
