package guest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hypertap/internal/hav"
)

// Stepping an annotated run in one charge (execKernOps) must be invisible: a
// kernel whose paths carry runs has to match, slice by slice, the same kernel
// running the same lists with every annotation zeroed, which interprets each
// op on its own as the kernel did before runs existed.

// stripRuns returns a copy of ops with every run annotation zeroed.
func stripRuns(ops []kernOp) []kernOp {
	out := append([]kernOp(nil), ops...)
	for i := range out {
		out[i].runLen, out[i].runLocks, out[i].runWork = 0, 0, 0
	}
	return out
}

// interpretOpByOp points k at a copy of its compiled paths with the runs
// stripped, and strips its faulted list. The shared paths stay as they are.
func interpretOpByOp(k *Kernel) {
	p := *k.paths
	for nr := range p.ops {
		p.ops[nr] = stripRuns(p.ops[nr])
	}
	p.other = stripRuns(p.other)
	k.paths = &p
	if k.faultOps != nil {
		k.faultOps = stripRuns(k.faultOps)
	}
}

// runLoad is a 2-CPU guest set-up driven under both kernels.
type runLoad struct {
	name  string
	setup func(t *testing.T, vm *testVM)
	// budgets returns the slice budgets to drive under plan.
	budgets func(t *testing.T, ld runLoad, plan FaultPlan) []time.Duration
	// reached reports whether a slice ended in the situation the load
	// exists to produce; the fault-free reference must reach it.
	reached func(k *Kernel) bool
}

// execRun is what one run shows after every slice: each CPU's localNow,
// current task, preempt and irq depth and kernel-path position, every lock's
// holder, and the exits so far by reason.
type execRun struct {
	slices  []string
	reached bool
	k       *Kernel
}

// run drives ld under plan, op by op when opByOp is set.
func (ld runLoad) run(t *testing.T, plan FaultPlan, opByOp bool, budgets []time.Duration) execRun {
	t.Helper()
	vm := newTestVM(t, 2, nil)
	vm.k.SetFaultPlan(plan)
	if opByOp {
		interpretOpByOp(vm.k)
	} else if vm.k.paths.ops[SysWrite][0].runLen == 0 {
		t.Fatal("compiled paths carry no runs")
	}
	ld.setup(t, vm)
	r := execRun{k: vm.k}
	exits := map[hav.ExitReason]int{}
	seen := 0
	var now time.Duration
	for _, b := range budgets {
		// The hypervisor's tick order: every timer, then every slice.
		for cpu := range vm.vcpus {
			vm.k.DeliverTimer(cpu, b)
		}
		for cpu := range vm.vcpus {
			vm.k.RunSlice(cpu, now, b)
		}
		now += b
		for _, e := range vm.exits[seen:] {
			exits[e.Reason]++
		}
		seen = len(vm.exits)
		r.slices = append(r.slices, snapshotExec(vm.k)+fmt.Sprint(exits))
		if ld.reached != nil && ld.reached(vm.k) {
			r.reached = true
		}
	}
	return r
}

// snapshotExec renders every CPU's execution state and every lock holder.
func snapshotExec(k *Kernel) string {
	var b strings.Builder
	for _, c := range k.cpus {
		t := c.current
		pos, left := -1, time.Duration(0)
		if t.kexec != nil {
			pos, left = t.kexec.pos, t.kexec.opLeft
		}
		fmt.Fprintf(&b, "cpu%d now=%v cur=%d pd=%d irq=%d pos=%d left=%v spin=%v; ",
			c.id, c.localNow, t.PID, c.preemptDepth, c.irqDepth, pos, left, t.spinPD)
	}
	b.WriteString("held:")
	for l := LockID(1); l < numLocks; l++ {
		pid := 0
		if h := k.locks[l].holder; h != nil {
			pid = h.PID
		}
		fmt.Fprintf(&b, " %d", pid)
	}
	b.WriteString("; exits ")
	return b.String()
}

// pinLoop creates a process pinned to cpu that loops over body.
func pinLoop(t *testing.T, vm *testVM, comm string, cpu int, body ...Step) {
	t.Helper()
	spec := &ProcSpec{Comm: comm, UID: 1000, Program: &LoopProgram{Body: body}, Pinned: true, CPUAffinity: cpu}
	if _, err := vm.k.CreateProcess(spec, nil); err != nil {
		t.Fatal(err)
	}
}

// taskNamed returns the task called comm.
func taskNamed(t *testing.T, k *Kernel, comm string) *Task {
	t.Helper()
	for _, task := range k.tasks {
		if task.Comm == comm {
			return task
		}
	}
	t.Fatalf("no task %q", comm)
	return nil
}

// spinsOnOther reports whether a CPU ends its slice spinning on a lock
// another task holds.
func spinsOnOther(k *Kernel) bool {
	for cpu := range k.cpus {
		if s, self := kernelSpinning(k, cpu); s && !self {
			return true
		}
	}
	return false
}

// spinPD reports whether a CPU ends its slice mid-spin, to acquire at the
// next one.
func spinPD(k *Kernel) bool {
	for _, c := range k.cpus {
		if c.current.spinPD {
			return true
		}
	}
	return false
}

// exactEndBudget returns the first-slice budget at which the op-by-op
// reference ends the slice exactly where the work of the writer's first
// SysWrite run from op 0 ends: the run's final unlocks are still to go.
// Progress grows with the budget, so a bisection over 1 ms finds it.
func exactEndBudget(t *testing.T, ld runLoad, plan FaultPlan) time.Duration {
	t.Helper()
	k := newTestVM(t, 2, nil).k
	k.SetFaultPlan(plan)
	ops := k.buildOps(SysWrite)
	end := int(ops[0].runLen)
	for end > 0 && ops[end-1].kind == opUnlock {
		end--
	}
	progress := func(b time.Duration) (pos int, started bool) {
		w := taskNamed(t, ld.run(t, plan, true, []time.Duration{b}).k, "writer")
		switch {
		case w.stepIndex == 0:
			return -1, false
		case w.stepIndex == 1 && w.kexec != nil:
			return w.kexec.pos, w.kexec.started
		}
		return len(ops) + 1, false
	}
	lo, hi := time.Duration(0), time.Millisecond
	if pos, _ := progress(hi); pos < end {
		t.Fatalf("writer at op %d of its first write after 1 ms, want %d", pos, end)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pos, _ := progress(mid); pos >= end {
			hi = mid
		} else {
			lo = mid
		}
	}
	if pos, started := progress(hi); pos != end || started {
		t.Fatalf("slice of %v leaves the writer at op %d (started %v), want %d", hi, pos, started, end)
	}
	return hi
}

func offGrid(*testing.T, runLoad, FaultPlan) []time.Duration { return offGridBudgets(80) }

// runLoads are the equivalence test's loads: read/write/open loops that
// contend on the fs and inode locks across slice ends; a SysWrite run whose
// work ends exactly at a slice end; and open loops on both CPUs, where a
// spin on the fs lock runs out a slice and acquires at the next.
var runLoads = []runLoad{
	{
		name: "contended io",
		setup: func(t *testing.T, vm *testVM) {
			pinLoop(t, vm, "rw0", 0, DoSyscall(SysOpen, 1), DoSyscall(SysRead, 3, 64), DoSyscall(SysWrite, 3, 64), DoSyscall(SysClose, 3))
			pinLoop(t, vm, "rw1", 1, DoSyscall(SysWrite, 3, 64), DoSyscall(SysOpen, 1), DoSyscall(SysRead, 3, 64), Compute(3_333))
		},
		budgets: offGrid,
		reached: spinsOnOther,
	},
	{
		name: "exact slice end",
		setup: func(t *testing.T, vm *testVM) {
			pinLoop(t, vm, "writer", 0, DoSyscall(SysWrite, 3, 512))
			pinLoop(t, vm, "reader", 1, DoSyscall(SysRead, 3, 512), Compute(1_111))
		},
		budgets: func(t *testing.T, ld runLoad, plan FaultPlan) []time.Duration {
			return append([]time.Duration{exactEndBudget(t, ld, plan)}, offGridBudgets(20)...)
		},
	},
	{
		name: "spin then acquire",
		setup: func(t *testing.T, vm *testVM) {
			pinLoop(t, vm, "opener0", 0, DoSyscall(SysOpen, 1), DoSyscall(SysClose, 3))
			pinLoop(t, vm, "opener1", 1, DoSyscall(SysOpen, 2), DoSyscall(SysClose, 4))
		},
		budgets: offGrid,
		reached: spinPD,
	},
}

func TestRunsMatchOpByOp(t *testing.T) {
	k := newTestVM(t, 1, nil).k
	last := func(kind FaultKind, path Syscall) SiteID {
		var id SiteID
		for _, s := range k.Sites() {
			if s.Kind == kind && s.Path == path {
				id = s.ID
			}
		}
		return id
	}
	plans := []FaultPlan{
		nopPlan{},
		armAlways{site: last(FaultWrongOrder, SysRead)},
		armAlways{site: last(FaultMissingPair, SysOpen)},
		armAlways{site: last(FaultMissingRelease, SysWrite)},
		armAlways{site: last(FaultMissingIRQRestore, SysRead)},
	}
	for _, ld := range runLoads {
		for _, plan := range plans {
			name := fmt.Sprintf("%s/site %d", ld.name, plan.Site())
			budgets := ld.budgets(t, ld, plan)
			fast := ld.run(t, plan, false, budgets)
			ref := ld.run(t, plan, true, budgets)
			if plan.Site() == 0 && ld.reached != nil && !ref.reached {
				t.Fatalf("%s: the load never reached its situation", name)
			}
			for i := range ref.slices {
				if fast.slices[i] != ref.slices[i] {
					t.Fatalf("%s: slice %d diverged:\n runs: %s\n  ref: %s", name, i, fast.slices[i], ref.slices[i])
				}
			}
		}
	}
}
