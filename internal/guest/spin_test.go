package guest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hypertap/internal/hav"
)

// The spin fast-forward (spinSpan) must be invisible: a run that jumps over
// a spin has to match, slice by slice, a run that steps the same spin one
// costSpinProbe probe at a time, as the scheduler did before the jump.

// probeByProbe is the reference spin stepper: one probe per step, with
// RunSlice's wakeSleepers check before each.
func probeByProbe(_ *cpuState, remaining time.Duration, _ bool) time.Duration {
	return minDur(costSpinProbe, remaining)
}

// spinScenario is a guest set-up replayed under both steppers.
type spinScenario struct {
	ncpu int
	// setup creates the scenario's processes; note records a program
	// event with its virtual time.
	setup func(t *testing.T, vm *testVM, note func(format string, args ...any))
	// spinning reports whether the scenario reached its spin.
	spinning func(k *Kernel) bool
}

// spinRun is what one run shows from outside the scheduler: after every
// slice each CPU's localNow, current task, runqueue (the wake order) and
// sleepers; the exits by reason; the program events; and how many spin
// steps the stepper took. k is the kernel as the run left it.
type spinRun struct {
	slices []string
	exits  map[hav.ExitReason]int
	events []string
	steps  int
	k      *Kernel
}

// run drives the scenario through one slice per budget, under stepper.
func (sc spinScenario) run(t *testing.T, stepper func(*cpuState, time.Duration, bool) time.Duration, budgets []time.Duration) spinRun {
	t.Helper()
	var r spinRun
	vm := newTestVM(t, sc.ncpu, nil)
	vm.k.spinStep = func(c *cpuState, remaining time.Duration, wakes bool) time.Duration {
		r.steps++
		return stepper(c, remaining, wakes)
	}
	sc.setup(t, vm, func(format string, args ...any) {
		r.events = append(r.events, fmt.Sprintf(format, args...))
	})
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
		r.slices = append(r.slices, snapshotCPUs(vm.k))
	}
	r.exits = map[hav.ExitReason]int{}
	for _, e := range vm.exits {
		r.exits[e.Reason]++
	}
	r.k = vm.k
	return r
}

// snapshotCPUs renders every CPU's scheduling state.
func snapshotCPUs(k *Kernel) string {
	var b strings.Builder
	pids := func(ts []*Task) []int {
		out := make([]int, len(ts))
		for i, t := range ts {
			out[i] = t.PID
		}
		return out
	}
	for _, c := range k.cpus {
		fmt.Fprintf(&b, "cpu%d now=%v cur=%d rq=%v sleepers=%v; ",
			c.id, c.localNow, c.current.PID, pids(c.rq), pids(c.sleepers))
	}
	return b.String()
}

// checkExact runs sc under spinSpan and under probeByProbe and requires
// identical observations, with the reference taking more spin steps.
func (sc spinScenario) checkExact(t *testing.T, budgets []time.Duration) {
	t.Helper()
	fast := sc.run(t, (*cpuState).spinSpan, budgets)
	ref := sc.run(t, probeByProbe, budgets)
	if !sc.spinning(ref.k) {
		t.Fatal("scenario never reached its spin")
	}
	for i := range ref.slices {
		if fast.slices[i] != ref.slices[i] {
			t.Fatalf("slice %d diverged:\n fast: %s\n  ref: %s", i, fast.slices[i], ref.slices[i])
		}
	}
	if fmt.Sprint(fast.exits) != fmt.Sprint(ref.exits) {
		t.Fatalf("exits diverged:\n fast: %v\n  ref: %v", fast.exits, ref.exits)
	}
	if strings.Join(fast.events, "\n") != strings.Join(ref.events, "\n") {
		t.Fatalf("program events diverged:\n fast: %q\n  ref: %q", fast.events, ref.events)
	}
	if fast.steps >= ref.steps {
		t.Fatalf("fast-forward took %d spin steps, reference %d: nothing was skipped", fast.steps, ref.steps)
	}
}

// offGridBudgets returns n slice budgets, all but 1 ms off the probe grid,
// so slice boundaries fall between probes.
func offGridBudgets(n int) []time.Duration {
	cycle := []time.Duration{time.Millisecond, 777_777, 1_234_567, 333_333}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = cycle[i%len(cycle)]
	}
	return out
}

// kernelSpinning reports whether a CPU's current task spins on a held
// kernel spinlock; self reports whether it holds that lock itself.
func kernelSpinning(k *Kernel, cpu int) (spinning, self bool) {
	t := k.cpus[cpu].current
	if t.kexec == nil || t.kexec.pos >= len(t.kexec.ops) {
		return false, false
	}
	op := t.kexec.ops[t.kexec.pos]
	if op.kind != opLock || isMutexLock(op.lock) {
		return false, false
	}
	holder := k.locks[op.lock].holder
	return holder != nil, holder == t
}

// writerScenario arms a missing-release fault on a SysWrite spinlock whose
// section the path repeats: the first writer to take the lock leaks it and
// spins on it at the next copy, holding it for good. A writer on each of
// the given CPUs loops over open/write/close, and a napper on every CPU
// sleeps for off-grid durations.
func writerScenario(ncpu int, writerCPUs []int, spinning func(k *Kernel) bool) spinScenario {
	return spinScenario{
		ncpu:     ncpu,
		spinning: spinning,
		setup: func(t *testing.T, vm *testVM, note func(string, ...any)) {
			vm.k.SetFaultPlan(armAlways{site: findSite(t, vm.k, FaultMissingRelease, SysWrite)})
			for cpu := 0; cpu < ncpu; cpu++ {
				prog := &LoopProgram{Body: []Step{Sleep(time.Duration(411_111 + 7*cpu)), Compute(2_345)}}
				notePrograms(t, vm, fmt.Sprintf("napper%d", cpu), cpu, prog, note)
			}
			for _, cpu := range writerCPUs {
				prog := &LoopProgram{Body: []Step{DoSyscall(SysOpen, 1), DoSyscall(SysWrite, 3, 512), DoSyscall(SysClose, 3)}}
				notePrograms(t, vm, fmt.Sprintf("writer%d", cpu), cpu, prog, note)
			}
		},
	}
}

// notePrograms creates a process pinned to cpu whose every step is noted
// with its virtual time.
func notePrograms(t *testing.T, vm *testVM, comm string, cpu int, p Program, note func(string, ...any)) {
	t.Helper()
	prog := ProgramFunc(func(ctx *ProgContext) Step {
		note("%v %s step %d", ctx.Now, comm, ctx.StepIndex)
		return p.Next(ctx)
	})
	spec := &ProcSpec{Comm: comm, UID: 1, Program: prog, Pinned: true, CPUAffinity: cpu}
	if _, err := vm.k.CreateProcess(spec, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpinFastForwardKernelLockAcrossCPUs(t *testing.T) {
	// One writer deadlocks on the lock it leaked; the writer on the other
	// CPU spins on that same lock.
	sc := writerScenario(2, []int{0, 1}, func(k *Kernel) bool {
		s0, self0 := kernelSpinning(k, 0)
		s1, self1 := kernelSpinning(k, 1)
		return s0 && s1 && self0 != self1
	})
	sc.checkExact(t, offGridBudgets(60))
}

func TestSpinFastForwardSelfDeadlock(t *testing.T) {
	sc := writerScenario(1, []int{0}, func(k *Kernel) bool {
		s, self := kernelSpinning(k, 0)
		return s && self
	})
	sc.checkExact(t, offGridBudgets(40))
}

// userSpinScenario spins a user lock on a non-preemptible CPU: the holder
// takes the lock and sleeps for an hour, the spinner contends from 1 ms on,
// and two sleepers whose deadlines lie off the probe grid wake while it
// spins (the spinner never yields, so the runqueue keeps their wake order).
func userSpinScenario() spinScenario {
	const lock = 7
	return spinScenario{
		ncpu: 1,
		spinning: func(k *Kernel) bool {
			t := k.cpus[0].current
			return t.ulockWait == lock && k.userLocks[lock] != t
		},
		setup: func(t *testing.T, vm *testVM, note func(string, ...any)) {
			notePrograms(t, vm, "holder", 0, &LoopProgram{Body: []Step{
				DoSyscall(SysULock, lock), Sleep(time.Hour),
			}}, note)
			notePrograms(t, vm, "spinner", 0, &LoopProgram{Body: []Step{
				Sleep(time.Millisecond), DoSyscall(SysULock, lock), DoSyscall(SysUUnlock, lock),
			}}, note)
			notePrograms(t, vm, "late", 0, &LoopProgram{Body: []Step{Sleep(2_600_389)}}, note)
			notePrograms(t, vm, "early", 0, &LoopProgram{Body: []Step{Sleep(2_582_539)}}, note)
		},
	}
}

func TestSpinFastForwardUserLockWakesOnGrid(t *testing.T) {
	sc := userSpinScenario()
	sc.checkExact(t, offGridBudgets(12))

	// Pin the wake instant: the sleepers' deadlines lie inside the third
	// slice, so end that slice at every 50 ns across two probes around
	// them. A wake that lands off the reference's probe shows up as a
	// different sleeper or runqueue state at some slice end.
	k := sc.run(t, probeByProbe, []time.Duration{time.Millisecond, time.Millisecond}).k
	if !sc.spinning(k) {
		t.Fatal("spinner not spinning at 2 ms")
	}
	var first time.Duration
	for _, s := range k.cpus[0].sleepers {
		if s.Comm == "early" {
			first = s.sleepUntil
		}
	}
	if first <= 2*time.Millisecond || first%costSpinProbe == 0 {
		t.Fatalf("early deadline %v is not off-grid inside the third slice", first)
	}
	for end := first - costSpinProbe; end <= first+2*costSpinProbe; end += 50 {
		sc.checkExact(t, []time.Duration{time.Millisecond, time.Millisecond, end - 2*time.Millisecond, time.Millisecond})
	}
}
