package guest

import (
	"testing"
	"time"
)

// planRun is what one fault plan did to a fixed workload: how often the
// plan was consulted and fired, the kernel counters, and a digest of the
// virtual time at which every program step started.
type planRun struct {
	consulted, fired int
	stats            Stats
	steps            int
	nowDigest        uint64
}

// runPlanScenario drives a reader, a writer/logger and a sleeper on a 2-CPU
// guest for 400 ms with plan installed before the first process exists.
func runPlanScenario(t *testing.T, plan FaultPlan) planRun {
	t.Helper()
	vm := newTestVM(t, 2, nil)
	vm.k.SetFaultPlan(plan)
	var run planRun
	run.nowDigest = 14695981039346656037
	record := func(body ...Step) Program {
		loop := &LoopProgram{Body: body}
		return ProgramFunc(func(ctx *ProgContext) Step {
			run.steps++
			run.nowDigest = (run.nowDigest ^ uint64(ctx.Now)) * 1099511628211
			return loop.Next(ctx)
		})
	}
	for _, spec := range []*ProcSpec{
		{Comm: "reader", UID: 1000, Program: record(
			DoSyscall(SysOpen, 1), DoSyscall(SysRead, 3, 128), DoSyscall(SysClose, 3), Compute(200*time.Microsecond))},
		{Comm: "writer", UID: 1000, Program: record(
			DoSyscall(SysOpen, 2), DoSyscall(SysWrite, 3, 512), DoSyscall(SysLog, 1), DoSyscall(SysClose, 3))},
		{Comm: "sleeper", UID: 0, Program: record(
			Sleep(300*time.Microsecond), DoSyscall(SysGetPID), DoSyscall(SysLseek, 3, 0), Compute(100*time.Microsecond))},
	} {
		if _, err := vm.k.CreateProcess(spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	vm.run(400 * time.Millisecond)
	run.stats = vm.k.Stats()
	if p, ok := plan.(*countingPlan); ok {
		run.consulted, run.fired = p.consulted, p.fired
	}
	return run
}

// TestFaultPlanConsultationPinned pins what a single-site plan sees and
// does under compiled kernel paths to the figures of per-dispatch emission,
// where every section asked the plan about each of its sites on every
// dispatch: the same consulted and fired counts, kernel counters and step
// times, fault-free and for each fault kind, transient and persistent.
func TestFaultPlanConsultationPinned(t *testing.T) {
	k := newTestVM(t, 1, nil).k
	// Fault-free, and with faults that never contend, the workload runs
	// unchanged.
	clean := planRun{
		stats: Stats{Syscalls: 3930, ContextSwitches: 76, ThreadSwitches: 76, BytesRead: 128,
			BytesWritten: 512, LogLines: 482, ProcsCreated: 8},
		steps: 4591, nowDigest: 0x7e33bf9e610050ed,
	}
	with := func(consulted, fired int, run planRun) planRun {
		run.consulted, run.fired = consulted, fired
		return run
	}
	cases := []struct {
		name string
		plan FaultPlan
		want planRun
	}{
		{"nop", nopPlan{}, clean},
		{"wrong-order read transient", &countingPlan{site: findSite(t, k, FaultWrongOrder, SysRead), fireLimit: 1},
			with(631, 1, clean)},
		{"wrong-order write persistent", &countingPlan{site: findSite(t, k, FaultWrongOrder, SysWrite), fireLimit: 1 << 30},
			with(483, 483, clean)},
		{"missing-release write persistent", &countingPlan{site: findSite(t, k, FaultMissingRelease, SysWrite), fireLimit: 1 << 30},
			planRun{consulted: 1, fired: 1, stats: Stats{Syscalls: 14, ContextSwitches: 6, ThreadSwitches: 6,
				BytesRead: 128, ProcsCreated: 8}, steps: 12, nowDigest: 0x44bcdf685b093a75}},
		{"missing-pair log transient", &countingPlan{site: findSite(t, k, FaultMissingPair, SysLog), fireLimit: 1},
			planRun{consulted: 1, fired: 1, stats: Stats{Syscalls: 2618, ContextSwitches: 120, ThreadSwitches: 120,
				BytesRead: 128, BytesWritten: 512, ProcsCreated: 8}, steps: 3484, nowDigest: 0xe28867f61a8be6cf}},
		{"missing-irq-restore sleep persistent", &countingPlan{site: findSite(t, k, FaultMissingIRQRestore, SysSleepNs), fireLimit: 1 << 30},
			planRun{consulted: 4, fired: 4, stats: Stats{Syscalls: 3572, ContextSwitches: 6, ThreadSwitches: 6,
				BytesRead: 128, BytesWritten: 512, LogLines: 396, ProcsCreated: 8}, steps: 4228, nowDigest: 0xfa5938a95aadf043}},
		{"never-dispatched spawn site", &countingPlan{site: findSite(t, k, FaultMissingRelease, SysSpawn), fireLimit: 1 << 30},
			clean},
	}
	for _, tc := range cases {
		got := runPlanScenario(t, tc.plan)
		if got != tc.want {
			t.Errorf("%s:\n got  %#v\n want %#v", tc.name, got, tc.want)
		}
	}
}
