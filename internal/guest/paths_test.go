package guest

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// emitPath is per-dispatch emission, the reference for compiled paths: the
// syscall's base work, then every section asking plan about its sites, with
// the runs before the first armed section annotated.
func emitPath(b *pathBuilder, nr Syscall, plan FaultPlan) []kernOp {
	base := syscallBaseWork[nr]
	if base == 0 {
		base = defaultSyscallWork
	}
	ops := []kernOp{{kind: opWork, dur: base}}
	faulty := -1
	for _, s := range b.paths[nr] {
		start := len(ops)
		var armed bool
		ops, armed = s.emit(plan, ops)
		if armed && faulty < 0 {
			faulty = start
		}
	}
	if faulty < 0 {
		faulty = len(ops)
	}
	annotateRuns(ops[:faulty])
	return ops
}

// wantRun is one expected run annotation: the run starting at op at.
type wantRun struct {
	at, len int
	work    time.Duration
	locks   uint16
}

// checkRuns requires exactly the runs in want on ops and no annotation on
// any other op.
func checkRuns(t *testing.T, name string, ops []kernOp, want []wantRun) {
	t.Helper()
	byAt := map[int]wantRun{}
	for _, w := range want {
		byAt[w.at] = w
	}
	for i, op := range ops {
		w := byAt[i]
		if int(op.runLen) != w.len || op.runWork != w.work || op.runLocks != w.locks {
			t.Fatalf("%s: op %d run (len %d, work %v, locks %#x), want (len %d, work %v, locks %#x)",
				name, i, op.runLen, op.runWork, op.runLocks, w.len, w.work, w.locks)
		}
	}
}

// writeSpan is one stretch of SysWrite's fault-free op list: the base work,
// or one critical section.
type writeSpan struct {
	at    int
	work  time.Duration
	locks uint16
}

// writeSpans lays out SysWrite by hand: 2 µs of base work, then 10
// inode+fs sections of 10 µs (six ops each, from op 1), 14 journal sections
// of 12 µs (four ops, from op 61) and 12 irq-save block-queue sections of
// 6 µs (four ops, from op 117): 165 ops.
func writeSpans() []writeSpan {
	const us = time.Microsecond
	spans := []writeSpan{{at: 0, work: 2 * us}}
	for i := 0; i < 10; i++ {
		spans = append(spans, writeSpan{at: 1 + 6*i, work: 10 * us, locks: 1<<LockInode | 1<<LockFS})
	}
	for i := 0; i < 14; i++ {
		spans = append(spans, writeSpan{at: 61 + 4*i, work: 12 * us, locks: 1 << LockJournal})
	}
	for i := 0; i < 12; i++ {
		spans = append(spans, writeSpan{at: 117 + 4*i, work: 6 * us, locks: 1 << LockBlockQueue})
	}
	return spans
}

// writeRuns is what every span of SysWrite before op end should carry: the
// run from its start to end, with the work and locks of the spans it covers.
func writeRuns(end int) []wantRun {
	spans := writeSpans()
	var runs []wantRun
	for i, s := range spans {
		if s.at >= end {
			break
		}
		r := wantRun{at: s.at, len: end - s.at}
		for _, u := range spans[i:] {
			if u.at >= end {
				break
			}
			r.work += u.work
			r.locks |= u.locks
		}
		runs = append(runs, r)
	}
	return runs
}

func TestWriteRunsAnnotated(t *testing.T) {
	b := kernelPaths()
	if len(b.ops[SysWrite]) != 165 {
		t.Fatalf("SysWrite has %d ops, want 165", len(b.ops[SysWrite]))
	}
	checkRuns(t, "write", b.ops[SysWrite], writeRuns(165))
	if got := unsafe.Sizeof(kernOp{}); got > 24 {
		t.Fatalf("kernOp is %d bytes, want at most 24", got)
	}
	// The sshd session lock is a mutex: only the base work is a run.
	checkRuns(t, "sshhandle", b.ops[SysSSHHandle], []wantRun{{at: 0, len: 1, work: defaultSyscallWork}})
}

// TestFaultedRunsAnnotated checks, for a SysWrite site of each fault kind
// (the second of its kind), that the runs stop at the faulty section: it and
// everything after it run op by op.
func TestFaultedRunsAnnotated(t *testing.T) {
	k := newTestVM(t, 1, nil).k
	for _, tc := range []struct {
		kind FaultKind
		// faulty is the faulty section's first op.
		faulty int
	}{
		{FaultWrongOrder, 7},
		{FaultMissingPair, 7},
		{FaultMissingRelease, 7},
		{FaultMissingIRQRestore, 121},
	} {
		var site SiteID
		n := 0
		for _, s := range k.Sites() {
			if s.Path == SysWrite && s.Kind == tc.kind {
				if n++; n == 2 {
					site = s.ID
					break
				}
			}
		}
		k.SetFaultPlan(armAlways{site: site})
		checkRuns(t, tc.kind.String(), k.faultOps, writeRuns(tc.faulty))
	}
}

func TestCompiledPathsMatchEmission(t *testing.T) {
	b := kernelPaths()
	for nr := Syscall(0); nr < SyscallTableSize; nr++ {
		got := b.ops[nr]
		if want := emitPath(b, nr, nopPlan{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: compiled %v, emitted %v", nr, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("%v: shared list has spare capacity %d, an append would write into it", nr, cap(got)-len(got))
		}
	}
	if want := emitPath(b, SyscallTableSize+7, nopPlan{}); !reflect.DeepEqual(b.other, want) {
		t.Fatalf("out-of-table path: compiled %v, emitted %v", b.other, want)
	}
}

func TestFaultedPathsMatchEmission(t *testing.T) {
	k := newTestVM(t, 1, nil).k
	sites := k.Sites()
	if len(sites) != 374 {
		t.Fatalf("%d sites, want 374", len(sites))
	}
	for _, s := range sites {
		k.SetFaultPlan(armAlways{site: s.ID})
		if k.faultPath != s.Path {
			t.Fatalf("site %d: faulted path %v, want %v", s.ID, k.faultPath, s.Path)
		}
		want := emitPath(k.paths, s.Path, armAlways{site: s.ID})
		if !reflect.DeepEqual(k.faultOps, want) {
			t.Fatalf("site %d (%v on %v): compiled %v, emitted %v", s.ID, s.Kind, s.Path, k.faultOps, want)
		}
		if reflect.DeepEqual(k.faultOps, k.paths.ops[s.Path]) {
			t.Fatalf("site %d: arming it changes nothing on %v", s.ID, s.Path)
		}
	}
	k.SetFaultPlan(nil)
	if k.faultOps != nil {
		t.Fatal("a nil plan kept a faulted path")
	}
	k.SetFaultPlan(armAlways{site: 375})
	if k.faultOps != nil {
		t.Fatal("a plan naming no site of the kernel compiled a faulted path")
	}
}

// TestPlanSwapLeavesSharedPathsIntact runs guests under nop → armed → nop
// plans for faults of every kind and checks that no shared list changed: a
// faulted list or a task's op buffer aliasing a shared list would corrupt
// every kernel in the process.
func TestPlanSwapLeavesSharedPathsIntact(t *testing.T) {
	b := kernelPaths()
	var before [SyscallTableSize][]kernOp
	for nr := range b.ops {
		before[nr] = append([]kernOp(nil), b.ops[nr]...)
	}
	other := append([]kernOp(nil), b.other...)

	for _, kind := range []FaultKind{FaultWrongOrder, FaultMissingPair, FaultMissingRelease, FaultMissingIRQRestore} {
		for _, path := range []Syscall{SysRead, SysWrite, SysSleepNs} {
			var site SiteID
			for _, s := range b.sites {
				if s.Kind == kind && s.Path == path {
					site = s.ID
					break
				}
			}
			if site == 0 {
				continue
			}
			vm := newTestVM(t, 2, nil)
			for _, comm := range []string{"reader", "writer"} {
				if _, err := vm.k.CreateProcess(&ProcSpec{Comm: comm, UID: 1000, Program: &LoopProgram{Body: []Step{
					DoSyscall(SysOpen, 1), DoSyscall(SysRead, 3, 64), DoSyscall(SysWrite, 3, 64),
					DoSyscall(SysClose, 3), Sleep(50 * time.Microsecond),
				}}}, nil); err != nil {
					t.Fatal(err)
				}
			}
			vm.run(20 * time.Millisecond)
			vm.k.SetFaultPlan(armAlways{site: site})
			vm.run(20 * time.Millisecond)
			vm.k.SetFaultPlan(nopPlan{})
			vm.run(20 * time.Millisecond)
		}
	}
	for nr := range b.ops {
		if !reflect.DeepEqual(b.ops[nr], before[nr]) {
			t.Fatalf("shared path %v changed:\n now  %v\n was  %v", Syscall(nr), b.ops[nr], before[nr])
		}
		if want := emitPath(b, Syscall(nr), nopPlan{}); !reflect.DeepEqual(b.ops[nr], want) {
			t.Fatalf("shared path %v no longer matches its emission", Syscall(nr))
		}
	}
	if !reflect.DeepEqual(b.other, other) {
		t.Fatalf("shared out-of-table path changed: now %v, was %v", b.other, other)
	}
}
