package guest

import (
	"reflect"
	"testing"
	"time"
)

// emitPath is per-dispatch emission, the reference for compiled paths: the
// syscall's base work, then every section asking plan about its sites.
func emitPath(b *pathBuilder, nr Syscall, plan FaultPlan) []kernOp {
	base := syscallBaseWork[nr]
	if base == 0 {
		base = defaultSyscallWork
	}
	ops := []kernOp{{kind: opWork, dur: base}}
	for _, s := range b.paths[nr] {
		ops = s.emit(plan, ops)
	}
	return ops
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
