package guest

import (
	"fmt"
	"math/rand"
	"testing"

	"hypertap/internal/arch"
)

// TestFDTableMatchesSetModel drives open, close, read, write and lseek
// with random descriptors — open ones, closed ones, never-opened ones, the
// standard streams and values that wrap negative as an int — through a
// task's descriptor list and through the set semantics it replaced. Every
// SyscallResult must be the same.
func TestFDTableMatchesSetModel(t *testing.T) {
	k := &Kernel{}
	task := &Task{nextFD: 3}
	open := make(map[int]struct{})
	next := 3
	model := func(nr Syscall, a [4]uint64) SyscallResult {
		_, ok := open[int(a[0])]
		switch nr {
		case SysOpen:
			fd := next
			next++
			open[fd] = struct{}{}
			return SyscallResult{Ret: uint64(fd)}
		case SysClose:
			if !ok {
				return SyscallResult{Err: ErrBadFd}
			}
			delete(open, int(a[0]))
			return SyscallResult{}
		case SysRead:
			if !ok && a[0] != 0 {
				return SyscallResult{Err: ErrBadFd}
			}
			return SyscallResult{Ret: a[1]}
		case SysWrite:
			if !ok && a[0] > 2 {
				return SyscallResult{Err: ErrBadFd}
			}
			return SyscallResult{Ret: a[1]}
		default:
			if !ok {
				return SyscallResult{Err: ErrBadFd}
			}
			return SyscallResult{Ret: a[1]}
		}
	}
	calls := map[Syscall]func(int, *Task, [4]uint64) SyscallResult{
		SysOpen: k.sysOpen, SysClose: k.sysClose, SysRead: k.sysRead,
		SysWrite: k.sysWrite, SysLseek: k.sysLseek,
	}
	nrs := []Syscall{SysOpen, SysOpen, SysClose, SysClose, SysRead, SysWrite, SysLseek}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		nr := nrs[rng.Intn(len(nrs))]
		var fd uint64
		switch r := rng.Intn(10); {
		case r < 6 && len(task.openFDs) > 0:
			fd = uint64(task.openFDs[rng.Intn(len(task.openFDs))])
		case r < 9:
			fd = uint64(rng.Intn(next + 2))
		default:
			fd = ^uint64(rng.Intn(3))
		}
		args := [4]uint64{fd, uint64(rng.Intn(4096))}
		if got, want := calls[nr](0, task, args), model(nr, args); got.Ret != want.Ret || got.Err != want.Err {
			t.Fatalf("call %d: %v(%d) = %+v, want %+v", i, nr, int64(fd), got, want)
		}
		if len(task.openFDs) != len(open) {
			t.Fatalf("call %d: %d descriptors open, want %d", i, len(task.openFDs), len(open))
		}
	}
}

// TestKernelWindowExhaustedMessage pins allocLow's failure text, which is
// formatted only when read.
func TestKernelWindowExhaustedMessage(t *testing.T) {
	k := &Kernel{lowNext: KernelWindowBytes - arch.PageSize}
	if _, err := k.allocLow(1, 1); err != nil {
		t.Fatalf("last page of the window: %v", err)
	}
	_, err := k.allocLow(2, 1)
	want := fmt.Sprintf("guest: kernel window exhausted (need 2 pages at %#x)", uint64(KernelWindowBytes))
	if err == nil || err.Error() != want {
		t.Fatalf("allocLow past the window: %v, want %q", err, want)
	}
}
