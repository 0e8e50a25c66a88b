package hav

import (
	"fmt"

	"hypertap/internal/arch"
)

// ExitHandler receives VM Exits. The hypervisor's run loop implements this;
// HyperTap's Event Forwarder hooks it. The handler runs synchronously while
// the vCPU is suspended in host mode — exactly the blocking logging point the
// paper identifies.
//
// The exit is borrowed: each VCPU fills one Exit it owns and passes it to
// every call, so *exit is valid only for the duration of HandleExit. A
// handler that keeps an exit past its return must copy the value.
type ExitHandler interface {
	HandleExit(exit *Exit)
}

// ExitHandlerFunc adapts a function to the ExitHandler interface.
type ExitHandlerFunc func(exit *Exit)

// HandleExit implements ExitHandler.
func (f ExitHandlerFunc) HandleExit(exit *Exit) { f(exit) }

var _ ExitHandler = (ExitHandlerFunc)(nil)

// Controls is the VM-execution control area of the VMCS: it selects which
// guest operations cause VM Exits. One Controls is shared by all vCPUs of a
// VM, matching how hypervisors configure identical controls per vCPU.
type Controls struct {
	// CR3LoadExiting makes guest writes to CR3 cause CR_ACCESS exits.
	// (With EPT enabled, hypervisors normally leave this off; HyperTap
	// turns it on to observe process switches.)
	CR3LoadExiting bool
	// exceptionBitmap selects which exception vectors cause EXCEPTION
	// exits, mirroring VT-x's EXCEPTION_BITMAP.
	exceptionBitmap [4]uint64
}

// SetExceptionBit selects (or deselects) exits for an exception vector.
func (c *Controls) SetExceptionBit(vector uint8, on bool) {
	word, bit := vector/64, vector%64
	if on {
		c.exceptionBitmap[word] |= 1 << bit
	} else {
		c.exceptionBitmap[word] &^= 1 << bit
	}
}

// ExceptionBit reports whether the vector is selected for exiting.
func (c *Controls) ExceptionBit(vector uint8) bool {
	return c.exceptionBitmap[vector/64]&(1<<(vector%64)) != 0
}

// VCPU is a virtual CPU with VMCS-like saved state. All guest-visible
// privileged operations go through VCPU methods, which consult the VM
// execution controls and the EPT, fire VM Exits to the registered handler,
// and then complete the operation ("trap-and-emulate").
//
// A VCPU is driven from the single-threaded simulator core and is not safe
// for concurrent use.
type VCPU struct {
	id        int
	ctrls     *Controls
	ept       *EPT
	handler   ExitHandler
	seq       *uint64
	inGuest   bool
	halted    bool
	exitTally [NumExitReasons + 1]uint64
	// exitBuf is the Exit handed to the handler, refilled on every exit so
	// raising one allocates nothing (see ExitHandler for the borrow rule).
	exitBuf Exit

	// Regs is the architectural register file (the VMCS guest-state area).
	Regs arch.RegisterFile
	// msrs holds model-specific register values.
	msrs map[arch.MSR]uint64
}

// NewVCPU creates a vCPU sharing the VM's controls, EPT and exit-sequence
// counter. The handler may be nil initially and set later with SetHandler
// (exits with no handler are still counted).
func NewVCPU(id int, ctrls *Controls, ept *EPT, seq *uint64) *VCPU {
	if ctrls == nil || ept == nil || seq == nil {
		panic("hav: NewVCPU requires non-nil controls, EPT and sequence counter")
	}
	return &VCPU{
		id:      id,
		ctrls:   ctrls,
		ept:     ept,
		seq:     seq,
		inGuest: true,
		msrs:    make(map[arch.MSR]uint64),
	}
}

// ID returns the vCPU number.
func (v *VCPU) ID() int { return v.id }

// SetHandler installs the exit handler.
func (v *VCPU) SetHandler(h ExitHandler) { v.handler = h }

// InGuest reports whether the vCPU is executing in guest mode.
func (v *VCPU) InGuest() bool { return v.inGuest }

// Halted reports whether the vCPU is idle after a HLT.
func (v *VCPU) Halted() bool { return v.halted }

// Resume clears the halted state (interrupt wake-up).
func (v *VCPU) Resume() { v.halted = false }

// ExitCount returns the number of exits taken for a reason.
func (v *VCPU) ExitCount(r ExitReason) uint64 {
	if int(r) <= NumExitReasons {
		return v.exitTally[r]
	}
	return 0
}

// TotalExits returns the number of exits taken across all reasons.
func (v *VCPU) TotalExits() uint64 {
	var total uint64
	for _, n := range v.exitTally {
		total += n
	}
	return total
}

// exit suspends the vCPU (VM Exit), delivers the event, and resumes it
// (VM Entry). The guest register snapshot is taken before the trapped
// operation's side effects are applied.
//
//hypertap:hotpath
func (v *VCPU) exit(reason ExitReason, qual Qualification) {
	*v.seq++
	v.exitTally[reason]++
	v.inGuest = false
	if v.handler != nil {
		v.exitBuf = Exit{
			VCPU:     v.id,
			Reason:   reason,
			Qual:     qual,
			Guest:    v.Regs.Clone(),
			Sequence: *v.seq,
		}
		v.handler.HandleExit(&v.exitBuf)
	}
	v.inGuest = true
}

// WriteCR3 performs a guest write to CR3 (a process context switch). With
// CR3-load exiting enabled it first raises a CR_ACCESS exit carrying the new
// page-directory base.
//
//hypertap:hotpath
func (v *VCPU) WriteCR3(pdba arch.GPA) {
	if v.ctrls.CR3LoadExiting {
		v.exit(ExitCRAccess, Qualification{Register: 3, Value: uint64(pdba)})
	}
	v.Regs.CR3 = pdba
}

// WriteMSR performs a guest WRMSR. WRMSR is privileged and always exits.
//
//hypertap:hotpath
func (v *VCPU) WriteMSR(m arch.MSR, value uint64) {
	v.exit(ExitWRMSR, Qualification{MSR: m, Value: value})
	v.msrs[m] = value
}

// ReadMSR returns the value of a model-specific register.
func (v *VCPU) ReadMSR(m arch.MSR) uint64 { return v.msrs[m] }

// SoftwareInterrupt raises INT vector from guest code. If the exception
// bitmap selects the vector, an EXCEPTION exit fires before the guest's
// interrupt handler runs.
//
//hypertap:hotpath
func (v *VCPU) SoftwareInterrupt(vector uint8) {
	if v.ctrls.ExceptionBit(vector) {
		v.exit(ExitException, Qualification{ExcType: ExcSoftwareInt, Vector: vector})
	}
}

// CheckedAccess performs the EPT permission check for a guest memory access
// and raises an EPT_VIOLATION exit when the access is not permitted. It
// reports whether a violation occurred. The caller (the guest memory
// emulation path) performs the actual data transfer afterwards either way:
// the hypervisor emulates the trapped access, which is how write-protect
// tracking works in the paper.
//
//hypertap:hotpath
func (v *VCPU) CheckedAccess(gpa arch.GPA, gva arch.GVA, a Access, value uint64) bool {
	if v.ept.Check(gpa, a) {
		return false
	}
	v.exit(ExitEPTViolation, Qualification{GPA: gpa, GVA: gva, Access: a, Value: value})
	return true
}

// IO performs a guest programmed-I/O instruction, which always exits so the
// hypervisor can multiplex devices.
//
//hypertap:hotpath
func (v *VCPU) IO(port uint16, write bool, value uint32) {
	v.exit(ExitIOInstruction, Qualification{Port: port, Write: write, Value: uint64(value)})
}

// ExternalInterrupt models a hardware interrupt arriving while the vCPU is
// in guest mode, which exits so the host can route it.
//
//hypertap:hotpath
func (v *VCPU) ExternalInterrupt(vector uint8) {
	v.exit(ExitExternalInterrupt, Qualification{Vector: vector})
	v.halted = false
}

// APICAccess models a guest access to the virtual-APIC page.
//
//hypertap:hotpath
func (v *VCPU) APICAccess(offset uint16, write bool) {
	v.exit(ExitAPICAccess, Qualification{Offset: offset, Write: write})
}

// Halt executes guest HLT: the vCPU exits and stays idle until the next
// external interrupt.
//
//hypertap:hotpath
func (v *VCPU) Halt() {
	v.exit(ExitHLT, Qualification{})
	v.halted = true
}

// String describes the vCPU for diagnostics.
func (v *VCPU) String() string {
	mode := "guest"
	if !v.inGuest {
		mode = "host"
	}
	return fmt.Sprintf("vcpu%d[%s cr3=%#x tr=%#x]", v.id, mode, uint64(v.Regs.CR3), uint64(v.Regs.TR))
}
