// Package hav models Hardware-Assisted Virtualization: guest/host execution
// modes, VMCS-like per-vCPU state, the VM Exit event taxonomy of the paper's
// Table I, and Extended Page Tables with per-page access permissions.
//
// The model preserves the property HyperTap depends on: every restricted
// guest operation traps to the hypervisor *before* the operation takes
// effect, handing the handler the saved architectural state of the suspended
// vCPU. Monitoring built on these exits therefore cannot be bypassed by any
// software running inside the guest, no matter how privileged.
package hav

import (
	"fmt"

	"hypertap/internal/arch"
)

// ExitReason identifies the class of VM Exit, mirroring the Intel VT-x basic
// exit reasons used in the paper.
type ExitReason uint8

// VM Exit reasons (paper Table I).
const (
	// ExitCRAccess fires when the guest writes a control register while
	// CR-load exiting is enabled; HyperTap uses it to observe process
	// context switches (CR3 ← PDBA).
	ExitCRAccess ExitReason = iota + 1
	// ExitEPTViolation fires when a guest access violates EPT permissions;
	// HyperTap uses it for thread-switch interception (write-protected TSS
	// pages), fast-syscall interception (execute-protected entry page),
	// MMIO tracking and fine-grained interception.
	ExitEPTViolation
	// ExitException fires for guest exceptions and software interrupts
	// selected by the exception bitmap; HyperTap uses it for interrupt-based
	// system calls (INT 0x80 / INT 0x2E).
	ExitException
	// ExitWRMSR fires when the guest executes the privileged WRMSR
	// instruction; HyperTap uses it to learn the SYSENTER entry point.
	ExitWRMSR
	// ExitIOInstruction fires for programmed I/O instructions (IN/OUT).
	ExitIOInstruction
	// ExitExternalInterrupt fires when a hardware interrupt arrives while
	// the vCPU is in guest mode.
	ExitExternalInterrupt
	// ExitAPICAccess fires for accesses to the virtual APIC page.
	ExitAPICAccess
	// ExitHLT fires when the guest executes HLT (idle).
	ExitHLT
)

// NumExitReasons is the count of modeled exit reasons: valid reasons are
// 1..NumExitReasons. Deserializers (the flight and capture codecs) size
// validation tables with it.
const NumExitReasons = int(ExitHLT)

var exitReasonNames = [...]string{
	ExitCRAccess:          "CR_ACCESS",
	ExitEPTViolation:      "EPT_VIOLATION",
	ExitException:         "EXCEPTION",
	ExitWRMSR:             "WRMSR",
	ExitIOInstruction:     "IO_INST",
	ExitExternalInterrupt: "EXTERNAL_INT",
	ExitAPICAccess:        "APIC_ACCESS",
	ExitHLT:               "HLT",
}

func (r ExitReason) String() string {
	if int(r) < len(exitReasonNames) && exitReasonNames[r] != "" {
		return exitReasonNames[r]
	}
	return fmt.Sprintf("ExitReason(%d)", uint8(r))
}

// Valid reports whether r is one of the modeled exit reasons. Deserializers
// (the flight recorder's binary codec) use it to reject corrupt records: an
// exit reason is a closed enum, so any other byte is not a version-skew
// artifact but damage.
func (r ExitReason) Valid() bool {
	return r != 0 && int(r) <= NumExitReasons
}

// AllExitReasons lists every modeled exit reason in declaration order.
func AllExitReasons() []ExitReason {
	out := make([]ExitReason, 0, NumExitReasons)
	for r := ExitCRAccess; int(r) <= NumExitReasons; r++ {
		out = append(out, r)
	}
	return out
}

// Access is a memory access type checked against EPT permissions.
type Access uint8

// Memory access types.
const (
	AccessRead Access = iota + 1
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return fmt.Sprintf("Access(%d)", uint8(a))
	}
}

// ExceptionType distinguishes the source of an ExitException.
type ExceptionType uint8

// Exception types.
const (
	// ExcSoftwareInt is a software interrupt (INT n).
	ExcSoftwareInt ExceptionType = iota + 1
	// ExcPageFault is a guest page fault (#PF).
	ExcPageFault
	// ExcGeneralProtection is a general-protection fault (#GP).
	ExcGeneralProtection
)

func (e ExceptionType) String() string {
	switch e {
	case ExcSoftwareInt:
		return "SOFTWARE_INT"
	case ExcPageFault:
		return "PAGE_FAULT"
	case ExcGeneralProtection:
		return "GP_FAULT"
	default:
		return fmt.Sprintf("ExceptionType(%d)", uint8(e))
	}
}

// Qualification carries the reason-specific detail of a VM Exit, mirroring
// the VT-x exit qualification field. It is one flat, pointer-free value: the
// exit's Reason says which fields are meaningful, so raising an exit boxes
// nothing and the VCPU can fill the same Exit for every exit it takes.
//
//	CR_ACCESS      Register, Value (the value about to be loaded)
//	EPT_VIOLATION  GPA, GVA, Access, Value (the value stored by a write)
//	EXCEPTION      ExcType, Vector
//	WRMSR          MSR, Value
//	IO_INST        Port, Write, Value (the 32-bit data)
//	EXTERNAL_INT   Vector
//	APIC_ACCESS    Offset, Write
//	HLT            (none)
type Qualification struct {
	// Register is the control register number (3 for CR3).
	Register int
	// Value is the data of the trapped operation: the value about to be
	// loaded into a control register or MSR, the value being stored by a
	// violating write (a monitoring convenience, equivalent to decoding the
	// trapped instruction), or the I/O data.
	Value uint64
	// GPA and GVA are the guest-physical and guest-virtual addresses of the
	// faulting access.
	GPA arch.GPA
	GVA arch.GVA
	// Access is the attempted access type.
	Access Access
	// ExcType and Vector describe an exception or software interrupt;
	// Vector alone describes a hardware interrupt.
	ExcType ExceptionType
	Vector  uint8
	// MSR is the model-specific register being written.
	MSR arch.MSR
	// Port is the programmed-I/O port.
	Port uint16
	// Offset is the accessed virtual-APIC register.
	Offset uint16
	// Write marks output I/O and APIC writes.
	Write bool
}

// format renders q as the detail of an exit of reason r.
func (q Qualification) format(r ExitReason) string {
	switch r {
	case ExitCRAccess:
		return fmt.Sprintf("CR%d <- %#x", q.Register, q.Value)
	case ExitEPTViolation:
		return fmt.Sprintf("%s gpa=%#x gva=%#x", q.Access, uint64(q.GPA), uint64(q.GVA))
	case ExitException:
		return fmt.Sprintf("%s vector=%#x", q.ExcType, q.Vector)
	case ExitWRMSR:
		return fmt.Sprintf("%v <- %#x", q.MSR, q.Value)
	case ExitIOInstruction:
		dir := "in"
		if q.Write {
			dir = "out"
		}
		return fmt.Sprintf("%s port=%#x val=%#x", dir, q.Port, q.Value)
	case ExitExternalInterrupt:
		return fmt.Sprintf("vector=%#x", q.Vector)
	case ExitAPICAccess:
		dir := "read"
		if q.Write {
			dir = "write"
		}
		return fmt.Sprintf("apic %s offset=%#x", dir, q.Offset)
	case ExitHLT:
		return "hlt"
	default:
		return fmt.Sprintf("%+v", q)
	}
}

// Exit is a VM Exit: the transition from guest mode to host mode, carrying
// the saved guest state of the suspended vCPU. This is HyperTap's root of
// trust — the contents cannot be influenced by guest software beyond the
// architectural semantics of the trapped operation itself.
type Exit struct {
	// VCPU is the virtual CPU that exited.
	VCPU int
	// Reason is the exit class.
	Reason ExitReason
	// Qual is the reason-specific detail; Reason selects its fields.
	Qual Qualification
	// Guest is the architectural register state at the moment of exit,
	// before the trapped operation takes effect.
	Guest arch.RegisterFile
	// Sequence is the per-VM monotonic exit number.
	Sequence uint64
}

func (e *Exit) String() string {
	return fmt.Sprintf("vcpu%d #%d %v: %s", e.VCPU, e.Sequence, e.Reason, e.Qual.format(e.Reason))
}
