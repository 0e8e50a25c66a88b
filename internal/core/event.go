// Package core implements the HyperTap framework itself: the unified
// event-logging channel shared by every reliability and security monitor.
//
// The framework follows the paper's split: the *logging* phase (capturing VM
// Exits and the architectural state of the suspended vCPU) is common and
// lives here plus in core/intercept; the *auditing* phase is the per-monitor
// policy code in internal/auditors, which subscribes to the Event
// Multiplexer. A Remote Health Checker, fed by sampled events over TCP,
// watches the liveness of the monitoring stack itself.
package core

import (
	"fmt"
	"strings"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/hav"
)

// EventType identifies the semantic class of a logged event, decoded by the
// interception layer from raw VM Exits.
type EventType uint8

// Event types.
const (
	// EvProcessSwitch is a CR3 load: the guest switched address spaces.
	EvProcessSwitch EventType = iota + 1
	// EvThreadSwitch is a TSS.RSP0 store: the guest dispatched a thread.
	EvThreadSwitch
	// EvSyscall is a system-call entry (interrupt gate or SYSENTER fetch).
	EvSyscall
	// EvIOPort is a programmed-I/O instruction.
	EvIOPort
	// EvMMIO is an access to a watched memory-mapped I/O region.
	EvMMIO
	// EvInterrupt is an external (hardware) interrupt delivery.
	EvInterrupt
	// EvAPICAccess is a virtual-APIC page access.
	EvAPICAccess
	// EvHalt is a guest HLT (idle entry).
	EvHalt
	// EvMSRWrite is a model-specific-register write.
	EvMSRWrite
	// EvTSSRelocated is the integrity alert of Fig. 3C: a vCPU's TR no
	// longer points at the TSS recorded at arming time.
	EvTSSRelocated
	// EvMemAccess is a fine-grained interception hit (watched page).
	EvMemAccess
	// EvRawExit wraps exits not decoded into any of the above.
	EvRawExit
	numEventTypes = int(EvRawExit)
)

var eventTypeNames = [...]string{
	EvProcessSwitch: "process-switch",
	EvThreadSwitch:  "thread-switch",
	EvSyscall:       "syscall",
	EvIOPort:        "io-port",
	EvMMIO:          "mmio",
	EvInterrupt:     "interrupt",
	EvAPICAccess:    "apic-access",
	EvHalt:          "halt",
	EvMSRWrite:      "msr-write",
	EvTSSRelocated:  "tss-relocated",
	EvMemAccess:     "mem-access",
	EvRawExit:       "raw-exit",
}

func (t EventType) String() string {
	if int(t) < len(eventTypeNames) && eventTypeNames[t] != "" {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("EventType(%d)", uint8(t))
}

// EventMask selects a set of event types for a subscription.
type EventMask uint32

// MaskOf builds a mask from event types.
func MaskOf(types ...EventType) EventMask {
	var m EventMask
	for _, t := range types {
		m |= 1 << t
	}
	return m
}

// MaskAll selects every event type.
const MaskAll = EventMask(1<<(numEventTypes+1) - 2)

// Has reports whether the mask selects t.
func (m EventMask) Has(t EventType) bool { return m&(1<<t) != 0 }

func (m EventMask) String() string {
	var names []string
	for t := EventType(1); int(t) <= numEventTypes; t++ {
		if m.Has(t) {
			names = append(names, t.String())
		}
	}
	return strings.Join(names, "|")
}

// AllEventTypes lists every event type in declaration order.
func AllEventTypes() []EventType {
	out := make([]EventType, 0, numEventTypes)
	for t := EventType(1); int(t) <= numEventTypes; t++ {
		out = append(out, t)
	}
	return out
}

// Event is one logged guest event: the unit of HyperTap's shared logging
// channel. Events carry the saved architectural state of the exiting vCPU
// (the root of trust) plus decoded, type-specific fields. The struct is flat
// so high-rate logging does not allocate per field.
type Event struct {
	// Type is the semantic class.
	Type EventType
	// VM identifies the producing VM on a host-shared Event Multiplexer;
	// the Event Forwarder stamps it at decode time. It must be a VMID the
	// EM's AttachVM returned: Publish panics on any other. Solo machines
	// attach as VM 0, so the zero value is correct outside fleet
	// deployments.
	VM VMID
	// VCPU is the virtual CPU that generated the event.
	VCPU int
	// Seq is the per-VM exit sequence number of the underlying exit.
	Seq uint64
	// Span is the causal tracing identity minted by the Event Forwarder at
	// decode time (see flight.go); zero for events published outside a
	// forwarder, which the tracing plane treats as untraced.
	Span SpanID
	// Time is the virtual timestamp.
	Time time.Duration
	// Regs is the architectural register file at exit time.
	Regs arch.RegisterFile
	// ExitReason is the raw VM Exit class the event was decoded from.
	ExitReason hav.ExitReason

	// PDBA is the incoming page-directory base for process switches.
	PDBA arch.GPA
	// RSP0 is the incoming kernel stack pointer for thread switches.
	RSP0 arch.GVA
	// SyscallNr and SyscallArgs describe syscall events (from registers).
	SyscallNr   uint32
	SyscallArgs [4]uint64
	// Port, IsWrite and IOValue describe programmed I/O.
	Port    uint16
	IsWrite bool
	IOValue uint32
	// Vector is the interrupt/exception vector.
	Vector uint8
	// MSR and MSRValue describe MSR writes.
	MSR      arch.MSR
	MSRValue uint64
	// GPA and GVA locate memory events.
	GPA arch.GPA
	GVA arch.GVA
}

func (e *Event) String() string {
	switch e.Type {
	case EvProcessSwitch:
		return fmt.Sprintf("[%v vcpu%d] process-switch pdba=%#x", e.Time, e.VCPU, uint64(e.PDBA))
	case EvThreadSwitch:
		return fmt.Sprintf("[%v vcpu%d] thread-switch rsp0=%#x", e.Time, e.VCPU, uint64(e.RSP0))
	case EvSyscall:
		return fmt.Sprintf("[%v vcpu%d] syscall nr=%d", e.Time, e.VCPU, e.SyscallNr)
	default:
		return fmt.Sprintf("[%v vcpu%d] %v", e.Time, e.VCPU, e.Type)
	}
}

// GuestView is the read-only helper API HyperTap exposes to auditors: the
// saved register state and guest memory of the monitored VM, addressed
// physically or virtually (software page walks). It is implemented by the
// hypervisor integration (internal/hv).
//
// Everything an auditor can learn about the guest flows through this
// interface plus the Event stream — never through simulator internals — so
// the isolation properties claimed by the paper are preserved in the
// reproduction.
type GuestView interface {
	// NumVCPUs returns the vCPU count of the VM.
	NumVCPUs() int
	// Regs returns a copy of a vCPU's architectural registers.
	Regs(vcpu int) arch.RegisterFile
	// ReadGPA copies guest-physical memory into buf.
	ReadGPA(gpa arch.GPA, buf []byte) error
	// ReadU64GPA reads a 64-bit little-endian value at a physical address.
	ReadU64GPA(gpa arch.GPA) (uint64, error)
	// ReadU32GPA reads a 32-bit little-endian value at a physical address.
	ReadU32GPA(gpa arch.GPA) (uint32, error)
	// TranslateGVA walks the page directory rooted at cr3.
	TranslateGVA(cr3 arch.GPA, gva arch.GVA) (arch.GPA, bool)
	// ReadU64GVA reads a 64-bit value at a virtual address under cr3.
	ReadU64GVA(cr3 arch.GPA, gva arch.GVA) (uint64, error)
	// ReadU32GVA reads a 32-bit value at a virtual address under cr3.
	ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error)
	// ReadCStringGVA reads a NUL-terminated string at a virtual address.
	ReadCStringGVA(cr3 arch.GPA, gva arch.GVA, max int) (string, error)
	// Now returns the VM's virtual time.
	Now() time.Duration
	// PauseVM stops guest execution (blocking audit escalation).
	PauseVM()
	// ResumeVM restarts guest execution.
	ResumeVM()
	// Paused reports whether the VM is paused.
	Paused() bool
}

// VMControl extends GuestView with the knobs the interception layer needs to
// arm hardware-invariant monitoring: VM-execution controls and EPT
// permissions. Auditors do not get VMControl; only the logging core does.
type VMControl interface {
	GuestView
	// SetCR3LoadExiting toggles CR_ACCESS exits for CR3 loads.
	SetCR3LoadExiting(on bool)
	// SetExceptionExit toggles EXCEPTION exits for a vector.
	SetExceptionExit(vector uint8, on bool)
	// ProtectPage restricts EPT permissions for the page containing gpa.
	ProtectPage(gpa arch.GPA, perm hav.Perm) error
	// PagePerm returns the current EPT permissions for a page.
	PagePerm(gpa arch.GPA) hav.Perm
}
