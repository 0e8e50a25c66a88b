// Package arch models the x86-style architectural surface the reproduction
// relies on: the register file (CR3, TR, RSP, general-purpose registers),
// model-specific registers, the Task-State Segment layout, page-table entry
// formats, privilege levels, and interrupt vectors.
//
// These definitions are the "hardware architectural invariants" of the paper:
// properties defined and enforced below the whole software stack. The guest
// kernel (internal/guest), the HAV substrate (internal/hav), the hypervisor
// (internal/hv) and HyperTap's interception algorithms (internal/core) all
// share this single vocabulary, mirroring how real hardware constrains every
// layer identically.
package arch

import "fmt"

// GVA is a guest virtual address: an address in the address space selected by
// the running process's page directory (CR3).
type GVA uint64

// GPA is a guest physical address: the address space the guest believes is
// physical memory. EPT translates GPAs to host memory.
type GPA uint64

// PageSize is the architectural page size. All mappings, EPT permissions and
// kernel-stack alignments operate on 4 KiB pages.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageAlignDown rounds a down to a page boundary.
func PageAlignDown[T ~uint64](a T) T { return a &^ (PageSize - 1) }

// PageAlignUp rounds a up to a page boundary.
func PageAlignUp[T ~uint64](a T) T { return (a + PageSize - 1) &^ (PageSize - 1) }

// PageNumber returns a's page frame number.
func PageNumber[T ~uint64](a T) uint64 { return uint64(a) >> PageShift }

// PageOffset returns a's offset within its page.
func PageOffset[T ~uint64](a T) uint64 { return uint64(a) & (PageSize - 1) }

// Ring is an x86 privilege level.
type Ring uint8

// Privilege rings. Only ring 0 (kernel) and ring 3 (user) are used by the
// miniOS guest, matching the paper's user→kernel transfer discussion.
const (
	RingKernel Ring = 0
	RingUser   Ring = 3
)

func (r Ring) String() string {
	switch r {
	case RingKernel:
		return "ring0"
	case RingUser:
		return "ring3"
	default:
		return fmt.Sprintf("ring%d", uint8(r))
	}
}

// GPR identifies a general-purpose register. System-call numbers and
// parameters travel through these, exactly as in the paper's interception
// pseudo-code (EAX = syscall number, EBX.. = parameters).
type GPR uint8

// General purpose registers.
const (
	RAX GPR = iota + 1
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	NumGPR = 7
)

var gprNames = map[GPR]string{
	RAX: "RAX", RBX: "RBX", RCX: "RCX", RDX: "RDX", RSI: "RSI", RDI: "RDI", RBP: "RBP",
}

func (r GPR) String() string {
	if s, ok := gprNames[r]; ok {
		return s
	}
	return fmt.Sprintf("GPR(%d)", uint8(r))
}

// MSR identifies a model-specific register.
type MSR uint32

// Model-specific registers used by the fast system call path. Writing any of
// these executes the privileged WRMSR instruction, which causes a WRMSR VM
// Exit in guest mode — the architectural invariant behind the paper's fast
// system call interception algorithm (Fig. 3E).
const (
	// MSRSysenterEIP holds the kernel entry point executed by SYSENTER.
	MSRSysenterEIP MSR = 0x176
	// MSRSysenterESP holds the kernel stack pointer loaded by SYSENTER.
	MSRSysenterESP MSR = 0x175
	// MSRSysenterCS holds the kernel code segment loaded by SYSENTER.
	MSRSysenterCS MSR = 0x174
)

func (m MSR) String() string {
	switch m {
	case MSRSysenterEIP:
		return "IA32_SYSENTER_EIP"
	case MSRSysenterESP:
		return "IA32_SYSENTER_ESP"
	case MSRSysenterCS:
		return "IA32_SYSENTER_CS"
	default:
		return fmt.Sprintf("MSR(%#x)", uint32(m))
	}
}

// Interrupt vectors. Software interrupts raised with these vectors are the
// legacy system-call gates of Linux and Windows respectively.
const (
	// VectorLinuxSyscall is INT $0x80, the legacy Linux system call gate.
	VectorLinuxSyscall = 0x80
	// VectorWindowsSyscall is INT $0x2E, the legacy Windows system call gate.
	VectorWindowsSyscall = 0x2E
	// VectorTimer is the external timer interrupt delivered by the virtual
	// APIC; it drives the guest scheduler tick.
	VectorTimer = 0x20
	// VectorDevice is the external interrupt vector used by virtual devices.
	VectorDevice = 0x21
)

// APICOffEOI is the end-of-interrupt register offset in the local APIC page.
const APICOffEOI = 0xB0

// TSS layout. The Task-State Segment is stored in guest memory; the TR
// register always points at the TSS of the running task (architectural
// invariant). On privilege transfer from ring 3 to ring 0 the CPU loads the
// kernel stack pointer from TSS.RSP0, so RSP0 uniquely identifies the running
// thread — the invariant behind thread-switch interception (Fig. 3B).
const (
	// TSSSize is the size in bytes of the architectural TSS we model.
	TSSSize = 104
	// TSSOffRSP0 is the byte offset of the RSP0 field inside the TSS
	// (offset 4 in the 64-bit x86 TSS).
	TSSOffRSP0 = 4
)

// Page-table entry format for the guest's own page directories (GVA→GPA) and
// for the EPT (GPA→host). A zero entry is not present.
const (
	// PTEPresent marks a mapping as valid.
	PTEPresent uint64 = 1 << 0
	// PTEWritable permits stores through the mapping.
	PTEWritable uint64 = 1 << 1
	// PTEUser permits ring-3 access through the mapping.
	PTEUser uint64 = 1 << 2
	// PTENoExec forbids instruction fetch through the mapping.
	PTENoExec uint64 = 1 << 63
	// PTEAddrMask extracts the physical frame base from an entry.
	PTEAddrMask uint64 = 0x0000_FFFF_FFFF_F000
)

// Guest virtual address-space layout used by the miniOS guest. A single-level
// page directory of PDEntries entries covers the whole space: the low half is
// per-process user memory, the high half is the kernel mapping shared (copied
// at fork, like Linux's kernel PGD entries) by every address space.
const (
	// PDEntries is the number of 8-byte entries in a page directory.
	PDEntries = 4096
	// PDBytes is the size of one page directory in guest memory.
	PDBytes = PDEntries * 8
	// UserBase is the lowest user-space virtual address. Page directory
	// entry 0 is deliberately left unmapped so that GVA 0 faults.
	UserBase GVA = 1 * PageSize
	// KernelBase is the lowest kernel virtual address; entries at and above
	// it are identical in every process's page directory.
	KernelBase GVA = GVA(PDEntries/2) * PageSize
	// AddressSpaceTop is the first invalid virtual address.
	AddressSpaceTop GVA = GVA(PDEntries) * PageSize
)

// PDIndex returns the page-directory slot for a virtual address and whether
// the address lies inside the modeled address space.
func PDIndex(v GVA) (int, bool) {
	idx := int(uint64(v) >> PageShift)
	return idx, idx >= 0 && idx < PDEntries
}

// IsKernelAddress reports whether v lies in the shared kernel half of the
// address space.
func IsKernelAddress(v GVA) bool { return v >= KernelBase && v < AddressSpaceTop }

// RegisterFile is the per-vCPU architectural register state saved and
// restored across VM transitions. It corresponds to the guest-state area of
// the VMCS: on every VM Exit the hypervisor — and therefore HyperTap — reads
// the suspended guest's registers from here.
type RegisterFile struct {
	// RIP is the instruction pointer.
	RIP GVA
	// RSP is the current stack pointer.
	RSP GVA
	// CR3 is the Page Directory Base Register: it always holds the guest-
	// physical base address of the running process's page directory.
	CR3 GPA
	// TR holds the guest-virtual address of the running task's TSS. (Real
	// hardware holds a segment selector; the paper and this model both use
	// the resolved TSS location, which is what the invariant protects.)
	TR GVA
	// CPL is the current privilege level.
	CPL Ring
	// GPRs are the general-purpose registers, indexed by GPR-1.
	GPRs [NumGPR]uint64
}

// GPR returns the value of general-purpose register r.
func (f *RegisterFile) GPR(r GPR) uint64 {
	return f.GPRs[r-1]
}

// SetGPR sets general-purpose register r to v.
func (f *RegisterFile) SetGPR(r GPR, v uint64) {
	f.GPRs[r-1] = v
}

// Clone returns a copy of the register file, for a reader that keeps the
// state past the moment it was read (the hypervisor's GuestView.Regs). A
// VM Exit carries the registers as a value copied at exit time, so auditors
// observe the state at exit even after the vCPU has resumed.
func (f *RegisterFile) Clone() RegisterFile {
	return *f
}
