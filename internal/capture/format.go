// Package capture implements the exit-stream record/replay plane: a compact,
// versioned binary format for the Event Forwarder's decoded exit stream, a
// Recorder that taps the stream at decode time with near-zero hot-path cost,
// and a Replay engine that drives the Event Multiplexer, routing table and
// auditors to byte-identical verdicts without a live guest.
//
// A capture is a header followed by a flat sequence of records. Two header
// layouts exist; the records are identical under both:
//
//	v1 head: magic "HTCS" | 1 | flags u8 | tick i64 |
//	         nVMs u16 | nVMs × { nameLen u8, name, vcpus u16 }
//	v2 head: magic "HTCS" | 2 | flags u8 | tick i64 | hostLen u8 | host |
//	         nVMs u16 | nVMs × { id u16, nameLen u8, name, vcpus u16 }
//	event:   kind=1 | type u8 | vm u16 | vcpu u16 | seq u64 | span u64 |
//	         time i64 | reason u8 | registers (89 bytes) | payload
//	tick:    kind=2 | vm u16 | now i64       (before the VM clock advances)
//	barrier: kind=3 | now i64                (before the shared EM drain)
//	view:    kind=4 | vm u16 | method u8 | method-specific result
//	counter: kind=5 | vm u16 | count i64     (Fig. 3A CountProcesses result)
//	end:     kind=6                          (end of the driven run)
//
// Event payloads are type-specific (only the fields that event type carries);
// unknown event types — including the routing table's sentinel range ≥ 32 —
// carry a generic payload of every decoded field, so round-tripping is the
// identity for any type a future Event Forwarder might mint.
//
// Under both layouts slot i of the VM table is VMID i, the ID the recording
// EM's AttachVM assigned. The v1 header is the solo-host form: the host is
// anonymous. The v2 header carries the recording host's name and an ID
// column that is always 0..n-1; the column is kept only so hosted captures
// stay byte-identical, and a reader rejects any entry that is not its slot
// index. The writer picks the layout by the host name alone: v1 without one,
// v2 with one. Readers accept both.
//
// View and counter records capture the results of every GuestView read the
// auditors performed, in issue order. On replay the same auditors, driven by
// the same events, pop the same records from the stream — the guest itself is
// not needed. Everything is little-endian.
package capture

import "time"

// Version is the current capture format version. Readers accept the current
// version and VersionSolo; anything else is rejected outright — record
// framing is version-specific, so decoding skewed data would produce garbage
// events, not graceful degradation.
const Version = 2

// VersionSolo is the original header layout: no host name and no ID column.
// Writers emit it for every header without a host name, so solo captures
// stay byte-identical.
const VersionSolo = 1

// magic identifies a HyperTap capture stream.
var magic = [4]byte{'H', 'T', 'C', 'S'}

// Record kinds.
const (
	recEvent   = 1
	recTick    = 2
	recBarrier = 3
	recView    = 4
	recCounter = 5
	recEnd     = 6
)

// GuestView method identifiers for view records.
const (
	viewRegs        = 1
	viewReadGPA     = 2
	viewReadU64GPA  = 3
	viewReadU32GPA  = 4
	viewTranslate   = 5
	viewReadU64GVA  = 6
	viewReadU32GVA  = 7
	viewReadCString = 8
	viewNow         = 9
	viewPaused      = 10
)

// Encoding limits. Oversized values mark a stream as damaged rather than
// triggering huge allocations in the reader.
const (
	// maxVMHeaders bounds the per-VM header table (the EM's own VM limit).
	maxVMHeaders = 1 << 16
	// maxStringLen bounds recorded ReadCStringGVA results.
	maxStringLen = 4096
	// maxDataLen bounds recorded ReadGPA results.
	maxDataLen = 1 << 20
)

// Wire sizes.
const (
	// regsSize is an arch.RegisterFile: RIP, RSP, CR3, TR (4×8), CPL (1),
	// 7 GPRs (7×8).
	regsSize = 4*8 + 1 + 7*8
	// eventFixedSize is an event record up to and including the register
	// file: kind, type, vm, vcpu, seq, span, time, reason, registers.
	eventFixedSize = 1 + 1 + 2 + 2 + 8 + 8 + 8 + 1 + regsSize
	// genericPayloadSize carries every decoded field, for unknown types:
	// PDBA, RSP0 (2×8), SyscallNr (4), SyscallArgs (4×8), Port (2),
	// IsWrite (1), IOValue (4), Vector (1), MSR (4), MSRValue (8),
	// GPA, GVA (2×8).
	genericPayloadSize = 8 + 8 + 4 + 4*8 + 2 + 1 + 4 + 1 + 4 + 8 + 8 + 8
	// maxEventRecSize bounds one event record.
	maxEventRecSize = eventFixedSize + genericPayloadSize
)

// VMHeader describes one recorded VM. Its VMID is its index in
// Header.VMs.
type VMHeader struct {
	// Name is the VM's EM attachment name; replay re-attaches under it so
	// actor tables and per-VM routes line up with the live run.
	Name string
	// VCPUs is the VM's virtual CPU count (ReplayView.NumVCPUs).
	VCPUs int
}

// Header describes a capture: the recording host, the schedule tick and the
// VM table, indexed by VMID.
type Header struct {
	// Host names the recording host; empty for solo captures.
	Host string
	// VMs lists the recorded VMs; VMs[i] is VMID i.
	VMs []VMHeader
	// Tick is the scheduler granularity of the recorded run.
	Tick time.Duration
}
