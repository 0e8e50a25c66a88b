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
// The v1 header is the solo-host form: VMIDs are implicit (slot i is VMID i)
// and the host is anonymous. The v2 header carries the cluster plane's
// identity — the recording host's name and each VM's explicit VMID, so a VM
// whose ID lives in a sparse cluster range ([h·N, h·N+N)) keeps that identity
// through capture and replay. The writer emits v1 whenever v1 can
// express the header (no host name, dense IDs), so pre-cluster captures stay
// byte-identical; readers accept both.
//
// View and counter records capture the results of every GuestView read the
// auditors performed, in issue order. On replay the same auditors, driven by
// the same events, pop the same records from the stream — the guest itself is
// not needed. Everything is little-endian.
package capture

import (
	"time"

	"hypertap/internal/core"
)

// Version is the current capture format version. Readers accept the current
// version and VersionSolo; anything else is rejected outright — record
// framing is version-specific, so decoding skewed data would produce garbage
// events, not graceful degradation.
const Version = 2

// VersionSolo is the original header layout: implicit dense VMIDs, no host
// name. Writers still emit it whenever it can express the header, so captures
// from pre-cluster deployments stay byte-identical.
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

// VMHeader describes one recorded VM.
type VMHeader struct {
	// ID is the VM's VMID on the recording host. Solo hosts leave it zero
	// across the table and the writer assigns dense IDs (slot i is VMID i);
	// cluster hosts carry their sparse range explicitly so the ID — and with
	// it every SpanID and flight record — survives replay.
	ID core.VMID
	// Name is the VM's EM attachment name; replay re-attaches under it so
	// actor tables and per-VM routes line up with the live run.
	Name string
	// VCPUs is the VM's virtual CPU count (ReplayView.NumVCPUs).
	VCPUs int
}

// Header describes a capture: the recording host, the schedule tick and the
// VM table. Readers always populate VMHeader.ID — implicitly dense for solo
// (v1) streams, explicit for cluster (v2) streams.
type Header struct {
	// Host names the recording host; empty for solo captures.
	Host string
	// VMs lists the recorded VMs in table order.
	VMs []VMHeader
	// Tick is the scheduler granularity of the recorded run.
	Tick time.Duration
}

// denseIDs reports whether the VM table's IDs are expressible by the v1
// header: either every ID is zero (the solo form — the writer assigns slot
// order) or the IDs are explicitly 0..n-1 in order.
func (h *Header) denseIDs() bool {
	explicit := false
	for _, vm := range h.VMs {
		if vm.ID != 0 {
			explicit = true
			break
		}
	}
	if !explicit {
		return true
	}
	for i, vm := range h.VMs {
		if vm.ID != core.VMID(i) {
			return false
		}
	}
	return true
}
