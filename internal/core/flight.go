package core

// The flight recorder: a pre-allocated, per-VM ring buffer that continuously
// captures the last N published events in a compact fixed-size record, plus a
// shared span ring tying each exit's decode, fan-out, drain, verdict and
// heartbeat sites together under one causal SpanID.
//
// The design constraint is the same one the paper's overhead numbers rest on
// (DESIGN.md §8): recording must be cheap enough to stay enabled during
// benchmarks. The exit rings therefore have exactly one writer — Publish,
// already serialized by the EM lock — so slot writes are plain stores with no
// per-record synchronization at all; the only atomic on the path is the load
// of the armed gate. Readers snapshot rings under the same EM lock
// (Multiplexer.FlightExits), so the race detector proves the discipline.
// Per-auditor fan-out is not recorded per handle: each exit record stores
// the two async actor bitmasks (queued/dropped) the Publish loop already
// assembles in registers, and the synchronous set — a pure function of
// (VM, event type) over the immutable routing table — is derived again at
// snapshot time, so the full fan-out reconstructs offline and Publish keeps
// 0 allocs/op.
//
// The span ring rides the same single-writer contract: the per-event phases
// (drain, heartbeat) are recorded by the Multiplexer itself with its lock
// held, and the cold phases (verdict, incident) enter through
// Multiplexer.RecordSpan, which takes the lock. The decode step is not
// duplicated into the span ring at all — the exit record already carries the
// SpanID, timestamp and VM, so it IS the decode step. Slot writes are
// therefore plain stores, and the recorder's whole per-event cost is a
// handful of word stores behind one atomic armed check.

import (
	"math/bits"
	"sync/atomic"
	"time"

	"hypertap/internal/arch"
)

// SpanID is the causal identity of one decoded exit as it travels through
// the pipeline: minted by the Event Forwarder at decode time and carried by
// the Event, every auditor handle, detection verdicts and RHC heartbeats.
// The zero value means "no span" (events published outside a forwarder).
//
// The layout is pure arithmetic so the origin is recoverable without a
// table: vm(16 bits) | exit sequence mod 2^40 | decode batch index (8 bits).
type SpanID uint64

// spanSeqMask bounds the sequence bits a SpanID can carry.
const spanSeqMask = 1<<40 - 1

// MintSpan builds the span identity for the idx-th event decoded from exit
// sequence seq of VM vm.
//
//hypertap:hotpath
func MintSpan(vm VMID, seq uint64, idx uint8) SpanID {
	return SpanID(uint64(vm)<<48 | (seq&spanSeqMask)<<8 | uint64(idx))
}

// VM returns the minting VM.
func (s SpanID) VM() VMID { return VMID(s >> 48) }

// Seq returns the originating exit sequence number (mod 2^40).
func (s SpanID) Seq() uint64 { return uint64(s) >> 8 & spanSeqMask }

// Index returns the event's index within its exit's decode batch.
func (s SpanID) Index() uint8 { return uint8(s) }

// FlightPhase labels one recorded step of an exit's journey through the
// pipeline.
type FlightPhase uint8

// Flight phases.
const (
	// PhaseDecode marks the Event Forwarder handing a decoded event to the
	// EM. On the hot path this step lives in the exit rings (the FlightExit
	// record is the decode step), so span records with this phase only appear
	// when a caller records one explicitly.
	PhaseDecode FlightPhase = iota + 1
	// PhaseDrain marks an async subscriber receiving the event in Dispatch.
	PhaseDrain
	// PhaseVerdict marks an auditor raising a detection for the event.
	PhaseVerdict
	// PhaseHeartbeat marks the sampled event feeding an RHC heartbeat.
	PhaseHeartbeat
	// PhaseIncident marks incident-bundle capture referencing the event.
	PhaseIncident
)

var flightPhaseNames = [...]string{
	PhaseDecode:    "decode",
	PhaseDrain:     "drain",
	PhaseVerdict:   "verdict",
	PhaseHeartbeat: "heartbeat",
	PhaseIncident:  "incident",
}

func (p FlightPhase) String() string {
	if int(p) < len(flightPhaseNames) && flightPhaseNames[p] != "" {
		return flightPhaseNames[p]
	}
	return "phase?"
}

// FlightExit is one flight-recorder record: the compact trace of a published
// event. Fields are fixed-size so the binary serialization (internal/flight)
// is a flat little-endian copy. Sync, Queued and Dropped are actor bitmasks
// (bit i set ⇒ the auditor holding actor ID i took that delivery path).
type FlightExit struct {
	// Span is the causal identity minted at decode.
	Span SpanID
	// TimeNS is the event's virtual timestamp in nanoseconds.
	TimeNS int64
	// Digest fingerprints the saved guest state (see GuestDigest).
	Digest uint64
	// Sync is the actor bitmask delivered synchronously. It is not stored
	// per record: the sync set is a pure function of (VM, event type) over
	// the immutable routing table, so snapshots derive it from the table
	// instead of paying a per-event store. It equals the record-time mask
	// unless subscriptions changed between record and snapshot.
	Sync uint64
	// Queued is the actor bitmask that got a queued async copy.
	Queued uint64
	// Dropped is the actor bitmask whose async ring was full.
	Dropped uint64
	// Type is the event's semantic class.
	Type EventType
	// VCPU is the producing virtual CPU.
	VCPU uint8
	// Reason is the raw VM Exit class (hav.ExitReason; 0 when synthetic).
	Reason uint8
}

// SpanRecord is one step of a span's journey: phase p reached at TimeNS by
// actor Actor (0 is the system/EM itself) on VM vm.
type SpanRecord struct {
	Span   SpanID
	TimeNS int64
	VM     VMID
	Phase  FlightPhase
	Actor  uint8
}

// GuestDigest fingerprints the architectural state the paper treats as the
// root of trust: a cheap mix of RIP, RSP, CR3 and TR. It is a corruption
// tripwire for replay comparison, not a cryptographic hash — the point is
// that two runs of the same seed produce identical digests.
//
//hypertap:hotpath
func GuestDigest(r *arch.RegisterFile) uint64 {
	// Balanced xor tree: the mix runs in two dependent steps instead of a
	// four-deep chain, so it overlaps with the surrounding slot stores.
	a := uint64(r.RIP) ^ bits.RotateLeft64(uint64(r.RSP), 13)
	b := bits.RotateLeft64(uint64(r.CR3), 29) ^ bits.RotateLeft64(uint64(r.TR), 43)
	return a ^ b ^ uint64(r.CPL)<<7
}

// DefaultFlightDepth is the per-VM exit-ring depth when a caller passes 0.
const DefaultFlightDepth = 1024

// flightSlot is the packed hot-path form of a FlightExit: 48 bytes. It
// carries only the dynamic per-event facts — the sync mask is reconstructed
// from the routing table at snapshot time (exitsOf), and vm is stored so
// that reconstruction keys on the event's true VM even in the shared
// overflow ring.
type flightSlot struct {
	span    SpanID
	timeNS  int64
	digest  uint64
	queued  uint64
	dropped uint64
	// meta packs type | vcpu<<8 | reason<<16 | vm<<32: one word store beats
	// four narrow stores into the same slot region.
	meta uint64
	// pad aligns slots to the cache line so no record write straddles two
	// lines (a measurably slower store pattern).
	pad [2]uint64
}

// exitRing is one VM's flight ring. Single writer (Publish, under the EM
// lock), so the writer index is a plain counter; readers copy slots under
// the same lock.
type exitRing struct {
	slots []flightSlot
	mask  uint64
	w     uint64
}

// spanRing is the shared span buffer. Like the exit rings it has exactly one
// writer at a time — RecordSpan runs under the EM lock — so slots are plain
// records and the writer index a plain counter.
type spanRing struct {
	slots []SpanRecord
	mask  uint64
	w     uint64
}

// FlightTable is the hot half of the tracing plane: the per-VM exit rings
// plus the shared span ring, preallocated once and attached to a Multiplexer
// with SetFlight. The cold half — serialization, incident bundles, export —
// lives in internal/flight.
type FlightTable struct {
	// armed gates recording; the one atomic a slot write pays.
	armed atomic.Bool
	// rings holds one exit ring per resident VM plus a final overflow ring
	// for events stamped with a VMID outside the resident range.
	rings []exitRing
	spans spanRing
	// base is the first resident VMID: a cluster host owning the ID range
	// [base, base+VMRings()) keeps its rings contiguous, so the hot-path
	// mapping stays one subtract and one compare. Zero (the default) is the
	// pre-cluster dense layout unchanged.
	base VMID
}

// ceilPow2 rounds n up to a power of two (minimum 1).
func ceilPow2(n int) uint64 {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(n-1))
}

// NewFlightTable preallocates rings for numVMs VMs (plus the overflow ring)
// of depth exits each, and a span ring of spanDepth records. Depths round up
// to powers of two; zero selects DefaultFlightDepth (and 4× that for spans).
// The table starts armed.
func NewFlightTable(numVMs, depth, spanDepth int) *FlightTable {
	if numVMs < 1 {
		numVMs = 1
	}
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	if spanDepth <= 0 {
		spanDepth = 4 * depth
	}
	d := ceilPow2(depth)
	sd := ceilPow2(spanDepth)
	t := &FlightTable{rings: make([]exitRing, numVMs+1)}
	for i := range t.rings {
		t.rings[i].slots = make([]flightSlot, d)
		t.rings[i].mask = d - 1
	}
	t.spans.slots = make([]SpanRecord, sd)
	t.spans.mask = sd - 1
	t.armed.Store(true)
	return t
}

// Arm (re-)enables recording.
func (t *FlightTable) Arm() { t.armed.Store(true) }

// Disarm stops recording; rings keep their contents.
func (t *FlightTable) Disarm() { t.armed.Store(false) }

// Armed reports whether the table is recording.
func (t *FlightTable) Armed() bool { return t.armed.Load() }

// VMRings returns the number of dedicated per-VM rings (the overflow ring is
// extra).
func (t *FlightTable) VMRings() int { return len(t.rings) - 1 }

// Depth returns the per-VM exit-ring capacity.
func (t *FlightTable) Depth() int { return len(t.rings[0].slots) }

// SpanDepth returns the span-ring capacity.
func (t *FlightTable) SpanDepth() int { return len(t.spans.slots) }

// SetVMBase declares the first resident VMID: a cluster host whose VMs carry
// IDs [base, base+n) calls this once at wiring time so its n rings map
// contiguously. Not synchronized — set before traffic starts, like the
// ring allocation itself.
func (t *FlightTable) SetVMBase(base VMID) { t.base = base }

// MappedVMs lists every VMID with a dedicated ring — the resident range in
// ID order, the iteration incident bundles use so ring files keep VMID
// identity under sparse IDs.
func (t *FlightTable) MappedVMs() []VMID {
	out := make([]VMID, t.VMRings())
	for i := range out {
		out[i] = t.base + VMID(i)
	}
	return out
}

// ringIndex maps a VMID to its ring: the resident range maps contiguously
// (one subtract, one compare — the hot-path cost of sparse cluster IDs), and
// everything else lands in overflow.
//
//hypertap:hotpath
func (t *FlightTable) ringIndex(vm VMID) int {
	overflow := len(t.rings) - 1
	if idx := int(vm) - int(t.base); idx >= 0 && idx < overflow {
		return idx
	}
	return overflow
}

// recordExit writes one flight record. Publish calls it with the EM lock
// held — the exit rings' single-writer contract — so every store below is a
// plain store; the armed gate is the record's one atomic. The record doubles
// as the span's decode step (same SpanID, timestamp and VM), so the span
// ring is not touched here, and the sync mask is not stored either — both
// would be per-event stores for information that is already held (by the
// exit ring) or derivable (from the routing table). Six word stores is the
// floor the dynamic per-event information sets.
//
//hypertap:hotpath
func (t *FlightTable) recordExit(ev *Event, queuedBits, droppedBits uint64) {
	if !t.armed.Load() {
		return
	}
	r := &t.rings[t.ringIndex(ev.VM)]
	slot := &r.slots[r.w&r.mask]
	r.w++
	slot.span = ev.Span
	slot.timeNS = int64(ev.Time)
	slot.digest = GuestDigest(&ev.Regs)
	slot.queued = queuedBits
	slot.dropped = droppedBits
	slot.meta = uint64(ev.Type) | uint64(uint8(ev.VCPU))<<8 |
		uint64(uint8(ev.ExitReason))<<16 | uint64(ev.VM)<<32
}

// RecordSpan appends one span step. Nil-safe (a disabled tracing plane
// records nothing), but NOT self-synchronizing: the span ring is
// single-writer, so callers must hold the owning Multiplexer's lock — the
// EM records the per-event phases itself, and everything else goes through
// Multiplexer.RecordSpan.
//
//hypertap:hotpath
func (t *FlightTable) RecordSpan(span SpanID, vm VMID, phase FlightPhase, actor uint8, at time.Duration) {
	if t == nil || !t.armed.Load() {
		return
	}
	s := &t.spans.slots[t.spans.w&t.spans.mask]
	t.spans.w++
	s.Span = span
	s.TimeNS = int64(at)
	s.VM = vm
	s.Phase = phase
	s.Actor = actor
}

// exitsOf copies ring ri oldest-first, expanding the packed slots into full
// records. syncFor resolves the derived sync mask for a (VM, event type)
// pair from the routing table. Callers synchronize with the writer (the
// Multiplexer wraps this under its lock).
func (t *FlightTable) exitsOf(ri int, syncFor func(vm VMID, et EventType) uint64) []FlightExit {
	r := &t.rings[ri]
	n := r.w
	depth := uint64(len(r.slots))
	if n > depth {
		n = depth
	}
	out := make([]FlightExit, n)
	start := r.w - n
	for i := uint64(0); i < n; i++ {
		s := &r.slots[(start+i)&r.mask]
		vm := VMID(s.meta >> 32)
		et := EventType(s.meta)
		out[i] = FlightExit{
			Span:    s.span,
			TimeNS:  s.timeNS,
			Digest:  s.digest,
			Sync:    syncFor(vm, et),
			Queued:  s.queued,
			Dropped: s.dropped,
			Type:    et,
			VCPU:    uint8(s.meta >> 8),
			Reason:  uint8(s.meta >> 16),
		}
	}
	return out
}

// writtenOf returns the total records ever written to ring ri.
func (t *FlightTable) writtenOf(ri int) uint64 { return t.rings[ri].w }

// Spans snapshots the span ring oldest-first, skipping span-less steps
// (events published without a forwarder-minted identity). Callers
// synchronize with the writer the same way exit snapshots do — through the
// owning Multiplexer (FlightSpans) or by otherwise serializing with it.
func (t *FlightTable) Spans() []SpanRecord {
	n := t.spans.w
	depth := uint64(len(t.spans.slots))
	if n > depth {
		n = depth
	}
	out := make([]SpanRecord, 0, n)
	start := t.spans.w - n
	for i := uint64(0); i < n; i++ {
		s := &t.spans.slots[(start+i)&t.spans.mask]
		if s.Span == 0 {
			continue
		}
		out = append(out, *s)
	}
	return out
}
