package core

// The flight recorder: a pre-allocated, per-VM ring buffer that continuously
// captures the last N published events in a compact fixed-size record, plus a
// shared span ring for the cold steps of an exit's journey — verdicts,
// heartbeats and incident capture — tied to the exit under one causal SpanID.
//
// The design constraint is the same one the paper's overhead numbers rest on
// (DESIGN.md §8): recording must be cheap enough to stay enabled during
// benchmarks. The exit rings therefore have exactly one writer — Publish,
// already serialized by the EM lock — so slot writes are plain stores with no
// per-record synchronization at all. Readers snapshot rings under the same
// EM lock (Multiplexer.FlightExits), so the race detector proves the
// discipline.
// Per-auditor fan-out is not recorded per handle: each exit record stores
// the two async actor bitmasks (queued/dropped) the Publish loop already
// assembles in registers, and the synchronous set — a pure function of
// (VM, event type) over the immutable routing table — is derived again at
// snapshot time, so the full fan-out reconstructs offline and Publish keeps
// 0 allocs/op.
//
// Each flight fact is recorded once. The exit record already carries the
// SpanID, timestamp and VM, so it IS the decode step, and its queued mask
// names every async auditor the event was handed to, so neither step is
// copied into the span ring. The span ring holds only the steps no exit
// record knows: heartbeats, recorded by the Multiplexer with its lock held
// once per sampled event, and verdicts and incidents, which enter through
// Multiplexer.RecordSpan, which takes the lock. Slot writes are therefore
// plain stores.

import (
	"math/bits"
	"slices"
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

// Flight phases. They start at 3 so older span files decode the same:
// values 1 and 2 were the decode and drain steps, which the exit record
// carries.
const (
	// PhaseVerdict marks an auditor raising a detection for the event.
	PhaseVerdict FlightPhase = iota + 3
	// PhaseHeartbeat marks the sampled event feeding an RHC heartbeat.
	PhaseHeartbeat
	// PhaseIncident marks incident-bundle capture referencing the event.
	PhaseIncident
)

var flightPhaseNames = [...]string{
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
// from the routing table at snapshot time (exitsOf), keyed on the vm stored
// in meta.
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
	// rings holds one exit ring per VM: ring i is VMID i. The owning
	// Multiplexer grows it under its lock (grow), so it always covers every
	// attached VM, and only readers holding that lock touch it.
	rings []exitRing
	// depth is every exit ring's capacity, fixed at construction.
	depth uint64
	spans spanRing
}

// ceilPow2 rounds n up to a power of two (minimum 1).
func ceilPow2(n int) uint64 {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(n-1))
}

// NewFlightTable preallocates rings for numVMs VMs (at least one) of depth
// exits each, and a span ring of spanDepth records. numVMs is only a
// pre-size: SetFlight and AttachVM grow the table to one ring per attached
// VM. Depths round up to powers of two; zero selects DefaultFlightDepth (and
// 4× that for spans).
func NewFlightTable(numVMs, depth, spanDepth int) *FlightTable {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	if spanDepth <= 0 {
		spanDepth = 4 * depth
	}
	sd := ceilPow2(spanDepth)
	t := &FlightTable{depth: ceilPow2(depth)}
	t.grow(numVMs)
	t.spans.slots = make([]SpanRecord, sd)
	t.spans.mask = sd - 1
	return t
}

// grow extends the table to at least n rings (and at least one). Callers
// hold the owning Multiplexer's lock, like every other ring access.
func (t *FlightTable) grow(n int) {
	n = max(n, 1)
	if n <= len(t.rings) {
		return
	}
	t.rings = slices.Grow(t.rings, n-len(t.rings))
	for len(t.rings) < n {
		t.rings = append(t.rings, exitRing{slots: make([]flightSlot, t.depth), mask: t.depth - 1})
	}
}

// recordExit writes one flight record. Publish calls it with the EM lock
// held — the exit rings' single-writer contract — so every store below is a
// plain store. The record doubles as the span's decode step (same SpanID,
// timestamp and VM), so the span ring is not touched here, and the sync
// mask is not stored either — both would be per-event stores for
// information that is already held (by the exit ring) or derivable (from
// the routing table). Six word stores is the floor the dynamic per-event
// information sets.
func (t *FlightTable) recordExit(ev *Event, queuedBits, droppedBits uint64) {
	r := &t.rings[ev.VM]
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
// EM records heartbeat steps itself, and everything else goes through
// Multiplexer.RecordSpan.
func (t *FlightTable) RecordSpan(span SpanID, vm VMID, phase FlightPhase, actor uint8, at time.Duration) {
	if t == nil {
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

// exitsOf copies VM vm's ring oldest-first, expanding the packed slots into
// full records. syncFor resolves the derived sync mask for a (VM, event
// type) pair from the routing table. Callers synchronize with the writer
// (the Multiplexer wraps this under its lock).
func (t *FlightTable) exitsOf(vm VMID, syncFor func(vm VMID, et EventType) uint64) []FlightExit {
	r := &t.rings[vm]
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
