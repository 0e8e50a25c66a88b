package flight

import (
	"encoding/json"
	"fmt"
	"io"

	"hypertap/internal/core"
)

// Chrome trace-event export: a bundle — loaded from disk or a live
// Snapshot — or a replayed event stream becomes a JSON document the Perfetto
// UI (ui.perfetto.dev) and Chrome's about:tracing open directly. The layout
// is one process ("hypertap") with one track per VM carrying the exit
// slices and the heartbeat and incident markers, plus one track per auditor
// carrying its verdict markers; flow arrows connect each exit record (the
// span's decode step) to the later steps that share its SpanID. Each exit
// slice names the async auditors it was queued for.

// chromeEvent is one entry of the trace-event JSON array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level trace container.
type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// Track numbering: tid 0 is reserved, VMs occupy 1..65536 (a VMID is 16
// bits), and auditors start past them at 65537+actor, so no VM shares an
// auditor's track. All under one pid.
const (
	chromePID     = 1
	vmTIDBase     = 1
	auditorTIDOff = 1<<16 + 1
)

func vmTID(vm core.VMID) int { return vmTIDBase + int(vm) }

// usToTS converts virtual nanoseconds to the trace-event microsecond scale.
func usToTS(ns int64) float64 { return float64(ns) / 1e3 }

// builder accumulates trace events and the set of tracks needing names.
type builder struct {
	events []chromeEvent
	// vmNames labels VM tracks by VMID; a VM it does not name falls back to
	// "vmN".
	vmNames  []string
	actors   []string
	flowSeen map[core.SpanID]bool
}

func (b *builder) vmName(vm core.VMID) string {
	if int(vm) < len(b.vmNames) {
		return b.vmNames[vm]
	}
	return fmt.Sprintf("vm%d", vm)
}

func (b *builder) actorName(a uint8) string {
	if int(a) < len(b.actors) {
		return b.actors[a]
	}
	return fmt.Sprintf("actor%d", a)
}

// actorMaskNames renders an actor bitmask as the subscriber names it covers.
func (b *builder) actorMaskNames(mask uint64) []string {
	if mask == 0 {
		return nil
	}
	var out []string
	for i := 0; i < 64; i++ {
		if mask&(1<<i) != 0 {
			out = append(out, b.actorName(uint8(i)))
		}
	}
	return out
}

// meta emits a thread_name metadata record.
func (b *builder) meta(tid int, name string) {
	b.events = append(b.events, chromeEvent{
		Name: "thread_name", Phase: "M", PID: chromePID, TID: tid,
		Args: map[string]any{"name": name},
	})
}

// exit emits one of VM vm's flight records as a 1µs slice on its track.
func (b *builder) exit(vm core.VMID, r *core.FlightExit) {
	tid := vmTID(vm)
	args := map[string]any{
		"span":   fmt.Sprintf("%#x", uint64(r.Span)),
		"digest": fmt.Sprintf("%#x", r.Digest),
		"vcpu":   r.VCPU,
	}
	if r.Reason != 0 {
		args["exit_reason"] = r.Reason
	}
	if names := b.actorMaskNames(r.Sync); names != nil {
		args["sync"] = names
	}
	if names := b.actorMaskNames(r.Queued); names != nil {
		args["queued"] = names
	}
	if names := b.actorMaskNames(r.Dropped); names != nil {
		args["dropped"] = names
	}
	b.events = append(b.events, chromeEvent{
		Name: r.Type.String(), Phase: "X", Cat: "exit",
		TS: usToTS(r.TimeNS), Dur: 1,
		PID: chromePID, TID: tid, Args: args,
	})
	// The exit record IS the span's decode step (the span ring doesn't
	// duplicate it), so the first exit carrying a span starts its flow arrow.
	if r.Span != 0 && !b.flowSeen[r.Span] {
		b.flowSeen[r.Span] = true
		b.events = append(b.events, chromeEvent{
			Name: "span", Phase: "s", Cat: "span",
			ID: fmt.Sprintf("%#x", uint64(r.Span)),
			TS: usToTS(r.TimeNS), PID: chromePID, TID: tid,
		})
	}
}

// span emits one span record: an instant marker on the owning track plus a
// flow arrow stitching the record to the span's earlier steps.
func (b *builder) span(r *core.SpanRecord) {
	tid := vmTID(r.VM)
	if r.Phase == core.PhaseVerdict {
		tid = auditorTIDOff + int(r.Actor)
	}
	id := fmt.Sprintf("%#x", uint64(r.Span))
	b.events = append(b.events, chromeEvent{
		Name: r.Phase.String(), Phase: "i", Cat: "span", Scope: "t",
		TS: usToTS(r.TimeNS), PID: chromePID, TID: tid,
		Args: map[string]any{"span": id, "actor": b.actorName(r.Actor)},
	})
	// Flow: the first sighting of a span starts the arrow, later ones extend
	// it. Exit records emit first and anchor the start at the decode step when
	// the exit is still in its ring; otherwise the oldest surviving span
	// record starts it.
	flow := chromeEvent{Name: "span", Phase: "t", Cat: "span", ID: id,
		TS: usToTS(r.TimeNS), PID: chromePID, TID: tid}
	if !b.flowSeen[r.Span] {
		b.flowSeen[r.Span] = true
		flow.Phase = "s"
	}
	b.events = append(b.events, flow)
}

func (b *builder) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&chromeDoc{TraceEvents: b.events})
}

// WriteChrome renders an incident bundle as Chrome trace-event JSON.
func WriteChrome(w io.Writer, b *Bundle) error {
	bld := &builder{
		vmNames:  b.Meta.VMNames,
		actors:   b.Meta.Actors,
		flowSeen: make(map[core.SpanID]bool),
	}
	bld.meta(0, "process_name")
	for i := range b.Exits {
		bld.meta(vmTID(core.VMID(i)), bld.vmName(core.VMID(i)))
	}
	for a, name := range bld.actors {
		bld.meta(auditorTIDOff+a, name)
	}
	for i := range b.Exits {
		for j := range b.Exits[i] {
			bld.exit(core.VMID(i), &b.Exits[i][j])
		}
	}
	for i := range b.Spans {
		bld.span(&b.Spans[i])
	}
	return bld.write(w)
}

// ChromeFromEvents renders a decoded exit stream (the events of a .htcs
// capture, as hypertap-capture info -chrome-trace reads them) as Chrome
// trace-event JSON: one slice per event on its VM's track. vmNames labels
// the tracks by VMID, in capture-header order; a VM it does not name is
// labeled "vmN".
func ChromeFromEvents(w io.Writer, events []core.Event, vmNames []string) error {
	bld := &builder{vmNames: vmNames, flowSeen: make(map[core.SpanID]bool)}
	seen := make(map[core.VMID]bool)
	for i := range events {
		if vm := events[i].VM; !seen[vm] {
			seen[vm] = true
			bld.meta(vmTID(vm), bld.vmName(vm))
		}
	}
	for i := range events {
		ev := &events[i]
		args := map[string]any{"seq": ev.Seq, "vcpu": ev.VCPU}
		if ev.Span != 0 {
			args["span"] = fmt.Sprintf("%#x", uint64(ev.Span))
		}
		bld.events = append(bld.events, chromeEvent{
			Name: ev.Type.String(), Phase: "X", Cat: "event",
			TS: usToTS(int64(ev.Time)), Dur: 1,
			PID: chromePID, TID: vmTID(ev.VM), Args: args,
		})
	}
	return bld.write(w)
}
