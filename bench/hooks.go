package main

import (
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
)

// The benchmark's hooks into the program. They use only its extension
// interfaces — core.ExitStreamTap, core.Auditor / BatchAuditor / VMScoped
// and core.GuestView — so the program is measured without changing it.
//
// Exit→audit lag is sampled on one event in 256, chosen by SpanID: the exit
// tap stamps a sampled event after EF decode and before publish, and the
// auditor wrappers stamp the end of each call that receives it; the lag is
// the gap to the last one.

// sampled selects one SpanID in 256 (Fibonacci hashing, so the choice does
// not alias with the ID's VM/sequence/index fields).
func sampled(span core.SpanID) bool {
	return uint64(span)*0x9E3779B97F4A7C15>>56 == 0
}

type audience struct {
	mask  core.EventMask
	scope core.VMScope
}

type lagPending struct {
	start int64
	left  int
}

// lagMeter pairs tap stamps with auditor completions. Like the tracer it is
// owned by one goroutine.
type lagMeter struct {
	auditors []audience
	pending  map[core.SpanID]lagPending
	// samples holds completed lags in µs.
	samples []float64
}

func newLagMeter() *lagMeter {
	return &lagMeter{pending: make(map[core.SpanID]lagPending)}
}

// rewire starts a new wiring: the audience of an EM about to get its
// auditors, with no events in flight.
func (l *lagMeter) rewire() {
	l.auditors = l.auditors[:0]
	clear(l.pending)
}

// recipients counts the hooked auditors an event is routed to.
func (l *lagMeter) recipients(ev *core.Event) int {
	n := 0
	for _, a := range l.auditors {
		if a.mask.Has(ev.Type) && (a.scope.Fleet() || a.scope.VM() == ev.VM) {
			n++
		}
	}
	return n
}

func (l *lagMeter) start(ev *core.Event, now int64) {
	if n := l.recipients(ev); n > 0 {
		l.pending[ev.Span] = lagPending{start: now, left: n}
	}
}

func (l *lagMeter) done(span core.SpanID, now int64) {
	p, ok := l.pending[span]
	if !ok {
		return
	}
	if p.left--; p.left > 0 {
		l.pending[span] = p
		return
	}
	delete(l.pending, span)
	l.samples = append(l.samples, float64(now-p.start)/1e3)
}

// hooks is the per-goroutine instrumentation state shared by one wiring's
// tap, auditor wrappers and views. tr is nil outside traced rounds.
type hooks struct {
	lag *lagMeter
	tr  *tracer
	// tapped counts TapEvent calls.
	tapped uint64
}

func newHooks() *hooks { return &hooks{lag: newLagMeter()} }

// lagTap is the forwarding exit tap: it stamps sampled events and passes
// every call on to inner (the capture recorder, or nil).
type lagTap struct {
	inner core.ExitStreamTap
	hk    *hooks
}

func (t *lagTap) TapEvent(ev *core.Event) {
	t.hk.tapped++
	if sampled(ev.Span) {
		t.hk.lag.start(ev, nanotime())
	}
	if t.inner == nil {
		return
	}
	if tr := t.hk.tr; tr != nil {
		tr.begin(spTap)
		t.inner.TapEvent(ev)
		tr.end()
		return
	}
	t.inner.TapEvent(ev)
}

func (t *lagTap) TapTick(vm core.VMID, now time.Duration) {
	if t.inner == nil {
		return
	}
	if tr := t.hk.tr; tr != nil {
		tr.begin(spTap)
		t.inner.TapTick(vm, now)
		tr.end()
		return
	}
	t.inner.TapTick(vm, now)
}

func (t *lagTap) TapBarrier(now time.Duration) {
	if t.inner != nil {
		t.inner.TapBarrier(now)
	}
}

// hookedAuditor forwards Name, Mask, VMScope and HandleEvent to the wrapped
// auditor, timing the call in traced rounds and completing lag samples.
type hookedAuditor struct {
	inner core.Auditor
	scope core.VMScope
	kind  spanKind
	hk    *hooks
}

func (a *hookedAuditor) Name() string          { return a.inner.Name() }
func (a *hookedAuditor) Mask() core.EventMask  { return a.inner.Mask() }
func (a *hookedAuditor) VMScope() core.VMScope { return a.scope }

func (a *hookedAuditor) HandleEvent(ev *core.Event) {
	tr := a.hk.tr
	if tr != nil {
		tr.begin(a.kind)
	}
	a.inner.HandleEvent(ev)
	var now int64
	if tr != nil {
		now = tr.end()
	}
	if sampled(ev.Span) {
		if now == 0 {
			now = nanotime()
		}
		a.hk.lag.done(ev.Span, now)
	}
}

// hookedBatchAuditor additionally forwards HandleBatch, so the EM keeps its
// batched delivery path for auditors that have one.
type hookedBatchAuditor struct {
	hookedAuditor
	batch core.BatchAuditor
}

func (a *hookedBatchAuditor) HandleBatch(evs []core.Event) {
	tr := a.hk.tr
	if tr != nil {
		tr.begin(a.kind)
	}
	a.batch.HandleBatch(evs)
	var now int64
	if tr != nil {
		now = tr.end()
	}
	for i := range evs {
		if sampled(evs[i].Span) {
			if now == 0 {
				now = nanotime()
			}
			a.hk.lag.done(evs[i].Span, now)
		}
	}
}

// register subscribes a on em under scope, wrapped when hk is non-nil.
func register(em *core.Multiplexer, a core.Auditor, scope core.VMScope, mode core.DeliveryMode, queueCap int, hk *hooks) error {
	if hk != nil {
		hk.lag.auditors = append(hk.lag.auditors, audience{mask: a.Mask(), scope: scope})
		h := hookedAuditor{inner: a, scope: scope, kind: auditorKinds[a.Name()], hk: hk}
		if b, ok := a.(core.BatchAuditor); ok {
			a = &hookedBatchAuditor{hookedAuditor: h, batch: b}
		} else {
			a = &h
		}
	}
	return em.RegisterScoped(a, scope, mode, queueCap)
}

// timedView times every guest read an auditor makes while a tracer is on.
type timedView struct {
	v  core.GuestView
	hk *hooks
}

// view returns the GuestView auditors should read through: v itself, or a
// timing wrapper when the wiring is for a traced round. A wiring that
// outlives one round (the fleet's) passes always to time later rounds.
func view(v core.GuestView, hk *hooks, always bool) core.GuestView {
	if hk == nil || hk.tr == nil && !always {
		return v
	}
	return &timedView{v: v, hk: hk}
}

func (t *timedView) begin() *tracer {
	tr := t.hk.tr
	if tr != nil {
		tr.begin(spView)
	}
	return tr
}

func (t *timedView) NumVCPUs() int { return t.v.NumVCPUs() }

func (t *timedView) Regs(vcpu int) arch.RegisterFile {
	tr := t.begin()
	r := t.v.Regs(vcpu)
	if tr != nil {
		tr.end()
	}
	return r
}

func (t *timedView) ReadGPA(gpa arch.GPA, buf []byte) error {
	tr := t.begin()
	err := t.v.ReadGPA(gpa, buf)
	if tr != nil {
		tr.end()
	}
	return err
}

func (t *timedView) ReadU64GPA(gpa arch.GPA) (uint64, error) {
	tr := t.begin()
	v, err := t.v.ReadU64GPA(gpa)
	if tr != nil {
		tr.end()
	}
	return v, err
}

func (t *timedView) ReadU32GPA(gpa arch.GPA) (uint32, error) {
	tr := t.begin()
	v, err := t.v.ReadU32GPA(gpa)
	if tr != nil {
		tr.end()
	}
	return v, err
}

func (t *timedView) TranslateGVA(cr3 arch.GPA, gva arch.GVA) (arch.GPA, bool) {
	tr := t.begin()
	pa, ok := t.v.TranslateGVA(cr3, gva)
	if tr != nil {
		tr.end()
	}
	return pa, ok
}

func (t *timedView) ReadU64GVA(cr3 arch.GPA, gva arch.GVA) (uint64, error) {
	tr := t.begin()
	v, err := t.v.ReadU64GVA(cr3, gva)
	if tr != nil {
		tr.end()
	}
	return v, err
}

func (t *timedView) ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error) {
	tr := t.begin()
	v, err := t.v.ReadU32GVA(cr3, gva)
	if tr != nil {
		tr.end()
	}
	return v, err
}

func (t *timedView) ReadCStringGVA(cr3 arch.GPA, gva arch.GVA, max int) (string, error) {
	tr := t.begin()
	s, err := t.v.ReadCStringGVA(cr3, gva, max)
	if tr != nil {
		tr.end()
	}
	return s, err
}

func (t *timedView) Now() time.Duration { return t.v.Now() }
func (t *timedView) PauseVM()           { t.v.PauseVM() }
func (t *timedView) ResumeVM()          { t.v.ResumeVM() }
func (t *timedView) Paused() bool       { return t.v.Paused() }
