package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"hypertap/internal/telemetry"
)

// Async rings grow with their traffic instead of being allocated at their
// cap. These tests pin that growth is invisible: an EM whose rings grow
// behaves exactly like one whose rings are allocated at the cap up front,
// and like a plain FIFO model of the queues.

// ringSub is one async subscriber of the growth rigs.
type ringSub struct {
	name  string
	cap   int // 0 means DefaultQueueCap
	scope VMScope
	batch bool
}

var ringSubs = []ringSub{
	{name: "small", cap: 8, scope: ScopeFleet()},
	{name: "edge", cap: 16, scope: ScopeVM(0), batch: true},
	{name: "odd", cap: 100, scope: ScopeFleet(), batch: true},
	{name: "mid", cap: 300, scope: ScopeFleet()},
	{name: "default", cap: 0, scope: ScopeVM(1)},
	{name: "wide", cap: 1 << 13, scope: ScopeFleet(), batch: true},
}

// ringRig is an EM with two VMs, a flight recorder, telemetry and the
// ringSubs, recording each auditor's delivered Seq sequence.
type ringRig struct {
	em  *Multiplexer
	reg *telemetry.Registry
	got map[string]*[]uint64
}

// seqAuditor records delivered Seqs; seqBatchAuditor adds HandleBatch.
type seqAuditor struct {
	name string
	got  *[]uint64
}

func (a *seqAuditor) Name() string          { return a.name }
func (a *seqAuditor) Mask() EventMask       { return MaskAll }
func (a *seqAuditor) HandleEvent(ev *Event) { *a.got = append(*a.got, ev.Seq) }

type seqBatchAuditor struct{ seqAuditor }

func (a *seqBatchAuditor) HandleBatch(evs []Event) {
	for i := range evs {
		*a.got = append(*a.got, evs[i].Seq)
	}
}

// newRingRig builds a rig; with prealloc, every async ring is replaced by
// one of its full cap, the layout before rings grew.
func newRingRig(t *testing.T, prealloc bool) *ringRig {
	t.Helper()
	r := &ringRig{em: NewMultiplexer(), reg: telemetry.NewRegistry(), got: make(map[string]*[]uint64)}
	for i := 0; i < 2; i++ {
		if _, err := r.em.AttachVM(fmt.Sprintf("vm-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	r.em.SetFlight(NewFlightTable(2, 64, 512))
	r.em.EnableTelemetry(r.reg)
	for _, rs := range ringSubs {
		got := new([]uint64)
		r.got[rs.name] = got
		var a Auditor = &seqAuditor{name: rs.name, got: got}
		if rs.batch {
			a = &seqBatchAuditor{seqAuditor{name: rs.name, got: got}}
		}
		if err := r.em.RegisterScoped(a, rs.scope, DeliverAsync, rs.cap); err != nil {
			t.Fatal(err)
		}
	}
	if prealloc {
		r.em.mu.Lock()
		for _, s := range r.em.subs {
			s.ring = make([]Event, s.queueCap)
		}
		r.em.mu.Unlock()
	}
	return r
}

// gauges reads the depth and high-water gauges.
func (r *ringRig) gauges() [2]float64 {
	var g [2]float64
	for _, x := range r.reg.Snapshot().Gauges {
		switch x.Name {
		case "hypertap_async_queue_depth":
			g[0] = x.Value
		case "hypertap_async_queue_highwater":
			g[1] = x.Value
		}
	}
	return g
}

// ringModel is the reference: per subscriber, a FIFO of Seqs that drops
// an event when it holds cap of them.
type ringModel struct {
	queue     [][]uint64
	delivered [][]uint64
	dropped   []uint64
	peak      []int
}

func newRingModel() *ringModel {
	n := len(ringSubs)
	return &ringModel{queue: make([][]uint64, n), delivered: make([][]uint64, n),
		dropped: make([]uint64, n), peak: make([]int, n)}
}

func (m *ringModel) publish(ev *Event) {
	for i, rs := range ringSubs {
		if !rs.scope.fleet && rs.scope.vm != ev.VM {
			continue
		}
		c := rs.cap
		if c == 0 {
			c = DefaultQueueCap
		}
		if len(m.queue[i]) == c {
			m.dropped[i]++
			continue
		}
		m.queue[i] = append(m.queue[i], ev.Seq)
		m.peak[i] = max(m.peak[i], len(m.queue[i]))
	}
}

func (m *ringModel) dispatch(max int) {
	for i := range m.queue {
		k := len(m.queue[i])
		if max > 0 && k > max {
			k = max
		}
		m.delivered[i] = append(m.delivered[i], m.queue[i][:k]...)
		m.queue[i] = m.queue[i][k:]
	}
}

// TestRingGrowthMatchesPreallocated drives one publish/drain schedule —
// bursts that cross every doubling and every cap, bounded and full drains,
// and stretches with no drain at all — through an EM whose rings grow, an
// EM whose rings are allocated at the cap, and the FIFO model. Delivered
// sequences, drops and stats, depth gauges after every step, and the
// flight exit and span rings must agree, and no ring may outgrow
// max(initialRing, 2 × its peak depth) or its cap.
func TestRingGrowthMatchesPreallocated(t *testing.T) {
	grown := newRingRig(t, false)
	pre := newRingRig(t, true)
	model := newRingModel()
	rng := rand.New(rand.NewSource(30))
	bursts := []int{1, 5, 15, 16, 17, 31, 33, 63, 65, 99, 101, 129, 257, 299, 301, 600, 1500, 5000, 9000}
	drains := []int{-1, -1, 0, 0, 1, 7, 16, 50}
	var seq uint64
	for step := 0; step < 120; step++ {
		n := bursts[rng.Intn(len(bursts))]
		for n > 0 {
			b := min(n, 1+rng.Intn(12))
			batch := make([]Event, b)
			for i := range batch {
				seq++
				batch[i] = Event{Type: EvSyscall, VM: VMID(rng.Intn(2)), Seq: seq, Span: MintSpan(0, seq, 0)}
				model.publish(&batch[i])
			}
			grown.em.PublishBatch(batch)
			pre.em.PublishBatch(batch)
			n -= b
		}
		if d := drains[rng.Intn(len(drains))]; d >= 0 {
			grown.em.Dispatch(d)
			pre.em.Dispatch(d)
			model.dispatch(d)
		}
		if a, b := grown.gauges(), pre.gauges(); a != b {
			t.Fatalf("step %d: depth/high-water gauges %v, preallocated %v", step, a, b)
		}
		grown.em.mu.Lock()
		for i, s := range grown.em.subs {
			if l, bound := len(s.ring), max(initialRing, 2*model.peak[i]); l > bound || l > s.queueCap {
				grown.em.mu.Unlock()
				t.Fatalf("step %d: %s ring has %d slots, peak depth %d, cap %d", step, s.auditor.Name(), l, model.peak[i], s.queueCap)
			}
		}
		grown.em.mu.Unlock()
	}
	grown.em.Dispatch(0)
	pre.em.Dispatch(0)
	model.dispatch(0)

	if a, b := grown.em.Stats(), pre.em.Stats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("stats diverge:\ngrown %+v\npre   %+v", a, b)
	}
	for i, st := range grown.em.Stats() {
		rs := ringSubs[i]
		if st.Dropped != model.dropped[i] || st.Delivered != uint64(len(model.delivered[i])) {
			t.Fatalf("%s: dropped %d delivered %d, model %d and %d", rs.name, st.Dropped, st.Delivered, model.dropped[i], len(model.delivered[i]))
		}
		if got := *grown.got[rs.name]; !reflect.DeepEqual(got, model.delivered[i]) {
			t.Fatalf("%s: delivered sequence diverges from the model (%d vs %d events)", rs.name, len(got), len(model.delivered[i]))
		}
		if !reflect.DeepEqual(*grown.got[rs.name], *pre.got[rs.name]) {
			t.Fatalf("%s: delivered sequence diverges from the preallocated EM", rs.name)
		}
		if model.dropped[i] == 0 && rs.cap != 0 {
			t.Errorf("%s: the schedule never filled its cap of %d", rs.name, rs.cap)
		}
	}
	for vm := VMID(0); vm < 2; vm++ {
		if !reflect.DeepEqual(grown.em.FlightExits(vm), pre.em.FlightExits(vm)) {
			t.Fatalf("vm %d: flight exit rings diverge", vm)
		}
	}
	if !reflect.DeepEqual(grown.em.FlightSpans(), pre.em.FlightSpans()) {
		t.Fatal("flight span rings (drain steps) diverge")
	}
}

// growingAuditor is a BatchAuditor whose first call after arming parks
// until released, so a publisher can grow the ring under the outstanding
// claim.
type growingAuditor struct {
	armed   atomic.Bool
	inClaim chan []Event
	release chan struct{}
	got     []uint64
	claims  []int
}

func (a *growingAuditor) Name() string          { return "grower" }
func (a *growingAuditor) Mask() EventMask       { return MaskAll }
func (a *growingAuditor) HandleEvent(ev *Event) { a.HandleBatch([]Event{*ev}) }
func (a *growingAuditor) HandleBatch(evs []Event) {
	if a.armed.CompareAndSwap(true, false) {
		a.inClaim <- evs
		<-a.release
	}
	for i := range evs {
		a.got = append(a.got, evs[i].Seq)
	}
	a.claims = append(a.claims, len(evs))
}

// TestRingGrowsUnderOutstandingClaim parks a Dispatch inside a claim that
// wraps the ring end, after its first half, while another goroutine
// publishes enough to double the ring three times. The claim's first slice,
// read after the growth, still holds its events; its second half comes from
// the array it was claimed in; the release lands on the new ring; and the
// auditor receives every event in queue order. The race suite runs it with
// the publisher and the drainer on different goroutines.
func TestRingGrowsUnderOutstandingClaim(t *testing.T) {
	em := NewMultiplexer()
	a := &growingAuditor{inClaim: make(chan []Event), release: make(chan struct{})}
	if err := em.Register(a, DeliverAsync, 0); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	publish := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			em.Publish(&Event{Type: EvSyscall, Seq: seq})
		}
	}
	// Move head to slot 10 of the 16-slot ring, so the next claim of 10
	// events wraps: slots 10..15, then 0..3.
	publish(10)
	em.Dispatch(0)
	publish(10)
	a.armed.Store(true)
	done := make(chan int)
	go func() { done <- em.Dispatch(0) }()
	claim := <-a.inClaim
	publish(100)
	em.mu.Lock()
	if l := len(em.subs[0].ring); l != 128 {
		em.mu.Unlock()
		t.Fatalf("ring has %d slots with 110 events queued, want 128", l)
	}
	em.mu.Unlock()
	for i := range claim {
		if want := uint64(11 + i); claim[i].Seq != want {
			t.Fatalf("claimed slot %d reads Seq %d after growth, want %d", i, claim[i].Seq, want)
		}
	}
	close(a.release)
	if n := <-done; n != 110 {
		t.Fatalf("Dispatch delivered %d, want 110", n)
	}
	for i, s := range a.got {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d has Seq %d, want %d", i, s, i+1)
		}
	}
	if want := []int{10, 6, 4, 100}; len(a.got) != 120 || !reflect.DeepEqual(a.claims, want) {
		t.Fatalf("got %d events in claims %v, want 120 in %v", len(a.got), a.claims, want)
	}
	if st := em.Stats()[0]; st.Delivered != 120 || st.Dropped != 0 || st.Queued != 120 {
		t.Fatalf("stats %+v, want 120 queued and delivered, 0 dropped", st)
	}
}
