package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypertap/internal/telemetry"
)

// batchRig is one fully-wired EM for the batching equivalence tests: flight
// recorder, telemetry, RHC sampler, a verdict-recording sync auditor, a
// plain sync collector, and an async collector.
type batchRig struct {
	em       *Multiplexer
	syncGot  []Event
	asyncGot []Event
	sampled  []Event
}

const batchRigVMs = 3

func newBatchRig(t *testing.T) *batchRig {
	t.Helper()
	r := &batchRig{em: NewMultiplexer()}
	for i := 0; i < batchRigVMs; i++ {
		if _, err := r.em.AttachVM(fmt.Sprintf("vm-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	r.em.SetFlight(NewFlightTable(batchRigVMs, 64, 256))
	r.em.EnableTelemetry(telemetry.NewRegistry())
	r.em.SetSampler(5, func(ev *Event) { r.sampled = append(r.sampled, *ev) })
	// verdict records a span step for every third event, so the span ring
	// interleaves heartbeat and verdict steps — the interleaving that would
	// expose batch boundaries if delivery were not event-major.
	verdict := &AuditorFunc{AuditorName: "verdict", EventMask: MaskAll, Fn: func(ev *Event) {
		if ev.Seq%3 == 0 {
			id, _ := r.em.ActorID("verdict")
			r.em.RecordSpan(ev.Span, ev.VM, PhaseVerdict, id, ev.Time)
		}
	}}
	if err := r.em.Register(verdict, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	syncAud := &AuditorFunc{AuditorName: "sync", EventMask: MaskAll, Fn: func(ev *Event) {
		r.syncGot = append(r.syncGot, *ev)
	}}
	if err := r.em.Register(syncAud, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	asyncAud := &AuditorFunc{AuditorName: "async", EventMask: MaskAll, Fn: func(ev *Event) {
		r.asyncGot = append(r.asyncGot, *ev)
	}}
	if err := r.em.Register(asyncAud, DeliverAsync, 16); err != nil {
		t.Fatal(err)
	}
	return r
}

// flightState snapshots every flight-observable of the rig's EM.
func (r *batchRig) flightState() ([][]FlightExit, []SpanRecord) {
	var exits [][]FlightExit
	for vm := 0; vm < batchRigVMs; vm++ {
		exits = append(exits, r.em.FlightExits(VMID(vm)))
	}
	return exits, r.em.FlightSpans()
}

// TestPublishBatchSerialEquivalence is the batching-transparency gate at
// unit scope: the same event stream pushed through per-event Publish on one
// rig and through randomly-sized PublishBatch calls on an identical rig must
// leave every observable byte-identical — counters, per-VM counters, stats,
// sync and async delivery order, the RHC sampler feed, exit rings, and the
// span ring with heartbeat and verdict steps interleaved.
func TestPublishBatchSerialEquivalence(t *testing.T) {
	stream := make([]Event, 999)
	rng := rand.New(rand.NewSource(7))
	types := AllEventTypes()
	for i := range stream {
		stream[i] = Event{
			Type: types[rng.Intn(len(types))],
			VM:   VMID(rng.Intn(batchRigVMs)),
			Seq:  uint64(i),
			Span: MintSpan(VMID(i%batchRigVMs), uint64(i), 0),
			Time: time.Duration(i) * time.Microsecond,
		}
	}

	// Both rigs run the same schedule — a Dispatch barrier after every
	// dispatchEvery-th publish — and differ only in how the publishes
	// between barriers are grouped into batches. (Dispatch placement is
	// part of the schedule, not of batching: a batch never straddles a
	// barrier, just as an EF decode batch never straddles a tick.)
	const dispatchEvery = 41

	serial := newBatchRig(t)
	for i := range stream {
		ev := stream[i]
		serial.em.Publish(&ev)
		if (i+1)%dispatchEvery == 0 {
			serial.em.Dispatch(0)
		}
	}
	serial.em.Dispatch(0)

	batched := newBatchRig(t)
	for i := 0; i < len(stream); {
		n := 1 + rng.Intn(6)
		if i+n > len(stream) {
			n = len(stream) - i
		}
		if limit := (i/dispatchEvery + 1) * dispatchEvery; i+n > limit {
			n = limit - i
		}
		batch := make([]Event, n)
		copy(batch, stream[i:i+n])
		batched.em.PublishBatch(batch)
		i += n
		if i%dispatchEvery == 0 {
			batched.em.Dispatch(0)
		}
	}
	batched.em.Dispatch(0)

	if a, b := serial.em.Published(), batched.em.Published(); a != b {
		t.Fatalf("published: serial %d, batched %d", a, b)
	}
	if a, b := serial.em.SyncDelivered(), batched.em.SyncDelivered(); a != b {
		t.Fatalf("sync delivered: serial %d, batched %d", a, b)
	}
	for vm := 0; vm < batchRigVMs; vm++ {
		if a, b := serial.em.PublishedVM(VMID(vm)), batched.em.PublishedVM(VMID(vm)); a != b {
			t.Fatalf("vm %d published: serial %d, batched %d", vm, a, b)
		}
	}
	if !reflect.DeepEqual(serial.em.Stats(), batched.em.Stats()) {
		t.Fatalf("stats diverge:\nserial  %+v\nbatched %+v", serial.em.Stats(), batched.em.Stats())
	}
	if !reflect.DeepEqual(serial.syncGot, batched.syncGot) {
		t.Fatal("sync delivery order diverges")
	}
	if !reflect.DeepEqual(serial.asyncGot, batched.asyncGot) {
		t.Fatal("async delivery order diverges")
	}
	if !reflect.DeepEqual(serial.sampled, batched.sampled) {
		t.Fatalf("sampler feed diverges: serial %d events, batched %d", len(serial.sampled), len(batched.sampled))
	}
	sx, ss := serial.flightState()
	bx, bs := batched.flightState()
	if !reflect.DeepEqual(sx, bx) {
		t.Fatal("flight exit rings diverge")
	}
	if !reflect.DeepEqual(ss, bs) {
		t.Fatalf("span rings diverge:\nserial  %v\nbatched %v", ss, bs)
	}
}

// batchCollector is an async BatchAuditor that records both the delivered
// events and the claim sizes HandleBatch received.
type batchCollector struct {
	mu     sync.Mutex
	name   string
	got    []Event
	claims []int
}

func (b *batchCollector) Name() string    { return b.name }
func (b *batchCollector) Mask() EventMask { return MaskAll }
func (b *batchCollector) HandleEvent(ev *Event) {
	b.mu.Lock()
	b.got = append(b.got, *ev)
	b.mu.Unlock()
}
func (b *batchCollector) HandleBatch(evs []Event) {
	b.mu.Lock()
	b.got = append(b.got, evs...)
	b.claims = append(b.claims, len(evs))
	b.mu.Unlock()
}

// TestDispatchHandleBatch proves the drained fast path: a BatchAuditor and a
// plain auditor subscribed identically receive identical event sequences,
// and the BatchAuditor's claims arrive as whole segments bounded by the
// Dispatch max.
func TestDispatchHandleBatch(t *testing.T) {
	em := soloEM(t)
	ba := &batchCollector{name: "batched"}
	var plainMu sync.Mutex
	var plain []Event
	if err := em.Register(ba, DeliverAsync, 0); err != nil {
		t.Fatal(err)
	}
	if err := em.Register(collect("plain", MaskAll, &plainMu, &plain), DeliverAsync, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ev := Event{Type: EvSyscall, Seq: uint64(i)}
		em.Publish(&ev)
	}
	if got := em.Dispatch(32); got != 64 {
		t.Fatalf("bounded Dispatch delivered %d, want 64", got)
	}
	em.Dispatch(0)
	if !reflect.DeepEqual(ba.got, plain) {
		t.Fatal("BatchAuditor saw a different sequence than HandleEvent")
	}
	if len(ba.got) != 100 {
		t.Fatalf("BatchAuditor got %d events, want 100", len(ba.got))
	}
	total := 0
	for _, c := range ba.claims {
		if c <= 0 || c > 100 {
			t.Fatalf("claim size %d out of range", c)
		}
		total += c
	}
	if total != 100 {
		t.Fatalf("claims sum to %d, want 100", total)
	}
	if ba.claims[0] != 32 {
		t.Fatalf("first bounded claim was %d events, want 32", ba.claims[0])
	}
}

// TestBatchAuditorSyncIgnored pins that the HandleBatch fast path applies
// only to drained (async) claims: a sync-registered BatchAuditor still gets
// event-major HandleEvent calls, preserving cross-auditor per-event order.
func TestBatchAuditorSyncIgnored(t *testing.T) {
	em := soloEM(t)
	ba := &batchCollector{name: "syncbatch"}
	if err := em.Register(ba, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	evs := make([]Event, 4)
	for i := range evs {
		evs[i] = Event{Type: EvSyscall, Seq: uint64(i)}
	}
	if n := em.PublishBatch(evs); n != 4 {
		t.Fatalf("PublishBatch reported %d sync deliveries, want 4", n)
	}
	if len(ba.claims) != 0 {
		t.Fatalf("sync subscriber received %d HandleBatch claims, want 0", len(ba.claims))
	}
	if len(ba.got) != 4 {
		t.Fatalf("sync subscriber got %d events, want 4", len(ba.got))
	}
}

// TestPublishBatchChurnRace drives PublishBatch from several goroutines while
// another churns the route table (AttachVM, Register, Unregister) and a
// drainer runs Dispatch — the copy-on-write snapshot race test. Late attaches
// also grow the flight table past its pre-size while publishers record into
// it; publishers pick only VMs whose AttachVM has returned. Run under -race
// in make check. Afterwards the accounting invariants must hold: every
// surviving subscription's queue fully drains, and scoped subscribers only
// ever saw their own VM.
func TestPublishBatchChurnRace(t *testing.T) {
	em := NewMultiplexer()
	em.SetFlight(NewFlightTable(1, 64, 128))
	em.EnableTelemetry(telemetry.NewRegistry())
	for i := 0; i < 2; i++ {
		if _, err := em.AttachVM(fmt.Sprintf("vm-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var attached atomic.Int64
	attached.Store(2)
	var wrongVM atomic.Uint64
	scoped := &AuditorFunc{AuditorName: "scoped-0", EventMask: MaskAll, Fn: func(ev *Event) {
		if ev.VM != 0 {
			wrongVM.Add(1)
		}
	}}
	if err := em.RegisterScoped(scoped, ScopeVM(0), DeliverSync, 0); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	const publishers = 4
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]Event, 8)
			for round := 0; !stop.Load(); round++ {
				n := int(attached.Load())
				for i := range batch {
					batch[i] = Event{
						Type: EvSyscall,
						VM:   VMID((p + i) % n),
						Seq:  uint64(round*len(batch) + i),
					}
				}
				em.PublishBatch(batch)
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			em.Dispatch(16)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			aud := &AuditorFunc{AuditorName: fmt.Sprintf("churn-%d", i%8), EventMask: MaskAll, Fn: func(*Event) {}}
			mode := DeliverSync
			if i%2 == 0 {
				mode = DeliverAsync
			}
			if err := em.Register(aud, mode, 32); err == nil {
				em.Unregister(aud)
			}
			if n := attached.Load(); n < 6 && i%16 == 0 {
				if _, err := em.AttachVM(fmt.Sprintf("late-vm-%d", n)); err == nil {
					attached.Add(1)
				}
			}
		}
	}()

	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	em.Dispatch(0)

	if n := wrongVM.Load(); n != 0 {
		t.Fatalf("VM-scoped subscriber saw %d foreign-VM events: half-rebuilt slot delivered", n)
	}
	if extra := em.Dispatch(0); extra != 0 {
		t.Fatalf("queue not empty after full drain: %d", extra)
	}
	for _, s := range em.Stats() {
		if s.Mode == DeliverAsync && s.Queued != s.Delivered+s.Dropped {
			t.Fatalf("async accounting broken for %s: queued %d, delivered %d, dropped %d",
				s.Auditor, s.Queued, s.Delivered, s.Dropped)
		}
	}
}

// TestPublishBatchZeroAllocs pins the batched hot path — flight recording,
// telemetry, sampler feed (pooled copy), three sync auditors, one async —
// at zero allocations per op.
func TestPublishBatchZeroAllocs(t *testing.T) {
	em := NewMultiplexer()
	if _, err := em.AttachVM("vm-0"); err != nil {
		t.Fatal(err)
	}
	em.SetFlight(NewFlightTable(1, 64, 128))
	em.EnableTelemetry(telemetry.NewRegistry())
	em.SetSampler(4, func(*Event) {})
	for i := 0; i < 3; i++ {
		aud := &AuditorFunc{AuditorName: fmt.Sprintf("sync-%d", i), EventMask: MaskAll, Fn: func(*Event) {}}
		if err := em.Register(aud, DeliverSync, 0); err != nil {
			t.Fatal(err)
		}
	}
	drainAud := &AuditorFunc{AuditorName: "async", EventMask: MaskAll, Fn: func(*Event) {}}
	if err := em.Register(drainAud, DeliverAsync, 4096); err != nil {
		t.Fatal(err)
	}
	batch := make([]Event, 8)
	for i := range batch {
		batch[i] = Event{Type: EvSyscall}
	}
	var seq uint64
	allocs := testing.AllocsPerRun(2000, func() {
		for i := range batch {
			batch[i].Seq = seq
			seq++
		}
		em.PublishBatch(batch)
		em.Dispatch(0)
	})
	if allocs != 0 {
		t.Fatalf("batched publish+drain allocates %.1f/op, want 0", allocs)
	}
}
