package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hypertap/internal/telemetry"
)

// TestConcurrentDispatchKeepsQueueOrder drains one async auditor from two
// goroutines at once while a publisher feeds it: a claim in delivery marks
// its subscription busy, so the auditor's calls never overlap and its Seq
// sequence strictly increases. Drops are allowed (the drainers may fall
// behind); every event is either delivered or counted as dropped.
func TestConcurrentDispatchKeepsQueueOrder(t *testing.T) {
	const events = 200000
	em := NewMultiplexer()
	var inCall atomic.Bool
	var last atomic.Uint64
	var overlaps, reorders atomic.Uint64
	aud := &AuditorFunc{AuditorName: "ordered", EventMask: MaskAll, Fn: func(ev *Event) {
		if inCall.Swap(true) {
			overlaps.Add(1)
		}
		if prev := last.Swap(ev.Seq); ev.Seq <= prev {
			reorders.Add(1)
		}
		inCall.Store(false)
	}}
	if err := em.Register(aud, DeliverAsync, 0); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				em.Dispatch(8)
			}
		}()
	}
	for seq := uint64(1); seq <= events; seq++ {
		em.Publish(&Event{Type: EvSyscall, Seq: seq})
	}
	stop.Store(true)
	wg.Wait()
	em.Dispatch(0)

	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d deliveries overlapped another delivery to the same auditor", n)
	}
	if n := reorders.Load(); n != 0 {
		t.Fatalf("%d deliveries arrived out of queue order", n)
	}
	st := em.Stats()[0]
	if st.Delivered+st.Dropped != events {
		t.Fatalf("delivered %d + dropped %d, want %d", st.Delivered, st.Dropped, events)
	}
}

// TestDispatchWrappedClaim drives a claim across the ring end: a
// BatchAuditor receives it as two slices whose concatenation is the queue
// order, and a plain auditor registered the same way sees the identical
// sequence.
func TestDispatchWrappedClaim(t *testing.T) {
	em := NewMultiplexer()
	ba := &batchCollector{name: "batched"}
	var plainMu sync.Mutex
	var plain []Event
	if err := em.Register(ba, DeliverAsync, 8); err != nil {
		t.Fatal(err)
	}
	if err := em.Register(collect("plain", MaskAll, &plainMu, &plain), DeliverAsync, 8); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			em.Publish(&Event{Type: EvSyscall, Seq: seq})
		}
	}
	publish(5)
	em.Dispatch(0)
	// Head is now at slot 5: the next six events occupy slots 5..7 and 0..2.
	publish(6)
	if got := em.Dispatch(0); got != 12 {
		t.Fatalf("wrapped drain delivered %d, want 12 (6 per auditor)", got)
	}
	if want := []int{5, 3, 3}; !reflect.DeepEqual(ba.claims, want) {
		t.Fatalf("HandleBatch claim sizes = %v, want %v", ba.claims, want)
	}
	for i, ev := range ba.got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("batched event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if len(ba.got) != 11 || !reflect.DeepEqual(ba.got, plain) {
		t.Fatalf("plain auditor saw %d events, batched %d; sequences must be identical", len(plain), len(ba.got))
	}
}

// TestUnregisterMidClaim has an async auditor unregister itself from inside
// its handler while a bounded drain has claimed part of its queue: the
// claim finishes delivering, the unclaimed rest is discarded, and the
// queue-depth gauge reads 0 once the drain ends.
func TestUnregisterMidClaim(t *testing.T) {
	em := NewMultiplexer()
	reg := telemetry.NewRegistry()
	em.EnableTelemetry(reg)
	depth := func() float64 {
		t.Helper()
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == "hypertap_async_queue_depth" {
				return g.Value
			}
		}
		t.Fatal("no hypertap_async_queue_depth gauge")
		return 0
	}
	var got []uint64
	var self *AuditorFunc
	self = &AuditorFunc{AuditorName: "quitter", EventMask: MaskAll, Fn: func(ev *Event) {
		got = append(got, ev.Seq)
		if len(got) == 1 && !em.Unregister(self) {
			t.Error("Unregister from inside the handler returned false")
		}
	}}
	if err := em.Register(self, DeliverAsync, 8); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		em.Publish(&Event{Type: EvHalt, Seq: uint64(i)})
	}
	if d := depth(); d != 5 {
		t.Fatalf("depth after publishes = %v, want 5", d)
	}
	if n := em.Dispatch(2); n != 2 {
		t.Fatalf("bounded drain delivered %d, want 2", n)
	}
	if d := depth(); d != 0 {
		t.Fatalf("depth after the self-unregistering drain = %v, want 0", d)
	}
	if n := em.Dispatch(0); n != 0 {
		t.Fatalf("drain after Unregister delivered %d, want 0", n)
	}
	if !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("auditor saw %v, want its claim [1 2] and nothing after", got)
	}
}
