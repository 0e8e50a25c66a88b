package core

import (
	"sync"
	"testing"
	"time"

	"hypertap/internal/arch"
)

func TestSpanIDRoundTrip(t *testing.T) {
	cases := []struct {
		vm  VMID
		seq uint64
		idx uint8
	}{
		{0, 0, 0},
		{0, 1, 0},
		{3, 12345, 2},
		{65535, spanSeqMask, 255},
		{7, spanSeqMask + 99, 1}, // sequence wraps mod 2^40
	}
	for _, c := range cases {
		s := MintSpan(c.vm, c.seq, c.idx)
		if s.VM() != c.vm {
			t.Errorf("MintSpan(%d,%d,%d).VM() = %d", c.vm, c.seq, c.idx, s.VM())
		}
		if want := c.seq & spanSeqMask; s.Seq() != want {
			t.Errorf("MintSpan(%d,%d,%d).Seq() = %d, want %d", c.vm, c.seq, c.idx, s.Seq(), want)
		}
		if s.Index() != c.idx {
			t.Errorf("MintSpan(%d,%d,%d).Index() = %d", c.vm, c.seq, c.idx, s.Index())
		}
	}
	if MintSpan(0, 0, 0) != 0 {
		t.Error("the zero span must be the (vm0, seq0, idx0) mint")
	}
}

// flightEM builds an EM with an attached flight table and the given auditors.
func flightEM(t *testing.T, depth int) (*Multiplexer, *FlightTable) {
	t.Helper()
	em := NewMultiplexer()
	fl := NewFlightTable(2, depth, 0)
	em.SetFlight(fl)
	for _, name := range []string{"vm0", "vm1"} {
		if _, err := em.AttachVM(name); err != nil {
			t.Fatal(err)
		}
	}
	return em, fl
}

func TestFlightRecordsPublish(t *testing.T) {
	em, _ := flightEM(t, 16)
	syncAud := &AuditorFunc{AuditorName: "sync-a", EventMask: MaskAll, Fn: func(*Event) {}}
	asyncAud := &AuditorFunc{AuditorName: "async-b", EventMask: MaskOf(EvSyscall), Fn: func(*Event) {}}
	if err := em.Register(syncAud, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	if err := em.Register(asyncAud, DeliverAsync, 8); err != nil {
		t.Fatal(err)
	}
	syncID, ok := em.ActorID("sync-a")
	if !ok {
		t.Fatal("sync-a has no actor ID")
	}
	asyncID, ok := em.ActorID("async-b")
	if !ok {
		t.Fatal("async-b has no actor ID")
	}

	ev := &Event{Type: EvSyscall, VM: 1, VCPU: 1, Seq: 9, Time: 5 * time.Millisecond}
	ev.Span = MintSpan(1, 9, 0)
	ev.Regs.RIP = arch.GVA(0x1234)
	em.Publish(ev)
	halt := &Event{Type: EvHalt, VM: 0, Seq: 10}
	halt.Span = MintSpan(0, 10, 0)
	em.Publish(halt)

	recs := em.FlightExits(1)
	if len(recs) != 1 {
		t.Fatalf("vm1 ring holds %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Span != ev.Span || r.Type != EvSyscall || r.VCPU != 1 || r.TimeNS != int64(5*time.Millisecond) {
		t.Fatalf("recorded exit %+v does not match published event", r)
	}
	if want := GuestDigest(&ev.Regs); r.Digest != want {
		t.Fatalf("digest %#x, want %#x", r.Digest, want)
	}
	if r.Sync != 1<<syncID {
		t.Fatalf("sync bits %#x, want actor %d only", r.Sync, syncID)
	}
	if r.Queued != 1<<asyncID {
		t.Fatalf("queued bits %#x, want actor %d only", r.Queued, asyncID)
	}
	if r.Dropped != 0 {
		t.Fatalf("dropped bits %#x, want 0", r.Dropped)
	}

	// The halt matched only the sync MaskAll subscriber.
	recs = em.FlightExits(0)
	if len(recs) != 1 {
		t.Fatalf("vm0 ring holds %d records, want 1", len(recs))
	}
	if recs[0].Sync != 1<<syncID || recs[0].Queued != 0 {
		t.Fatalf("halt record bits sync=%#x queued=%#x, want sync-only", recs[0].Sync, recs[0].Queued)
	}
}

func TestFlightDroppedBits(t *testing.T) {
	em, _ := flightEM(t, 16)
	asyncAud := &AuditorFunc{AuditorName: "slow", EventMask: MaskAll, Fn: func(*Event) {}}
	if err := em.Register(asyncAud, DeliverAsync, 1); err != nil {
		t.Fatal(err)
	}
	id, _ := em.ActorID("slow")
	ev := &Event{Type: EvSyscall, VM: 0}
	em.Publish(ev) // fills the 1-slot ring
	em.Publish(ev) // dropped
	recs := em.FlightExits(0)
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].Queued != 1<<id || recs[0].Dropped != 0 {
		t.Fatalf("first record queued=%#x dropped=%#x", recs[0].Queued, recs[0].Dropped)
	}
	if recs[1].Queued != 0 || recs[1].Dropped != 1<<id {
		t.Fatalf("second record queued=%#x dropped=%#x, want drop recorded", recs[1].Queued, recs[1].Dropped)
	}
}

func TestFlightRingWrap(t *testing.T) {
	const depth = 8
	em, _ := flightEM(t, depth)
	total := depth + 5
	for i := 0; i < total; i++ {
		ev := &Event{Type: EvHalt, VM: 0, Seq: uint64(i), Span: MintSpan(0, uint64(i), 0)}
		em.Publish(ev)
	}
	recs := em.FlightExits(0)
	if len(recs) != depth {
		t.Fatalf("ring holds %d records, want depth %d", len(recs), depth)
	}
	for i, r := range recs {
		if want := uint64(total - depth + i); r.Span.Seq() != want {
			t.Fatalf("record %d has seq %d, want %d (oldest-first, last %d kept)", i, r.Span.Seq(), want, depth)
		}
	}
	if got := em.PublishedVM(0); got != uint64(total) {
		t.Fatalf("PublishedVM = %d, want %d", got, total)
	}
}

// TestFlightTableGrowsToAttachedVMs pins that the table is only a pre-size:
// a one-ring table on a three-VM EM — attached before and after SetFlight —
// gives every attached VM its own ring, and an unattached VMID has none.
func TestFlightTableGrowsToAttachedVMs(t *testing.T) {
	em := NewMultiplexer()
	if _, err := em.AttachVM("vm0"); err != nil {
		t.Fatal(err)
	}
	fl := NewFlightTable(1, 8, 0)
	em.SetFlight(fl)
	for _, name := range []string{"vm1", "vm2"} {
		if _, err := em.AttachVM(name); err != nil {
			t.Fatal(err)
		}
	}
	for vm := VMID(0); vm < 3; vm++ {
		for i := 0; i <= int(vm); i++ {
			em.Publish(&Event{Type: EvHalt, VM: vm, Seq: uint64(i + 1), Span: MintSpan(vm, uint64(i+1), 0)})
		}
	}
	for vm := VMID(0); vm < 3; vm++ {
		recs := em.FlightExits(vm)
		if len(recs) != int(vm)+1 {
			t.Fatalf("vm%d ring holds %d records, want %d", vm, len(recs), vm+1)
		}
		for _, r := range recs {
			if r.Span.VM() != vm {
				t.Fatalf("vm%d ring holds a record of vm%d", vm, r.Span.VM())
			}
		}
	}
	if got := em.FlightExits(3); got != nil {
		t.Fatalf("FlightExits of unattached VM 3 = %v, want nil", got)
	}
	for vm, r := range fl.rings {
		if len(r.slots) != 8 {
			t.Fatalf("vm%d ring has %d slots, want the table's depth 8", vm, len(r.slots))
		}
	}
}

func TestSpanRing(t *testing.T) {
	fl := NewFlightTable(1, 4, 8)
	for i := 1; i <= 10; i++ {
		fl.RecordSpan(MintSpan(0, uint64(i), 0), 0, PhaseHeartbeat, 2, time.Duration(i))
	}
	spans := fl.Spans()
	if len(spans) != 8 {
		t.Fatalf("span ring holds %d, want 8", len(spans))
	}
	for i, s := range spans {
		want := uint64(3 + i) // 10 written into 8 slots: oldest kept is #3
		if s.Span.Seq() != want || s.Phase != PhaseHeartbeat || s.Actor != 2 || s.TimeNS != int64(3+i) {
			t.Fatalf("span %d = %+v, want seq %d heartbeat actor2", i, s, want)
		}
	}

	// A nil table is a valid no-op target.
	var nilTable *FlightTable
	nilTable.RecordSpan(MintSpan(0, 1, 0), 0, PhaseIncident, 0, 0)
}

// TestSpanRingKeepsHeartbeats pins that async drains write nothing to the
// span ring: with a fleet-wide async subscriber draining 10 ring depths of
// traffic, every heartbeat step the sampler fed is still there, in order.
func TestSpanRingKeepsHeartbeats(t *testing.T) {
	const depth, every = 64, 64
	em := soloEM(t)
	em.SetFlight(NewFlightTable(1, 16, depth))
	aud := &AuditorFunc{AuditorName: "async", EventMask: MaskAll, Fn: func(*Event) {}}
	if err := em.Register(aud, DeliverAsync, 0); err != nil {
		t.Fatal(err)
	}
	em.SetSampler(every, func(*Event) {})
	var want []SpanID
	for i := 1; i <= 10*depth; i++ {
		ev := &Event{Type: EvSyscall, Seq: uint64(i), Time: time.Duration(i), Span: MintSpan(0, uint64(i), 0)}
		em.Publish(ev)
		if i%every == 0 {
			want = append(want, ev.Span)
		}
		if i%8 == 0 {
			em.Dispatch(0)
		}
	}
	if got := em.Stats()[0].Delivered; got != 10*depth {
		t.Fatalf("async subscriber got %d events, want %d", got, 10*depth)
	}
	spans := em.FlightSpans()
	if len(spans) != len(want) {
		t.Fatalf("span ring holds %d steps, want the %d heartbeats", len(spans), len(want))
	}
	for i, s := range spans {
		if s.Phase != PhaseHeartbeat || s.Span != want[i] {
			t.Fatalf("span step %d = %+v, want heartbeat of span %#x", i, s, uint64(want[i]))
		}
	}
}

func TestSpanRecordMetaPacking(t *testing.T) {
	fl := NewFlightTable(1, 4, 4)
	fl.RecordSpan(MintSpan(300, 7, 1), 300, PhaseVerdict, 9, 42)
	spans := fl.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.VM != 300 || s.Phase != PhaseVerdict || s.Actor != 9 || s.TimeNS != 42 {
		t.Fatalf("span record %+v lost fields in meta packing", s)
	}
}

func TestActorRegistry(t *testing.T) {
	em := NewMultiplexer()
	a := &AuditorFunc{AuditorName: "first", EventMask: MaskAll, Fn: func(*Event) {}}
	b := &AuditorFunc{AuditorName: "second", EventMask: MaskAll, Fn: func(*Event) {}}
	if err := em.Register(a, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	if err := em.Register(b, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	names := em.ActorNames()
	if len(names) != 3 || names[0] != "em" || names[1] != "first" || names[2] != "second" {
		t.Fatalf("ActorNames = %v", names)
	}
	// IDs are sticky across unregister/re-register.
	em.Unregister(a)
	if err := em.Register(a, DeliverAsync, 4); err != nil {
		t.Fatal(err)
	}
	if id, _ := em.ActorID("first"); id != 1 {
		t.Fatalf("re-registered auditor got actor %d, want its old ID 1", id)
	}
	// An EM that never registered anything still names the system actor.
	if names := NewMultiplexer().ActorNames(); len(names) != 1 || names[0] != "em" {
		t.Fatalf("empty EM ActorNames = %v", names)
	}
}

func TestActorOverflowBucket(t *testing.T) {
	em := NewMultiplexer()
	for i := 0; i < 70; i++ {
		a := &AuditorFunc{AuditorName: "aud" + string(rune('A'+i)), EventMask: MaskAll, Fn: func(*Event) {}}
		if err := em.Register(a, DeliverSync, 0); err != nil {
			t.Fatal(err)
		}
	}
	names := em.ActorNames()
	if len(names) != actorOverflow+1 {
		t.Fatalf("actor table has %d entries, want %d", len(names), actorOverflow+1)
	}
	if names[actorOverflow] != "overflow" {
		t.Fatalf("final actor is %q, want the shared overflow bucket", names[actorOverflow])
	}
	if id, _ := em.ActorID("aud" + string(rune('A'+69))); id != actorOverflow {
		t.Fatalf("tail auditor got actor %d, want overflow %d", id, actorOverflow)
	}
}

// TestFlightConcurrency drives Publish, Dispatch, RecordSpan and both
// snapshot paths from concurrent goroutines; its value is under -race, where
// it proves the rings' synchronization discipline.
func TestFlightConcurrency(t *testing.T) {
	em, _ := flightEM(t, 64)
	aud := &AuditorFunc{AuditorName: "a", EventMask: MaskAll, Fn: func(*Event) {}}
	if err := em.Register(aud, DeliverAsync, 256); err != nil {
		t.Fatal(err)
	}
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ev := &Event{Type: EvSyscall, VM: VMID(g % 2), Seq: uint64(i), Span: MintSpan(VMID(g%2), uint64(i), 0)}
				em.Publish(ev)
				if i%64 == 0 {
					em.Dispatch(0)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perG; i++ {
			em.RecordSpan(MintSpan(0, uint64(i), 0), 0, PhaseVerdict, 1, time.Duration(i))
			_ = em.FlightSpans()
			_ = em.FlightExits(0)
		}
	}()
	wg.Wait()
	em.Dispatch(0)
	if got := em.PublishedVM(0) + em.PublishedVM(1); got != 4*perG {
		t.Fatalf("recorded %d exits total, want %d", got, 4*perG)
	}
	if len(em.FlightSpans()) == 0 {
		t.Fatal("no spans recorded")
	}
}

// TestPublishFlightZeroAllocs pins the acceptance bar: flight recording on
// the publish path allocates nothing.
func TestPublishFlightZeroAllocs(t *testing.T) {
	em, fl := flightEM(t, 1024)
	for _, name := range []string{"a", "b", "c"} {
		aud := &AuditorFunc{AuditorName: name, EventMask: MaskAll, Fn: func(*Event) {}}
		if err := em.Register(aud, DeliverSync, 0); err != nil {
			t.Fatal(err)
		}
	}
	ev := &Event{Type: EvSyscall, VM: 0, Span: MintSpan(0, 1, 0)}
	allocs := testing.AllocsPerRun(200, func() {
		em.Publish(ev)
	})
	if allocs != 0 {
		t.Fatalf("flight-on Publish allocates %.1f per event, want 0", allocs)
	}
	spanAllocs := testing.AllocsPerRun(200, func() {
		fl.RecordSpan(ev.Span, 0, PhaseVerdict, 1, 0)
	})
	if spanAllocs != 0 {
		t.Fatalf("RecordSpan allocates %.1f per record, want 0", spanAllocs)
	}
}
