package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hypertap/internal/telemetry"
)

// collect returns an auditor that appends copies of delivered events.
func collect(name string, mask EventMask, mu *sync.Mutex, out *[]Event) *AuditorFunc {
	return &AuditorFunc{AuditorName: name, EventMask: mask, Fn: func(ev *Event) {
		mu.Lock()
		*out = append(*out, *ev)
		mu.Unlock()
	}}
}

func TestAttachVM(t *testing.T) {
	em := NewMultiplexer()
	a, err := em.AttachVM("vm-a")
	if err != nil || a != 0 {
		t.Fatalf("AttachVM(vm-a) = %d, %v", a, err)
	}
	b, err := em.AttachVM("vm-b")
	if err != nil || b != 1 {
		t.Fatalf("AttachVM(vm-b) = %d, %v", b, err)
	}
	if _, err := em.AttachVM("vm-a"); err == nil {
		t.Fatal("duplicate VM name accepted")
	}
	if _, err := em.AttachVM(""); err == nil {
		t.Fatal("empty VM name accepted")
	}
	if name, ok := em.VMName(1); !ok || name != "vm-b" {
		t.Fatalf("VMName(1) = %q, %v", name, ok)
	}
	if _, ok := em.VMName(7); ok {
		t.Fatal("VMName resolved an unattached ID")
	}
	if got := em.VMs(); len(got) != 2 || got[0] != "vm-a" || got[1] != "vm-b" {
		t.Fatalf("VMs() = %v", got)
	}
}

func TestRegisterScopedValidation(t *testing.T) {
	em := NewMultiplexer()
	aud := &AuditorFunc{AuditorName: "a", EventMask: MaskAll, Fn: func(*Event) {}}
	// Bare EM: VM 0 exists implicitly, anything beyond does not.
	if err := em.RegisterScoped(aud, ScopeVM(0), DeliverSync, 0); err != nil {
		t.Fatalf("ScopeVM(0) on bare EM: %v", err)
	}
	aud2 := &AuditorFunc{AuditorName: "b", EventMask: MaskAll, Fn: func(*Event) {}}
	if err := em.RegisterScoped(aud2, ScopeVM(1), DeliverSync, 0); err == nil {
		t.Fatal("ScopeVM(1) accepted with no VMs attached")
	}
	if _, err := em.AttachVM("vm-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := em.AttachVM("vm-1"); err != nil {
		t.Fatal(err)
	}
	if err := em.RegisterScoped(aud2, ScopeVM(1), DeliverSync, 0); err != nil {
		t.Fatalf("ScopeVM(1) after attach: %v", err)
	}
}

// TestScopedRoutingDeliversPerVM is the VMID-routing property test: against
// a reference filter over the same published sequence, every VM-scoped
// subscriber must see exactly — byte-identically — the events of its own VM
// that match its mask, and a fleet-wide subscriber must see everything.
func TestScopedRoutingDeliversPerVM(t *testing.T) {
	const vms = 4
	em := NewMultiplexer()
	for i := 0; i < vms; i++ {
		if _, err := em.AttachVM(fmt.Sprintf("vm-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := make([][]Event, vms)
	masks := []EventMask{
		MaskAll,
		MaskOf(EvSyscall),
		MaskOf(EvProcessSwitch, EvThreadSwitch),
		MaskOf(EvIOPort, EvSyscall, EvHalt),
	}
	for i := 0; i < vms; i++ {
		i := i
		mode := DeliverSync
		if i%2 == 1 {
			mode = DeliverAsync // alternate modes so both table halves route
		}
		if err := em.RegisterScoped(collect(fmt.Sprintf("aud-%d", i), masks[i], &mu, &got[i]),
			ScopeVM(VMID(i)), mode, 0); err != nil {
			t.Fatal(err)
		}
	}
	var fleet []Event
	if err := em.RegisterScoped(collect("fleet", MaskAll, &mu, &fleet),
		ScopeFleet(), DeliverAsync, 8192); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	types := AllEventTypes()
	var published []Event
	for i := 0; i < 5000; i++ {
		ev := Event{
			Type: types[rng.Intn(len(types))],
			VM:   VMID(rng.Intn(vms)),
			Seq:  uint64(i),
			VCPU: rng.Intn(2),
		}
		published = append(published, ev)
		em.Publish(&ev)
	}
	em.Dispatch(0)

	for i := 0; i < vms; i++ {
		var want []Event
		for _, ev := range published {
			if int(ev.VM) == i && masks[i].Has(ev.Type) {
				want = append(want, ev)
			}
		}
		mu.Lock()
		g := got[i]
		mu.Unlock()
		if len(g) != len(want) {
			t.Fatalf("vm %d auditor saw %d events, want %d", i, len(g), len(want))
		}
		for j := range want {
			if g[j] != want[j] {
				t.Fatalf("vm %d event %d = %+v, want %+v", i, j, g[j], want[j])
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fleet) != len(published) {
		t.Fatalf("fleet auditor saw %d events, want %d", len(fleet), len(published))
	}
	for j := range published {
		if fleet[j] != published[j] {
			t.Fatalf("fleet event %d = %+v, want %+v", j, fleet[j], published[j])
		}
	}
}

// TestPublishUnattachedVMPanics: every published VMID must be attached (VM
// 0 on a bare EM). An event naming any other VMID is a publisher bug, so
// Publish panics instead of routing it anywhere — not even to fleet-wide
// subscribers — and releases the EM lock first, so a caller that recovers
// can still drain the flight rings.
func TestPublishUnattachedVMPanics(t *testing.T) {
	for _, attached := range []int{0, 1, 3} {
		em := NewMultiplexer()
		for i := 0; i < attached; i++ {
			if _, err := em.AttachVM(fmt.Sprintf("vm-%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		em.SetFlight(NewFlightTable(attached, 8, 0))
		var mu sync.Mutex
		var fleet []Event
		if err := em.Register(collect("fleet", MaskAll, &mu, &fleet), DeliverSync, 0); err != nil {
			t.Fatal(err)
		}
		stray := VMID(max(attached, 1))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d attached: publishing unattached VM %d did not panic", attached, stray)
				}
			}()
			em.Publish(&Event{Type: EvSyscall, VM: stray})
		}()
		if len(fleet) != 0 {
			t.Errorf("%d attached: fleet auditor saw %d events for unattached VM %d", attached, len(fleet), stray)
		}
		if !em.mu.TryLock() {
			t.Fatalf("%d attached: the panic left the EM locked", attached)
		}
		em.mu.Unlock()
		if n := em.Published(); n != 0 {
			t.Errorf("%d attached: Published() = %d after the rejected event, want 0", attached, n)
		}
	}
}

// TestRegisterAuditorUsesDeclaredScope: an auditor implementing VMScoped is
// registered under its own scope, everything else fleet-wide.
func TestRegisterAuditorUsesDeclaredScope(t *testing.T) {
	em := NewMultiplexer()
	if _, err := em.AttachVM("vm-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := em.AttachVM("vm-1"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []Event
	scoped := &scopedAuditor{AuditorFunc: *collect("scoped", MaskAll, &mu, &seen), vm: 1}
	if err := em.RegisterAuditor(scoped, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	em.Publish(&Event{Type: EvSyscall, VM: 0})
	em.Publish(&Event{Type: EvSyscall, VM: 1})
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].VM != 1 {
		t.Fatalf("declared-scope auditor saw %v, want exactly the VM-1 event", seen)
	}
}

type scopedAuditor struct {
	AuditorFunc
	vm VMID
}

func (s *scopedAuditor) VMScope() VMScope { return ScopeVM(s.vm) }

// TestMultiVMPublishZeroAllocs pins the acceptance criterion that the host
// EM's Publish path stays allocation-free with many VMs attached and a mix
// of scoped and fleet subscribers.
func TestMultiVMPublishZeroAllocs(t *testing.T) {
	em := NewMultiplexer()
	const vms = 8
	for i := 0; i < vms; i++ {
		if _, err := em.AttachVM(fmt.Sprintf("vm-%d", i)); err != nil {
			t.Fatal(err)
		}
		aud := &AuditorFunc{AuditorName: fmt.Sprintf("aud-%d", i), EventMask: MaskAll, Fn: func(*Event) {}}
		if err := em.RegisterScoped(aud, ScopeVM(VMID(i)), DeliverSync, 0); err != nil {
			t.Fatal(err)
		}
	}
	fleet := &AuditorFunc{AuditorName: "fleet", EventMask: MaskAll, Fn: func(*Event) {}}
	if err := em.Register(fleet, DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	ev := &Event{Type: EvSyscall}
	var vm uint64
	allocs := testing.AllocsPerRun(2000, func() {
		ev.VM = VMID(vm % vms)
		vm++
		em.Publish(ev)
	})
	if allocs != 0 {
		t.Fatalf("multi-VM Publish allocates %.1f/op, want 0", allocs)
	}
}

// TestSetSamplerDuringDispatch is the sampler-safety race test: swapping
// the RHC feed while Publish and Dispatch run concurrently must be safe
// (run under -race) and an in-flight publish must never observe a torn
// (fn, cadence) pair — enforced here by giving each installed sampler a
// cadence encoding its own identity.
func TestSetSamplerDuringDispatch(t *testing.T) {
	em := NewMultiplexer()
	aud := &AuditorFunc{AuditorName: "sink", EventMask: MaskAll, Fn: func(*Event) {}}
	if err := em.Register(aud, DeliverAsync, 0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // publisher
		defer wg.Done()
		ev := &Event{Type: EvSyscall}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				ev.Seq = uint64(i)
				em.Publish(ev)
			}
		}
	}()
	go func() { // draining container
		defer wg.Done()
		for {
			select {
			case <-stop:
				em.Dispatch(0)
				return
			default:
				em.Dispatch(64)
			}
		}
	}()

	var mu sync.Mutex
	calls := make(map[uint64]uint64) // sampler id -> calls
	for i := uint64(0); i < 200; i++ {
		id := i
		em.SetSampler(2+id%5, func(ev *Event) {
			mu.Lock()
			calls[id]++
			mu.Unlock()
		})
	}
	em.SetSampler(0, nil) // and clearing mid-stream must be safe too
	close(stop)
	wg.Wait()
}

// TestPerVMTelemetryRollup: attached VMs get {vm=...}-labeled published
// series that sum to the unlabeled host total, whether the VM attached
// before or after EnableTelemetry.
func TestPerVMTelemetryRollup(t *testing.T) {
	em := NewMultiplexer()
	if _, err := em.AttachVM("early"); err != nil { // before EnableTelemetry
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	em.EnableTelemetry(reg)
	if _, err := em.AttachVM("late"); err != nil { // after EnableTelemetry
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		em.Publish(&Event{Type: EvSyscall, VM: 0})
	}
	for i := 0; i < 3; i++ {
		em.Publish(&Event{Type: EvSyscall, VM: 1})
	}

	want := map[string]uint64{"early": 5, "late": 3, "": 8}
	snap := reg.Snapshot()
	got := make(map[string]uint64)
	for _, c := range snap.Counters {
		if c.Name != "hypertap_events_published_total" {
			continue
		}
		vm := ""
		for _, l := range c.Labels {
			if l.Key == "vm" {
				vm = l.Value
			}
		}
		got[vm] = c.Value
	}
	for vm, n := range want {
		if got[vm] != n {
			t.Fatalf("published{vm=%q} = %d, want %d (all: %v)", vm, got[vm], n, got)
		}
	}
	if em.PublishedVM(0) != 5 || em.PublishedVM(1) != 3 || em.PublishedVM(9) != 0 {
		t.Fatalf("PublishedVM = %d,%d,%d", em.PublishedVM(0), em.PublishedVM(1), em.PublishedVM(9))
	}
}

// TestBareEMCountsVMZero: a bare EM routes every event as its implicit VM
// 0, so PublishedVM(0) is the whole published total.
func TestBareEMCountsVMZero(t *testing.T) {
	em := NewMultiplexer()
	em.Publish(&Event{Type: EvSyscall})
	em.PublishBatch([]Event{{Type: EvHalt}})
	if p, p0 := em.Published(), em.PublishedVM(0); p != 2 || p0 != 2 {
		t.Fatalf("Published() = %d, PublishedVM(0) = %d; want 2 and 2", p, p0)
	}
	if n := em.PublishedVM(1); n != 0 {
		t.Fatalf("PublishedVM(1) = %d on a bare EM, want 0", n)
	}
}

// TestAttachVMZeroKeepsBareCount: the first AttachVM takes over the bare
// EM's VM 0 slot, and with it the events already counted there, so the
// per-VM series still sums to the host total.
func TestAttachVMZeroKeepsBareCount(t *testing.T) {
	em := NewMultiplexer()
	em.Publish(&Event{Type: EvSyscall})
	em.Publish(&Event{Type: EvSyscall})
	if _, err := em.AttachVM("vm-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := em.AttachVM("vm-1"); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	em.EnableTelemetry(reg)
	em.Publish(&Event{Type: EvSyscall, VM: 0})
	em.Publish(&Event{Type: EvSyscall, VM: 1})
	if a, b := em.PublishedVM(0), em.PublishedVM(1); a != 3 || b != 1 {
		t.Fatalf("PublishedVM = %d,%d, want 3,1", a, b)
	}
	var sum uint64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "hypertap_events_published_total" && len(c.Labels) > 0 {
			sum += c.Value
		}
	}
	if total := em.Published(); sum != total {
		t.Fatalf("per-VM series sum to %d, host total %d", sum, total)
	}
}

// TestWaitHeartbeat covers the RHC-side wait helper: immediate return when
// a beat already arrived, blocking arrival, and timeout.
func TestWaitHeartbeat(t *testing.T) {
	srv, err := NewRHCServer("127.0.0.1:0", 100*1e6) // 100ms
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := DialRHC("host0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	if _, ok := srv.WaitHeartbeat("vm-x", 50*1e6); ok {
		t.Fatal("WaitHeartbeat returned a beat no one sent")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if hb, ok := srv.WaitHeartbeat("vm-x", 2e9); !ok || hb.VM != "vm-x" || hb.Seq != 7 {
			t.Errorf("WaitHeartbeat = %+v, %v", hb, ok)
		}
	}()
	client.SendNamed("vm-x", &Event{Seq: 7})
	<-done
	// Already-arrived beats return without blocking.
	if hb, ok := srv.WaitHeartbeat("vm-x", 0); !ok || hb.Seq != 7 {
		t.Fatalf("second WaitHeartbeat = %+v, %v", hb, ok)
	}
}
