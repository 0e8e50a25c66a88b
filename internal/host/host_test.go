package host

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/auditors/goshd"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/guest"
	"hypertap/internal/hv"
)

// allFeatures arms every interception algorithm.
func allFeatures() intercept.Features {
	return intercept.Features{
		ProcessSwitch: true,
		ThreadSwitch:  true,
		TSSIntegrity:  true,
		Syscalls:      true,
		IO:            true,
	}
}

// fleetWorkload gives VM slot i a deterministic, slot-distinct workload.
// Slot 2 (when present) runs a napper whose long sleeps trip a tight GOSHD
// threshold, so the equivalence check covers alarm state too.
func fleetWorkload(t *testing.T, m *hv.Machine, slot int) {
	t.Helper()
	specs := [][]guest.Step{
		{guest.DoSyscall(guest.SysGetPID), guest.Compute(time.Millisecond)},
		{guest.DoSyscall(guest.SysWrite, 1, 64), guest.Compute(2 * time.Millisecond)},
		{guest.Compute(time.Millisecond), guest.Sleep(100 * time.Millisecond)},
	}
	body := specs[slot%len(specs)]
	if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: fmt.Sprintf("w%d", slot), UID: 1000,
		Program: &guest.LoopProgram{Body: body},
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// collector records one VM's full event stream synchronously.
type collector struct {
	slot core.VMID
	mu   sync.Mutex
	evs  []core.Event
}

func (c *collector) Name() string          { return fmt.Sprintf("collect%d", c.slot) }
func (c *collector) Mask() core.EventMask  { return core.MaskAll }
func (c *collector) VMScope() core.VMScope { return core.ScopeVM(c.slot) }
func (c *collector) HandleEvent(e *core.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, *e)
	c.mu.Unlock()
}

func (c *collector) events() []core.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.Event, len(c.evs))
	copy(out, c.evs)
	return out
}

// vmOutcome is everything the equivalence property compares per VM.
type vmOutcome struct {
	events   []core.Event
	alarms   []goshd.HangAlarm
	syscalls uint64
	switches uint64
	exits    uint64
}

// attachAuditors wires slot's sync collector and async GOSHD onto m, in the
// same order for solo and fleet runs.
func attachAuditors(t *testing.T, m *hv.Machine, slot core.VMID) (*collector, *goshd.Detector) {
	t.Helper()
	col := &collector{slot: slot}
	if err := m.EM().RegisterAuditor(col, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	det, err := goshd.New(goshd.Config{
		VM:        slot,
		Clock:     m.Clock(),
		VCPUs:     m.NumVCPUs(),
		Threshold: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EM().RegisterAuditor(det, core.DeliverAsync, 0); err != nil {
		t.Fatal(err)
	}
	return col, det
}

func outcome(m *hv.Machine, col *collector, det *goshd.Detector) vmOutcome {
	st := m.Kernel().Stats()
	return vmOutcome{
		events:   col.events(),
		alarms:   det.Alarms(),
		syscalls: st.Syscalls,
		switches: st.ContextSwitches,
		exits:    m.TotalExits(),
	}
}

const (
	fleetSize = 3
	fleetSeed = 11
	fleetRun  = 300 * time.Millisecond
)

// soloOutcome runs VM slot in isolation on a private EM.
func soloOutcome(t *testing.T, slot int) vmOutcome {
	t.Helper()
	m, err := hv.New(hv.Config{
		Name:  fmt.Sprintf("eq-vm%d", slot),
		Guest: guest.Config{Seed: fleetSeed + int64(slot)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableMonitoring(allFeatures()); err != nil {
		t.Fatal(err)
	}
	col, det := attachAuditors(t, m, 0) // solo machines attach as VM 0
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	det.Start()
	fleetWorkload(t, m, slot)
	m.Run(fleetRun)
	return outcome(m, col, det)
}

// TestFleetEquivalence pins the refactor's central property: an N-VM host
// sharing one EM produces, per VM, byte-identical event streams, alarms and
// guest histories to N isolated single-VM runs with the same seeds.
func TestFleetEquivalence(t *testing.T) {
	specs := make([]VMSpec, fleetSize)
	for i := range specs {
		specs[i] = VMSpec{
			Name:    fmt.Sprintf("eq-vm%d", i),
			Guest:   guest.Config{Seed: fleetSeed + int64(i)},
			Monitor: true, Features: allFeatures(),
		}
	}
	h, err := New(Config{Name: "eq-host", VMs: specs})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]*collector, fleetSize)
	dets := make([]*goshd.Detector, fleetSize)
	for i := 0; i < fleetSize; i++ {
		cols[i], dets[i] = attachAuditors(t, h.Machine(i), core.VMID(i))
	}
	// One genuinely fleet-wide consumer rides along; being async, it must
	// not perturb any per-VM outcome.
	fw := fleetwatch.New(fleetwatch.Config{VMName: h.EM().VMName})
	if err := h.EM().RegisterAuditor(fw, core.DeliverAsync, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fleetSize; i++ {
		dets[i].Start()
		fleetWorkload(t, h.Machine(i), i)
	}
	h.Run(fleetRun)

	var fleetEvents uint64
	for i := 0; i < fleetSize; i++ {
		fleet := outcome(h.Machine(i), cols[i], dets[i])
		solo := soloOutcome(t, i)

		for _, ev := range fleet.events {
			if ev.VM != core.VMID(i) {
				t.Fatalf("vm%d collector saw an event stamped vm%d", i, ev.VM)
			}
		}
		if len(fleet.events) != len(solo.events) {
			t.Fatalf("vm%d: fleet run delivered %d events, solo %d", i, len(fleet.events), len(solo.events))
		}
		for j := range fleet.events {
			f, s := fleet.events[j], solo.events[j]
			f.VM, s.VM = 0, 0 // identity differs by construction; all else must not
			// Spans mint the VMID into their high bits — same story.
			f.Span = core.MintSpan(0, f.Span.Seq(), f.Span.Index())
			s.Span = core.MintSpan(0, s.Span.Seq(), s.Span.Index())
			if f != s {
				t.Fatalf("vm%d event %d diverged:\nfleet %+v\nsolo  %+v", i, j, f, s)
			}
		}
		if len(fleet.alarms) != len(solo.alarms) {
			t.Fatalf("vm%d: fleet %d GOSHD alarms, solo %d", i, len(fleet.alarms), len(solo.alarms))
		}
		for j := range fleet.alarms {
			fa, sa := fleet.alarms[j], solo.alarms[j]
			// Alarm anchors are spans, which mint the VMID — normalize it
			// away like the event identities above.
			fa.Span = core.MintSpan(0, fa.Span.Seq(), fa.Span.Index())
			sa.Span = core.MintSpan(0, sa.Span.Seq(), sa.Span.Index())
			if fa != sa {
				t.Fatalf("vm%d alarm %d: fleet %+v, solo %+v", i, j, fa, sa)
			}
		}
		if i == 2 && len(fleet.alarms) == 0 {
			t.Fatal("napper VM raised no GOSHD alarms; the equivalence check is vacuous")
		}
		if fleet.syscalls != solo.syscalls || fleet.switches != solo.switches || fleet.exits != solo.exits {
			t.Fatalf("vm%d history diverged: fleet (%d,%d,%d) vs solo (%d,%d,%d)",
				i, fleet.syscalls, fleet.switches, fleet.exits,
				solo.syscalls, solo.switches, solo.exits)
		}
		fleetEvents += uint64(len(fleet.events))
	}
	if fw.Total() != fleetEvents {
		t.Fatalf("fleetwatch accounted %d events, fleet published %d", fw.Total(), fleetEvents)
	}
}

// TestFleetSharedRHC ports the Fig. 2 deployment test onto the host plane:
// two VMs beat through the host's single RHC connection; pausing one makes
// the RHC name exactly the silent VM while its neighbor keeps beating.
func TestFleetSharedRHC(t *testing.T) {
	srv, err := core.NewRHCServer("127.0.0.1:0", 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	h, err := New(Config{
		Name: "rhc-host",
		VMs: []VMSpec{
			{Name: "vm-a", Guest: guest.Config{Seed: 5}, Monitor: true, Features: allFeatures()},
			{Name: "vm-b", Guest: guest.Config{Seed: 6}, Monitor: true, Features: allFeatures()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ConnectRHC(srv.Addr(), 16); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = h.Close() }()
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < h.NumVMs(); i++ {
		fleetWorkload(t, h.Machine(i), i)
	}
	h.Run(200 * time.Millisecond)

	if _, ok := srv.WaitHeartbeat("vm-a", 2*time.Second); !ok {
		t.Fatal("no heartbeats from vm-a through the shared connection")
	}
	if _, ok := srv.WaitHeartbeat("vm-b", 2*time.Second); !ok {
		t.Fatal("no heartbeats from vm-b through the shared connection")
	}

	// vm-a's stack wedges (paused while no driver runs); vm-b keeps beating
	// from a background driver, so only vm-a's heartbeats go stale.
	h.Machine(0).PauseVM()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				h.Run(50 * time.Millisecond)
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()
	defer func() { close(stop); <-done }()

	select {
	case alert := <-srv.Alerts():
		if alert.VM != "vm-a" {
			t.Fatalf("alert names %q, want the paused vm-a", alert.VM)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no alert for the paused VM")
	}
}

// TestFleetStormDetection runs fleetwatch on a live host where one VM's
// workload is far chattier than its neighbors': the accountant must name it.
func TestFleetStormDetection(t *testing.T) {
	// The quiet VMs intercept only context switches and syscalls; the noisy
	// VM runs the full feature set and a chatty workload, so its event rate
	// dwarfs the fleet's.
	quietFeat := intercept.Features{ProcessSwitch: true, ThreadSwitch: true, Syscalls: true}
	h, err := New(Config{
		Name: "storm-host",
		VMs: []VMSpec{
			{Name: "quiet-a", Guest: guest.Config{Seed: 21}, Monitor: true, Features: quietFeat},
			{Name: "noisy", Guest: guest.Config{Seed: 22}, Monitor: true, Features: allFeatures()},
			{Name: "quiet-b", Guest: guest.Config{Seed: 23}, Monitor: true, Features: quietFeat},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fw := fleetwatch.New(fleetwatch.Config{
		Window:    50 * time.Millisecond,
		MinEvents: 100,
		Factor:    3,
		VMName:    h.EM().VMName,
	})
	if err := h.EM().RegisterAuditor(fw, core.DeliverAsync, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	quiet := []guest.Step{guest.Compute(4 * time.Millisecond), guest.Sleep(4 * time.Millisecond)}
	noisy := []guest.Step{guest.DoSyscall(guest.SysGetPID), guest.DoSyscall(guest.SysWrite, 1, 64)}
	for i, body := range [][]guest.Step{quiet, noisy, quiet} {
		if _, err := h.Machine(i).Kernel().CreateProcess(&guest.ProcSpec{
			Comm: "w", UID: 1000, Program: &guest.LoopProgram{Body: body},
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	h.Run(500 * time.Millisecond)

	storms := fw.Storms()
	if len(storms) == 0 {
		t.Fatalf("no storms (totals: a=%d noisy=%d b=%d)", fw.VMTotal(0), fw.VMTotal(1), fw.VMTotal(2))
	}
	for _, s := range storms {
		if s.VMName != "noisy" {
			t.Fatalf("storm names %q, want only the noisy VM (storms: %v)", s.VMName, storms)
		}
	}
}

// TestHostConfigValidation covers constructor edges.
func TestHostConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New(Config{VMs: []VMSpec{{Name: "dup"}, {Name: "dup"}}}); err == nil {
		t.Fatal("duplicate VM names accepted")
	}
	// A VMID range must not wrap uint16: base 65535 with two VMs would give
	// the second VM VMID 0, outside the flight table's resident range. The
	// specs carry an unaligned memory size, so a missing range check fails
	// on the first VM build with a different error instead of building
	// thousands of VMs.
	for _, c := range []struct {
		base core.VMID
		n    int
	}{{65535, 2}, {65000, 537}, {1, 65536}} {
		vms := make([]VMSpec, c.n)
		for i := range vms {
			vms[i].MemBytes = 1
		}
		if _, err := New(Config{VMIDBase: c.base, VMs: vms}); err == nil || !strings.Contains(err.Error(), "VMID") {
			t.Fatalf("VMID range base %d + %d VMs: err = %v, want a VMID range error", c.base, c.n, err)
		}
	}
	h, err := New(Config{VMs: []VMSpec{{}, {}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.EM().VMs(); len(got) != 2 || got[0] != "vm0" || got[1] != "vm1" {
		t.Fatalf("default names = %v", got)
	}
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := h.Boot(); err == nil {
		t.Fatal("double boot accepted")
	}
}
