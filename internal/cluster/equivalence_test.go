package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hypertap/internal/auditors/goshd"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/hv"
)

func allFeatures() intercept.Features {
	return intercept.Features{
		ProcessSwitch: true,
		ThreadSwitch:  true,
		TSSIntegrity:  true,
		Syscalls:      true,
		IO:            true,
	}
}

// clusterWorkload gives global VM index g a deterministic, slot-distinct
// loop; slot 2 is the napper whose long sleeps trip the tight GOSHD
// threshold, so the gates cover alarm state too.
func clusterWorkload(t *testing.T, m *hv.Machine, g int) {
	t.Helper()
	specs := [][]guest.Step{
		{guest.DoSyscall(guest.SysGetPID), guest.Compute(time.Millisecond)},
		{guest.DoSyscall(guest.SysWrite, 1, 64), guest.Compute(2 * time.Millisecond)},
		{guest.Compute(time.Millisecond), guest.Sleep(100 * time.Millisecond)},
	}
	if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
		Comm: fmt.Sprintf("w%d", g), UID: 1000,
		Program: &guest.LoopProgram{Body: specs[g%len(specs)]},
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// collector records one VM's full event stream.
type collector struct {
	vm  core.VMID
	mu  sync.Mutex
	evs []core.Event
}

func (c *collector) Name() string          { return fmt.Sprintf("collect%d", c.vm) }
func (c *collector) Mask() core.EventMask  { return core.MaskAll }
func (c *collector) VMScope() core.VMScope { return core.ScopeVM(c.vm) }
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

// attachAuditors wires a sync collector and an async GOSHD onto m — the same
// registration order everywhere, so per-host actor tables line up.
func attachAuditors(t *testing.T, m *hv.Machine, vm core.VMID) (*collector, *goshd.Detector) {
	t.Helper()
	col := &collector{vm: vm}
	if err := m.EM().RegisterAuditor(col, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	det, err := goshd.New(goshd.Config{
		VM:        vm,
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

// vmOutcome is everything the gates compare per VM.
type vmOutcome struct {
	events   []core.Event
	alarms   []goshd.HangAlarm
	syscalls uint64
	switches uint64
	exits    uint64
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
	gateHosts  = 3
	gateVMsPer = 2
	gateSeed   = 101
	gateRun    = 300 * time.Millisecond
)

func gateSpecs(hostIdx int) []host.VMSpec {
	specs := make([]host.VMSpec, gateVMsPer)
	for j := range specs {
		g := hostIdx*gateVMsPer + j
		specs[j] = host.VMSpec{
			Name:    fmt.Sprintf("h%d-vm%d", hostIdx, j),
			Guest:   guest.Config{Seed: int64(gateSeed + g)},
			Monitor: true, Features: allFeatures(),
		}
	}
	return specs
}

// TestClusterEquivalenceSoloHosts is the cluster gate: an M-host cluster run is
// byte-identical, per VM, to M solo host runs with the same seeds and VMID
// ranges — the shared cluster clock adds scheduling structure but zero
// cross-host coupling. Everything compares raw: event streams, GOSHD alarms,
// kernel stats, publish counters and flight rings.
func TestClusterEquivalenceSoloHosts(t *testing.T) {
	specs := make([]HostSpec, gateHosts)
	for i := range specs {
		specs[i] = HostSpec{Name: fmt.Sprintf("h%d", i), VMs: gateSpecs(i)}
	}
	cl, err := New(Config{Hosts: specs})
	if err != nil {
		t.Fatal(err)
	}
	clCols := make([]*collector, gateHosts*gateVMsPer)
	clDets := make([]*goshd.Detector, gateHosts*gateVMsPer)
	for i := 0; i < gateHosts; i++ {
		for j := 0; j < gateVMsPer; j++ {
			g := i*gateVMsPer + j
			clCols[g], clDets[g] = attachAuditors(t, cl.Host(i).Machine(j), core.VMID(g))
		}
	}
	if err := cl.Boot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gateHosts; i++ {
		for j := 0; j < gateVMsPer; j++ {
			g := i*gateVMsPer + j
			clDets[g].Start()
			clusterWorkload(t, cl.Host(i).Machine(j), g)
		}
	}
	cl.Run(gateRun)

	sawAlarms := false
	for i := 0; i < gateHosts; i++ {
		solo, err := host.New(host.Config{
			Name:     fmt.Sprintf("h%d", i),
			VMs:      gateSpecs(i),
			VMIDBase: core.VMID(i * gateVMsPer),
		})
		if err != nil {
			t.Fatal(err)
		}
		soloCols := make([]*collector, gateVMsPer)
		soloDets := make([]*goshd.Detector, gateVMsPer)
		for j := 0; j < gateVMsPer; j++ {
			g := i*gateVMsPer + j
			soloCols[j], soloDets[j] = attachAuditors(t, solo.Machine(j), core.VMID(g))
		}
		if err := solo.Boot(); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < gateVMsPer; j++ {
			soloDets[j].Start()
			clusterWorkload(t, solo.Machine(j), i*gateVMsPer+j)
		}
		solo.Run(gateRun)

		for j := 0; j < gateVMsPer; j++ {
			g := i*gateVMsPer + j
			vmid := core.VMID(g)
			want := outcome(solo.Machine(j), soloCols[j], soloDets[j])
			got := outcome(cl.Host(i).Machine(j), clCols[g], clDets[g])
			if len(want.events) == 0 {
				t.Fatalf("vm %d produced no events; the gate is vacuous", g)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("vm %d diverged from its solo run:\ncluster: %d events, %d alarms, %d/%d/%d\nsolo:    %d events, %d alarms, %d/%d/%d",
					g, len(got.events), len(got.alarms), got.syscalls, got.switches, got.exits,
					len(want.events), len(want.alarms), want.syscalls, want.switches, want.exits)
			}
			sawAlarms = sawAlarms || len(want.alarms) > 0
			if cp, sp := cl.Host(i).EM().PublishedVM(vmid), solo.EM().PublishedVM(vmid); cp != sp {
				t.Fatalf("vm %d published %d in cluster, %d solo", g, cp, sp)
			}
			// Same host composition ⇒ same actor table ⇒ flight rings compare
			// raw, masks and all.
			if cf, sf := cl.Host(i).EM().FlightExits(vmid), solo.EM().FlightExits(vmid); !reflect.DeepEqual(cf, sf) {
				t.Fatalf("vm %d flight ring diverged (%d vs %d records)", g, len(cf), len(sf))
			}
		}
	}
	if !sawAlarms {
		t.Fatal("no GOSHD alarms anywhere; the gate's alarm leg is vacuous")
	}
}
