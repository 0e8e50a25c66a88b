package cluster

import (
	"strings"
	"testing"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/telemetry"
)

// smallSpec is a minimal monitored VM.
func smallSpec(name string, seed int64) host.VMSpec {
	return host.VMSpec{Name: name, Guest: guest.Config{Seed: seed}, Monitor: true, Features: allFeatures()}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := New(Config{Hosts: []HostSpec{{Name: "h0"}}}); err == nil {
		t.Fatal("host without VMs accepted")
	}
	if _, err := New(Config{Hosts: []HostSpec{
		{Name: "h0", VMs: []host.VMSpec{smallSpec("a", 1)}},
		{Name: "h0", VMs: []host.VMSpec{smallSpec("b", 2)}},
	}}); err == nil {
		t.Fatal("duplicate host name accepted")
	}
	if _, err := New(Config{Hosts: []HostSpec{
		{Name: "h0", VMs: []host.VMSpec{smallSpec("a", 1)}},
		{Name: "h1", VMs: []host.VMSpec{smallSpec("a", 2)}},
	}}); err == nil {
		t.Fatal("duplicate VM name across hosts accepted")
	}

	c, err := New(Config{Hosts: []HostSpec{
		{Name: "h0", VMs: []host.VMSpec{smallSpec("a", 1)}},
		{Name: "h1", VMs: []host.VMSpec{smallSpec("b", 2)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Default names and VMID carving.
	if c.Stride() != 1 {
		t.Fatalf("stride = %d, want 1", c.Stride())
	}
	if got := c.Host(1).Machine(0).VMID(); got != 1 {
		t.Fatalf("h1's VM attached as %d, want 1", got)
	}
	if err := c.FailHost("nowhere"); err == nil {
		t.Fatal("failing an unknown host accepted")
	}
	if err := c.FailHost("h1"); err != nil {
		t.Fatal(err)
	}
	if err := c.FailHost("h1"); err == nil {
		t.Fatal("double FailHost accepted")
	}

	// VMID ranges must not wrap uint16: 3 hosts x 32768 VMs puts host 2 at
	// stride*2 = 65536. Rejected before any VM is built, so this stays cheap;
	// the specs carry an unaligned memory size, so a missing range check
	// fails on the first VM build with a different error.
	wide := make([]HostSpec, 3)
	for i := range wide {
		wide[i].VMs = make([]host.VMSpec, 32768)
		for j := range wide[i].VMs {
			wide[i].VMs[j].MemBytes = 1
		}
	}
	if _, err := New(Config{Hosts: wide}); err == nil || !strings.Contains(err.Error(), "VMID") {
		t.Fatalf("3 hosts x 32768 VMs: err = %v, want a VMID range error", err)
	}
}

// TestClusterSickHostVerdict drives the central aggregator end to end: a
// failed host falls silent, exactly one verdict fires at the first round
// whose silence exceeds SickAfter, the failed host's VMs stay resident, the
// sick-host gauge reads 1, and the healthy hosts keep publishing. The verdict
// latches, so continued silence cannot re-alarm.
func TestClusterSickHostVerdict(t *testing.T) {
	const sickAfter = 20 * time.Millisecond
	fleet := telemetry.NewRegistry()
	c, err := New(Config{
		SickAfter: sickAfter,
		Telemetry: fleet,
		Hosts: []HostSpec{
			{Name: "h0", VMs: []host.VMSpec{smallSpec("v0", 1), smallSpec("v1", 2)}},
			{Name: "h1", VMs: []host.VMSpec{smallSpec("v2", 3)}},
			{Name: "h2", VMs: []host.VMSpec{smallSpec("v3", 4)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Boot(); err != nil {
		t.Fatal(err)
	}
	clusterWorkload(t, c.Host(0).Machine(0), 0)
	clusterWorkload(t, c.Host(0).Machine(1), 1)
	clusterWorkload(t, c.Host(1).Machine(0), 0)
	clusterWorkload(t, c.Host(2).Machine(0), 1)

	c.Run(50 * time.Millisecond)
	health := c.Health()
	for _, hh := range health {
		if hh.Sick {
			t.Fatalf("healthy cluster reports %s sick", hh.Host)
		}
	}
	lastBeat := health[0].LastBeat
	if err := c.FailHost("h0"); err != nil {
		t.Fatal(err)
	}
	pubBefore := [3]uint64{}
	for i := range pubBefore {
		pubBefore[i] = c.Host(i).EM().Published()
	}
	c.Run(100 * time.Millisecond)

	// Rounds advance one 1ms tick at a time, so the first round whose
	// silence exceeds SickAfter is one tick past it.
	want := Verdict{Host: "h0", At: lastBeat + sickAfter + time.Millisecond, Silence: sickAfter + time.Millisecond}
	if vs := c.Verdicts(); len(vs) != 1 || vs[0] != want {
		t.Fatalf("verdicts = %+v, want exactly [%+v]", vs, want)
	}
	if got := fleet.Gauge("hypertap_cluster_hosts_sick").Value(); got != 1 {
		t.Fatalf("hypertap_cluster_hosts_sick = %v, want 1", got)
	}
	// The failed host keeps its VMs: nothing moved, nothing was detached.
	h0 := c.Host(0)
	if h0.NumVMs() != 2 || h0.Machine(0).Name() != "v0" || h0.Machine(1).Name() != "v1" {
		t.Fatalf("failed host's fleet changed: %d VMs", h0.NumVMs())
	}
	for j, name := range []string{"v0", "v1"} {
		if got, ok := h0.EM().VMName(core.VMID(j)); !ok || got != name {
			t.Fatalf("failed host's EM slot %d = %q/%v, want %s", j, got, ok, name)
		}
	}
	if got := h0.EM().Published(); got != pubBefore[0] {
		t.Fatalf("failed host published %d events after FailHost", got-pubBefore[0])
	}
	for i := 1; i < 3; i++ {
		if got := c.Host(i).EM().Published(); got <= pubBefore[i] {
			t.Fatalf("healthy %s published nothing after the failure (%d before, %d after)", c.Host(i).Name(), pubBefore[i], got)
		}
	}

	// Latch: more silence, no second verdict, the gauge stays at 1.
	c.Run(100 * time.Millisecond)
	if vs := c.Verdicts(); len(vs) != 1 {
		t.Fatalf("verdict re-fired: %+v", vs)
	}
	if got := fleet.Gauge("hypertap_cluster_hosts_sick").Value(); got != 1 {
		t.Fatalf("hypertap_cluster_hosts_sick after latch = %v, want 1", got)
	}
	for _, hh := range c.Health() {
		if sick := hh.Host == "h0"; hh.Sick != sick {
			t.Fatalf("health reports %s sick=%v, want %v", hh.Host, hh.Sick, sick)
		}
	}
}

// TestClusterRollup pins the fleet telemetry rollup: per-host series land in
// the cluster registry under {host=...} labels with exact values, repeated
// rollups absorb only deltas, and identically-named series from different
// hosts never collide.
func TestClusterRollup(t *testing.T) {
	fleet := telemetry.NewRegistry()
	c, err := New(Config{
		Telemetry: fleet,
		Hosts: []HostSpec{
			{Name: "h0", VMs: []host.VMSpec{smallSpec("a", 1)}},
			{Name: "h1", VMs: []host.VMSpec{smallSpec("b", 2)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Boot(); err != nil {
		t.Fatal(err)
	}
	clusterWorkload(t, c.Host(0).Machine(0), 0)
	clusterWorkload(t, c.Host(1).Machine(0), 1)
	c.Run(50 * time.Millisecond) // Run rolls up on return

	for i, name := range []string{"h0", "h1"} {
		want := c.Host(i).EM().Published()
		if want == 0 {
			t.Fatalf("%s published nothing; the rollup check is vacuous", name)
		}
		got := fleet.Counter("hypertap_events_published_total", telemetry.L("host", name)).Value()
		if got != want {
			t.Fatalf("%s rolled-up published = %d, want %d", name, got, want)
		}
		// The per-VM labeled series carries both labels.
		vm := c.Host(i).Machine(0).Name()
		if got := fleet.Counter("hypertap_events_published_total", telemetry.L("host", name), telemetry.L("vm", vm)).Value(); got != want {
			t.Fatalf("%s/%s rolled-up per-VM published = %d, want %d", name, vm, got, want)
		}
	}
	// Idle re-rollup absorbs a zero delta: totals must not double.
	h0 := c.Host(0).EM().Published()
	c.Rollup()
	if got := fleet.Counter("hypertap_events_published_total", telemetry.L("host", "h0")).Value(); got != h0 {
		t.Fatalf("idle rollup double-counted: %d, want %d", got, h0)
	}
	// No unlabeled series leaked into the fleet registry.
	for _, cs := range fleet.Snapshot().Counters {
		if !strings.HasPrefix(cs.Name, "hypertap_cluster_") {
			hosted := false
			for _, l := range cs.Labels {
				hosted = hosted || l.Key == "host"
			}
			if !hosted {
				t.Fatalf("fleet registry holds host-less series %s%v", cs.Name, cs.Labels)
			}
		}
	}
}
