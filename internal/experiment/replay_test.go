package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/auditors/goshd"
	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/flight"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/inject"
	"hypertap/internal/telemetry"
)

// auditorCounters returns reg's GOSHD and fleetwatch counters by name and
// labels: the auditor plane's own tally of what it was fed and judged.
func auditorCounters(reg *telemetry.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "hypertap_goshd_") || strings.HasPrefix(c.Name, "hypertap_fleetwatch_") {
			out[fmt.Sprintf("%s%v", c.Name, c.Labels)] = c.Value
		}
	}
	return out
}

// plantWriteHang arms a persistent missing-release fault on k's write path,
// so the first write that takes the lock leaves it held and the guest hangs.
func plantWriteHang(t *testing.T, k *guest.Kernel, now func() time.Duration) {
	t.Helper()
	var site guest.SiteID
	for _, s := range k.Sites() {
		if s.Kind == guest.FaultMissingRelease && s.Path == guest.SysWrite {
			site = s.ID
			break
		}
	}
	if site == 0 {
		t.Fatal("no missing-release site on the write path")
	}
	plan, err := inject.NewPlan(inject.Fault{Site: site, Persistence: inject.Persistent}, now)
	if err != nil {
		t.Fatal(err)
	}
	k.SetFaultPlan(plan)
}

// TestHostStreamReplay pins capture → replay ≡ live for the host auditor
// plane that ReplayStream wires: a 3-VM host runs per-VM GOSHD and then
// fleetwatch, in ReplayStream's order, with an injected hang on VM 1 and a
// capture recorder tapped in before boot. Replaying the capture with no
// guest reaches the live run's per-VM event counts, alarms and storms, and
// feeds the auditors exactly what they were fed live. A host bundle raised
// without the capture refuses stream replay.
func TestHostStreamReplay(t *testing.T) {
	const threshold = 50 * time.Millisecond
	feat := intercept.Features{
		ProcessSwitch: true, ThreadSwitch: true, TSSIntegrity: true,
		Syscalls: true, IO: true,
	}
	// Slot-distinct loops; VM 1's writes hit the faulted path.
	loops := [][]guest.Step{
		{guest.DoSyscall(guest.SysGetPID), guest.Compute(time.Millisecond)},
		{guest.DoSyscall(guest.SysWrite, 1, 64), guest.Compute(2 * time.Millisecond)},
		{guest.Compute(time.Millisecond), guest.Sleep(4 * time.Millisecond)},
	}
	specs := make([]host.VMSpec, len(loops))
	for j := range specs {
		specs[j] = host.VMSpec{
			Name:    fmt.Sprintf("host0-vm%d", j),
			Guest:   guest.Config{Seed: 11 + int64(j)},
			Monitor: true, Features: feat,
		}
	}
	h, err := host.New(host.Config{Name: "host0", VMs: specs})
	if err != nil {
		t.Fatal(err)
	}
	em := h.EM()
	var stream bytes.Buffer
	hdr := capture.Header{Host: h.Name(), Tick: time.Millisecond}
	for j := range specs {
		hdr.VMs = append(hdr.VMs, capture.VMHeader{Name: specs[j].Name, VCPUs: h.Machine(j).NumVCPUs()})
	}
	rec, err := capture.NewRecorder(&stream, hdr)
	if err != nil {
		t.Fatal(err)
	}
	h.SetExitTap(rec)

	liveReg := telemetry.NewRegistry()
	dets := make([]*goshd.Detector, len(specs))
	for j := range specs {
		m := h.Machine(j)
		det, err := goshd.New(goshd.Config{VM: m.VMID(), Clock: m.Clock(), VCPUs: m.NumVCPUs(), Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		det.EnableTelemetry(liveReg)
		if err := em.Register(det, core.DeliverAsync, 0); err != nil {
			t.Fatal(err)
		}
		dets[j] = det
	}
	fw := fleetwatch.New(fleetwatch.Config{VMName: em.VMName})
	fw.EnableTelemetry(liveReg)
	if err := em.Register(fw, core.DeliverAsync, 1<<16); err != nil {
		t.Fatal(err)
	}
	plantWriteHang(t, h.Machine(1).Kernel(), h.Machine(1).Clock().Now)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	for j, loop := range loops {
		dets[j].Start()
		if _, err := h.Machine(j).Kernel().CreateProcess(&guest.ProcSpec{
			Comm: fmt.Sprintf("w%d", j), UID: 1000,
			Program: &guest.LoopProgram{Body: loop},
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	h.Run(200 * time.Millisecond)
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := len(dets[1].Alarms()); n == 0 {
		t.Fatal("injected hang raised no GOSHD alarm on VM 1")
	}

	replayReg := telemetry.NewRegistry()
	rep, err := ReplayStream(StreamConfig{Threshold: threshold, Telemetry: replayReg, Strict: true}, stream.Bytes())
	if err != nil {
		t.Fatalf("strict replay: %v", err)
	}
	if rep.Divergences != 0 {
		t.Fatalf("replay of a pristine capture reported %d divergences", rep.Divergences)
	}
	if rep.Host != h.Name() {
		t.Errorf("replay host = %q, want %q", rep.Host, h.Name())
	}
	if len(rep.VMs) != len(specs) {
		t.Fatalf("replay saw %d VMs, host has %d", len(rep.VMs), len(specs))
	}
	for j, vm := range rep.VMs {
		if vm.Name != specs[j].Name {
			t.Errorf("VM %d name: replay %q, live %q", j, vm.Name, specs[j].Name)
		}
		if live := em.PublishedVM(core.VMID(j)); vm.Events != live || live == 0 {
			t.Errorf("VM %d events: replay %d, live %d (want equal, > 0)", j, vm.Events, live)
		}
		if live := len(dets[j].Alarms()); vm.Alarms != live {
			t.Errorf("VM %d GOSHD alarms: replay %d, live %d", j, vm.Alarms, live)
		}
	}
	if live := len(fw.Storms()); rep.Storms != live {
		t.Errorf("storms: replay %d, live %d", rep.Storms, live)
	}
	live, replayed := auditorCounters(liveReg), auditorCounters(replayReg)
	if live["hypertap_fleetwatch_events_total[]"] == 0 {
		t.Fatalf("live fleetwatch tallied no events: %v", live)
	}
	for name, v := range live {
		if replayed[name] != v {
			t.Errorf("%s: replay %d, live %d", name, replayed[name], v)
		}
	}
	for name, v := range replayed {
		if _, ok := live[name]; !ok {
			t.Errorf("%s: replay %d, absent live", name, v)
		}
	}

	// A bundle written without the capture must refuse stream replay
	// loudly rather than replay an empty stream to an all-clear.
	b, err := flight.Raise(em, "detection", 1, h.Machine(1).Clock().Now(), errors.New("goshd alarm"))
	if err != nil {
		t.Fatal(err)
	}
	bundle := t.TempDir()
	if err := b.Write(bundle); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayIncidentStream(StreamConfig{Threshold: threshold}, bundle); err == nil || !strings.Contains(err.Error(), "no exit stream") {
		t.Fatalf("stream replay of a captureless bundle: err = %v, want a no-exit-stream refusal", err)
	}
}

// TestReplayStreamHosted pins the replay wiring against hosted (v2)
// captures: every header VM is wired and tallies its events, and the report
// carries the recording host. The replay also instruments the configured
// registry.
func TestReplayStreamHosted(t *testing.T) {
	data := capture.GenerateHosted(7, 2, 2, 400, time.Millisecond, "host1")
	reg := telemetry.NewRegistry()
	rep, err := ReplayStream(StreamConfig{Telemetry: reg}, data)
	if err != nil {
		t.Fatal(err)
	}
	published := uint64(0)
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "hypertap_events_published_total" && len(c.Labels) == 0 {
			published = c.Value
		}
	}
	if published != 400 {
		t.Errorf("replay registry counts %d published events, want 400", published)
	}
	if rep.Host != "host1" {
		t.Errorf("report host = %q, want host1", rep.Host)
	}
	if rep.Events != 400 {
		t.Errorf("replayed %d events, want 400", rep.Events)
	}
	for _, vm := range rep.VMs {
		if vm.Events == 0 {
			t.Errorf("VM %s tallied 0 events", vm.Name)
		}
	}
	if rep.Divergences != 0 {
		t.Errorf("divergences = %d, want 0", rep.Divergences)
	}
}
