package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/flight"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/inject"
	"hypertap/internal/telemetry"
)

// incidentDir returns the directory a campaign test arms incident capture
// into. By default that is the test's scratch space; when
// HYPERTAP_INCIDENT_DIR is set (CI sets it), bundles land under that root
// named for the test and survive a failing run, so the CI job can upload
// them as artifacts and the failure replays locally from the exact bundle.
// Passing tests clean their bundles up so green runs upload nothing.
func incidentDir(t *testing.T) string {
	root := os.Getenv("HYPERTAP_INCIDENT_DIR")
	if root == "" {
		return t.TempDir()
	}
	dir := filepath.Join(root, strings.ReplaceAll(t.Name(), "/", "_"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("incident dir %s: %v", dir, err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

// compareBundleDirs asserts two incident bundles are byte-identical — the
// replayability contract: re-running a unit from its bundle coordinates
// reproduces the exact artifact, not merely a similar one.
func compareBundleDirs(t *testing.T, want, got string) {
	t.Helper()
	wantEnts, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	gotEnts, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantEnts) != len(gotEnts) {
		t.Fatalf("bundle file count diverged: original %d files, replay %d", len(wantEnts), len(gotEnts))
	}
	for _, e := range wantEnts {
		wb, err := os.ReadFile(filepath.Join(want, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(filepath.Join(got, e.Name()))
		if err != nil {
			t.Fatalf("replay bundle is missing %s: %v", e.Name(), err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("replayed bundle file %s differs from the original (%d vs %d bytes)", e.Name(), len(wb), len(gb))
		}
	}
}

// TestFleetIncidentPanicCapture is the acceptance path for incident capture:
// an auditor that panics mid-campaign produces a self-contained bundle, and
// ReplayIncident re-runs the failing unit from the bundle alone to the
// identical verdict — down to byte-equal flight recordings.
func TestFleetIncidentPanicCapture(t *testing.T) {
	dir := incidentDir(t)
	chaos := func(unit int, h *host.Host) error {
		if unit != 1 {
			return nil
		}
		n := 0
		return h.EM().Register(&core.AuditorFunc{
			AuditorName: "chaos",
			EventMask:   core.MaskAll,
			Fn: func(ev *core.Event) {
				n++
				if n == 200 {
					panic("induced chaos fault")
				}
			},
		}, core.DeliverSync, 0)
	}
	cfg := FleetConfig{
		Hosts:         2,
		VMsPerHost:    2,
		Duration:      400 * time.Millisecond,
		Seed:          7,
		Parallel:      1,
		IncidentDir:   dir,
		ExtraAuditors: chaos,
	}

	_, err := RunFleetCampaign(cfg)
	if err == nil {
		t.Fatal("campaign with a panicking auditor reported success")
	}
	const wantMsg = "fleet unit 1: panic: induced chaos fault"
	if !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("campaign error = %q, want it to contain %q", err, wantMsg)
	}

	bundleDir := filepath.Join(dir, "unit-001", "incident-000-panic")
	b, err := flight.LoadBundle(bundleDir)
	if err != nil {
		t.Fatalf("loading the panic bundle: %v", err)
	}
	if b.Meta.Kind != "panic" {
		t.Fatalf("bundle kind = %q, want %q", b.Meta.Kind, "panic")
	}
	if b.Meta.Error != wantMsg {
		t.Fatalf("bundle error = %q, want %q", b.Meta.Error, wantMsg)
	}
	if b.Meta.Context["unit"] != "1" || b.Meta.Context["campaign_seed"] != "7" {
		t.Fatalf("bundle context lacks replay coordinates: %v", b.Meta.Context)
	}
	if len(b.Exits) != cfg.VMsPerHost {
		t.Fatalf("bundle carries %d VM rings, want %d", len(b.Exits), cfg.VMsPerHost)
	}
	total := 0
	for _, ring := range b.Exits {
		total += len(ring)
	}
	if total == 0 {
		t.Fatal("panic bundle captured no exits; the flight recorder was dark")
	}
	if len(b.Spans) == 0 || b.Spans[len(b.Spans)-1].Phase != core.PhaseIncident {
		t.Fatalf("bundle's span tail is not the incident marker: %+v", b.Spans)
	}

	// Replay from the bundle: same config, fresh capture directory. The
	// unit must fail with the identical error and dump an identical bundle.
	replayCfg := cfg
	replayCfg.IncidentDir = t.TempDir()
	_, rerr := ReplayIncident(replayCfg, bundleDir)
	if rerr == nil {
		t.Fatal("replaying a panic bundle reported success")
	}
	if rerr.Error() != b.Meta.Error {
		t.Fatalf("replay verdict diverged:\noriginal %q\nreplay   %q", b.Meta.Error, rerr)
	}
	compareBundleDirs(t, bundleDir,
		filepath.Join(replayCfg.IncidentDir, "unit-001", "incident-000-panic"))
}

// TestFleetIncidentDetectionBundle drives the detection path end to end with
// a real injected guest fault: a persistent missing-release hang in one VM's
// write path raises GOSHD alarms, the unit dumps a detection bundle naming
// that VM, and the bundle replays to the identical report and artifact.
func TestFleetIncidentDetectionBundle(t *testing.T) {
	dir := incidentDir(t)
	hangVM1 := func(unit int, h *host.Host) error {
		m := h.Machine(1)
		k := m.Kernel()
		var site guest.SiteID
		for _, s := range k.Sites() {
			if s.Kind == guest.FaultMissingRelease && s.Path == guest.SysWrite {
				site = s.ID
				break
			}
		}
		if site == 0 {
			return fmt.Errorf("no missing-release site on the write path")
		}
		plan, err := inject.NewPlan(inject.Fault{Site: site, Persistence: inject.Persistent}, m.Clock().Now)
		if err != nil {
			return err
		}
		k.SetFaultPlan(plan)
		return nil
	}
	cfg := FleetConfig{
		Hosts:      1,
		VMsPerHost: 3, // slot 1's workload exercises the faulted write path
		Duration:   200 * time.Millisecond,
		Threshold:  50 * time.Millisecond,
		Seed:       11,
		Parallel:   1,
		// Deep rings: every event costs a drain span per async subscriber,
		// and the verdict anchors recorded at alarm time must still be
		// resident when the post-run capture fires.
		FlightDepth:   4096,
		IncidentDir:   dir,
		ExtraAuditors: hangVM1,
	}

	res, err := RunFleetCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAlarms == 0 {
		t.Fatal("injected hang raised no GOSHD alarms; detection bundle path unexercised")
	}
	if res.Hosts[0].VMs[1].Alarms == 0 {
		t.Fatalf("alarms did not land on the faulted VM: %+v", res.Hosts[0].VMs)
	}
	// Prove the fault manifested: the hung VM makes strictly less progress
	// than the identical campaign without the injection.
	baseCfg := cfg
	baseCfg.IncidentDir = ""
	baseCfg.ExtraAuditors = nil
	base, err := RunFleetCampaign(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts[0].VMs[1].Events >= base.Hosts[0].VMs[1].Events {
		t.Fatalf("faulted VM progressed as far as the clean run (%d >= %d events); the hang never bit",
			res.Hosts[0].VMs[1].Events, base.Hosts[0].VMs[1].Events)
	}

	bundleDir := filepath.Join(dir, "unit-000", "incident-000-detection")
	b, err := flight.LoadBundle(bundleDir)
	if err != nil {
		t.Fatalf("loading the detection bundle: %v", err)
	}
	if b.Meta.Kind != "detection" {
		t.Fatalf("bundle kind = %q, want %q", b.Meta.Kind, "detection")
	}
	// Implication picks the first VM with alarms in ID order; with idle
	// vCPUs alarming at boot that is deterministic but not necessarily the
	// faulted VM, so pin consistency rather than a specific ID.
	if int(b.Meta.VM) >= len(res.Hosts[0].VMs) {
		t.Fatalf("bundle implicates out-of-range VM %d", b.Meta.VM)
	}
	if res.Hosts[0].VMs[b.Meta.VM].Alarms == 0 {
		t.Fatalf("bundle implicates VM %d, which raised no alarms", b.Meta.VM)
	}
	if want := res.Hosts[0].VMs[b.Meta.VM].Name; b.Meta.VMName != want {
		t.Fatalf("bundle VM name = %q, want %q", b.Meta.VMName, want)
	}
	if !strings.Contains(b.Meta.Error, "goshd alarms") {
		t.Fatalf("bundle verdict = %q, want a goshd alarm summary", b.Meta.Error)
	}
	// The span stream must hold the verdict anchors GOSHD recorded and end
	// with the incident marker.
	verdicts := 0
	for _, s := range b.Spans {
		if s.Phase == core.PhaseVerdict {
			verdicts++
		}
	}
	if verdicts == 0 {
		t.Fatal("detection bundle carries no verdict spans")
	}
	if b.Spans[len(b.Spans)-1].Phase != core.PhaseIncident {
		t.Fatalf("bundle's span tail is not the incident marker: %+v", b.Spans[len(b.Spans)-1])
	}

	replayCfg := cfg
	replayCfg.IncidentDir = t.TempDir()
	rep, rerr := ReplayIncident(replayCfg, bundleDir)
	if rerr != nil {
		t.Fatalf("replaying a detection bundle: %v", rerr)
	}
	if !reflect.DeepEqual(*rep, res.Hosts[0]) {
		t.Fatalf("replayed report diverged:\noriginal %+v\nreplay   %+v", res.Hosts[0], *rep)
	}
	compareBundleDirs(t, bundleDir,
		filepath.Join(replayCfg.IncidentDir, "unit-000", "incident-000-detection"))
}

// TestFleetIncidentStreamReplay drives the third leg of the incident story:
// a campaign armed with Capture records its decoded exit stream into the
// detection bundle, and ReplayIncidentStream re-runs the auditor plane from
// that artifact alone — no guests, no kernels, no injection plan — to the
// same per-VM verdicts. This is the triage split: ReplayIncident re-executes
// the simulation, ReplayIncidentStream re-executes only the auditors.
func TestFleetIncidentStreamReplay(t *testing.T) {
	dir := incidentDir(t)
	hangVM1 := func(unit int, h *host.Host) error {
		m := h.Machine(1)
		k := m.Kernel()
		var site guest.SiteID
		for _, s := range k.Sites() {
			if s.Kind == guest.FaultMissingRelease && s.Path == guest.SysWrite {
				site = s.ID
				break
			}
		}
		if site == 0 {
			return fmt.Errorf("no missing-release site on the write path")
		}
		plan, err := inject.NewPlan(inject.Fault{Site: site, Persistence: inject.Persistent}, m.Clock().Now)
		if err != nil {
			return err
		}
		k.SetFaultPlan(plan)
		return nil
	}
	cfg := FleetConfig{
		Hosts:         1,
		VMsPerHost:    3,
		Duration:      200 * time.Millisecond,
		Threshold:     50 * time.Millisecond,
		Seed:          11,
		Parallel:      1,
		FlightDepth:   4096,
		IncidentDir:   dir,
		Capture:       true,
		ExtraAuditors: hangVM1,
	}

	res, err := RunFleetCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAlarms == 0 {
		t.Fatal("injected hang raised no GOSHD alarms; no detection bundle to stream-replay")
	}

	bundleDir := filepath.Join(dir, "unit-000", "incident-000-detection")
	b, err := flight.LoadBundle(bundleDir)
	if err != nil {
		t.Fatalf("loading the detection bundle: %v", err)
	}
	if len(b.Capture) == 0 {
		t.Fatal("Capture campaign produced a bundle without capture.htcs")
	}

	rep, err := ReplayIncidentStream(cfg, bundleDir)
	if err != nil {
		t.Fatalf("stream-replaying the detection bundle: %v", err)
	}
	if rep.Divergences != 0 {
		t.Fatalf("stream replay of a pristine capture reported %d divergences", rep.Divergences)
	}
	orig := res.Hosts[0]
	if rep.Host != orig.Host {
		t.Fatalf("stream replay host = %q, want %q", rep.Host, orig.Host)
	}
	if len(rep.VMs) != len(orig.VMs) {
		t.Fatalf("stream replay saw %d VMs, campaign had %d", len(rep.VMs), len(orig.VMs))
	}
	for j := range orig.VMs {
		if rep.VMs[j].Name != orig.VMs[j].Name {
			t.Errorf("VM %d name: replay %q, live %q", j, rep.VMs[j].Name, orig.VMs[j].Name)
		}
		if rep.VMs[j].Events != orig.VMs[j].Events {
			t.Errorf("VM %d events: replay %d, live %d", j, rep.VMs[j].Events, orig.VMs[j].Events)
		}
		if rep.VMs[j].Alarms != orig.VMs[j].Alarms {
			t.Errorf("VM %d alarms: replay %d, live %d", j, rep.VMs[j].Alarms, orig.VMs[j].Alarms)
		}
	}
	if rep.Events != orig.Events {
		t.Errorf("total events: replay %d, live %d", rep.Events, orig.Events)
	}
	if rep.Storms != orig.Storms {
		t.Errorf("storms: replay %d, live %d", rep.Storms, orig.Storms)
	}

	// A bundle from an uncaptured campaign must refuse stream replay loudly
	// rather than replaying an empty stream to a vacuous all-clear.
	plainCfg := cfg
	plainCfg.Capture = false
	plainCfg.IncidentDir = t.TempDir()
	if _, err := RunFleetCampaign(plainCfg); err != nil {
		t.Fatal(err)
	}
	plainBundle := filepath.Join(plainCfg.IncidentDir, "unit-000", "incident-000-detection")
	if _, err := ReplayIncidentStream(plainCfg, plainBundle); err == nil || !strings.Contains(err.Error(), "no exit stream") {
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
	rep, err := ReplayStream(FleetConfig{Telemetry: reg}, data, false)
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

// TestFleetCampaignWithoutIncidentDir pins that the capture plane is inert
// when unarmed: a panicking unit still fails loudly, and nothing is written.
func TestFleetCampaignWithoutIncidentDir(t *testing.T) {
	cfg := FleetConfig{
		Hosts:      1,
		VMsPerHost: 2,
		Duration:   200 * time.Millisecond,
		Seed:       3,
		Parallel:   1,
		ExtraAuditors: func(unit int, h *host.Host) error {
			n := 0
			return h.EM().Register(&core.AuditorFunc{
				AuditorName: "chaos",
				EventMask:   core.MaskAll,
				Fn: func(ev *core.Event) {
					n++
					if n == 50 {
						panic("unarmed chaos")
					}
				},
			}, core.DeliverSync, 0)
		},
	}
	_, err := RunFleetCampaign(cfg)
	if err == nil || !strings.Contains(err.Error(), "panic: unarmed chaos") {
		t.Fatalf("campaign error = %v, want the propagated panic", err)
	}
}
