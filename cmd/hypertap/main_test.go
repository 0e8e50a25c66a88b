package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertap/internal/capture"
	"hypertap/internal/core/intercept"
	"hypertap/internal/experiment"
	"hypertap/internal/flight"
)

// TestSmokeDefaults drives the binary in-process with a short run and the
// documented flag defaults: flight recording on (-flight-depth 0 = 1024-deep
// rings), a bundle drained at exit, and an exit-stream capture alongside it
// that replays Strict to the live run's per-VM event counts.
func TestSmokeDefaults(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-duration", "100ms",
		"-vms", "2",
		"-tail", "0",
		"-telemetry-addr", "127.0.0.1:0",
		"-rhc",
		"-trace", filepath.Join(dir, "run.htcs"),
		"-flight-dir", filepath.Join(dir, "flight"),
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}

	// The exit drain lands as a standard bundle: loadable, populated, and
	// carrying the RHC's per-VM heartbeat view.
	b, err := flight.LoadBundle(filepath.Join(dir, "flight", "incident-000-shutdown"))
	if err != nil {
		t.Fatalf("loading shutdown bundle: %v", err)
	}
	if b.Meta.Kind != "shutdown" || b.Meta.Error != "" {
		t.Fatalf("bundle meta = kind %q error %q, want clean shutdown", b.Meta.Kind, b.Meta.Error)
	}
	if len(b.Exits) != 2 {
		t.Fatalf("bundle has %d VM rings, want 2", len(b.Exits))
	}
	for vm, exits := range b.Exits {
		if len(exits) == 0 {
			t.Errorf("VM %d ring is empty", vm)
		}
	}
	if len(b.Spans) == 0 {
		t.Error("bundle carries no spans")
	}
	if b.RHC == nil || len(b.RHC.Beats) != 2 {
		t.Errorf("bundle RHC state = %+v, want beats from both VMs", b.RHC)
	}
	if b.Telemetry == nil {
		t.Error("bundle is missing the telemetry snapshot")
	}

	// The shutdown bundle carries the run's exit stream, so it replays on its
	// own: the same bytes as the -trace file, judged without divergence.
	bundleDir := filepath.Join(dir, "flight", "incident-000-shutdown")
	data, err := os.ReadFile(filepath.Join(dir, "run.htcs"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Capture, data) {
		t.Errorf("bundle capture.htcs is %d bytes, differs from run.htcs (%d bytes)", len(b.Capture), len(data))
	}
	if brep, err := experiment.ReplayIncidentStream(experiment.FleetConfig{Threshold: 4 * time.Second}, bundleDir); err != nil {
		t.Errorf("replaying the shutdown bundle: %v", err)
	} else if brep.Divergences != 0 {
		t.Errorf("bundle replay divergences = %d, want 0", brep.Divergences)
	}

	// The capture replays through the one replay wiring, at the live run's
	// 4 s GOSHD threshold, with no guest: every event record is republished
	// to its header VM and nothing diverges.
	sum, err := capture.Summarize(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatalf("tallying the capture: %v", err)
	}
	if !sum.Ended {
		t.Error("capture lacks its end marker")
	}
	rep, err := experiment.ReplayStream(experiment.FleetConfig{Threshold: 4 * time.Second}, data, true)
	if err != nil {
		t.Fatalf("strict replay: %v", err)
	}
	if rep.Divergences != 0 {
		t.Errorf("replay divergences = %d, want 0", rep.Divergences)
	}
	if len(sum.VMs) != 2 || len(rep.VMs) != 2 {
		t.Fatalf("capture header lists %d VMs, replay %d; want 2", len(sum.VMs), len(rep.VMs))
	}
	for i, vm := range sum.VMs {
		if want := fmt.Sprintf("vm%d", i); vm.Name != want || vm.VCPUs != 2 {
			t.Errorf("header VM %d = %q with %d vCPUs, want %q with 2", i, vm.Name, vm.VCPUs, want)
		}
		if got := rep.VMs[i].Events; vm.Events == 0 || got != uint64(vm.Events) {
			t.Errorf("%s: replayed %d events, capture holds %d event records (want equal, > 0)", vm.Name, got, vm.Events)
		}
		if rep.VMs[i].Alarms != 0 {
			t.Errorf("%s: %d GOSHD alarms on replay of a healthy run", vm.Name, rep.VMs[i].Alarms)
		}
	}
}

// TestSmokeCluster drives the -hosts>1 demo path, pins its aggregator and
// rollup output, and pins that the single-host-only flags are rejected in
// cluster mode.
func TestSmokeCluster(t *testing.T) {
	args := []string{
		"-duration", "60ms",
		"-hosts", "2",
		"-vms", "1",
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	err := run([]string{"-hosts", "2", "-rhc"})
	if err == nil || !strings.Contains(err.Error(), "single-host") {
		t.Fatalf("cluster mode with -rhc: err = %v, want single-host flag complaint", err)
	}

	var out bytes.Buffer
	if err := runCluster(clusterOpts{
		hosts: 2, vms: 1, vcpus: 2, duration: 60 * time.Millisecond, seed: 1,
		features: intercept.Features{Syscalls: true, IO: true}, out: &out,
	}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"host0: 1 VM(s)", "host1: 1 VM(s)", "(healthy)",
		"fleet rollup", "{host host0}", "{host host1}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("cluster demo output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "SICK") || strings.Contains(text, "verdict:") {
		t.Errorf("a healthy cluster reported a sick host:\n%s", text)
	}
}

// TestSmokeFlightDisabled pins the -flight-depth<0 escape hatch: tracing off,
// and asking for a drain anyway is a configuration error.
func TestSmokeFlightDisabled(t *testing.T) {
	if err := run([]string{"-duration", "20ms", "-flight-depth", "-1", "-tail", "0"}); err != nil {
		t.Fatalf("run with tracing disabled: %v", err)
	}
	err := run([]string{"-duration", "20ms", "-flight-depth", "-1", "-flight-dir", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "-flight-depth") {
		t.Fatalf("contradictory flags: err = %v, want -flight-depth complaint", err)
	}
}
