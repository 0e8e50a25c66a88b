package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertap/internal/core/intercept"
	"hypertap/internal/flight"
)

// TestSmokeDefaults drives the binary in-process with a short run and the
// documented flag defaults: flight recording on (-flight-depth 0 = 1024-deep
// rings), a bundle drained at exit, and a JSONL trace alongside it.
func TestSmokeDefaults(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-duration", "100ms",
		"-vms", "2",
		"-tail", "0",
		"-telemetry-addr", "127.0.0.1:0",
		"-rhc",
		"-trace", filepath.Join(dir, "run.jsonl"),
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
	if data, err := os.ReadFile(filepath.Join(dir, "run.jsonl")); err != nil || len(data) == 0 {
		t.Errorf("trace file: err=%v len=%d", err, len(data))
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
