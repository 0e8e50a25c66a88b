package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/flight"
	"hypertap/internal/guest"
	"hypertap/internal/host"
)

// writeBundle runs a two-VM host for 20ms with the exit stream recorded and
// raises one incident bundle. stream, when non-nil, replaces the recorded
// stream as the bundle's capture.htcs. It returns the bundle directory and
// the live per-VM published-event counts.
func writeBundle(t *testing.T, stream []byte) (string, []uint64) {
	t.Helper()
	specs := make([]host.VMSpec, 2)
	for i := range specs {
		specs[i] = host.VMSpec{
			Name: fmt.Sprintf("vm%d", i), Guest: guest.Config{Seed: int64(i + 1)},
			Monitor: true, Features: intercept.Features{ProcessSwitch: true, Syscalls: true, IO: true},
		}
	}
	h, err := host.New(host.Config{Name: "host0", VMs: specs, FlightDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hdr := capture.Header{Tick: time.Millisecond}
	for _, m := range h.Machines() {
		hdr.VMs = append(hdr.VMs, capture.VMHeader{Name: m.Name(), VCPUs: m.NumVCPUs()})
	}
	rec, err := capture.NewRecorder(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	h.SetExitTap(rec)
	if err := h.Boot(); err != nil {
		t.Fatal(err)
	}
	h.Run(20 * time.Millisecond)
	b, err := flight.Raise(h.EM(), "test", 0, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Capture = stream
	if stream == nil {
		if err := rec.Finish(); err != nil {
			t.Fatal(err)
		}
		b.Capture = buf.Bytes()
	}
	dir := t.TempDir()
	if err := b.Write(dir); err != nil {
		t.Fatal(err)
	}
	live := []uint64{h.EM().PublishedVM(0), h.EM().PublishedVM(1)}
	return dir, live
}

// vmTracks counts the Chrome trace's named VM tracks (thread ids 1..998).
func vmTracks(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not loadable JSON: %v", err)
	}
	tracks := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" && ev.Name == "thread_name" && ev.TID >= 1 && ev.TID < 999 {
			tracks[fmt.Sprint(ev.Args["name"])] = true
		}
	}
	return tracks
}

// TestInfoBundle runs info on a bundle directory: the JSON report carries
// the bundle summary and a per-VM tally of its capture that matches the
// live EM, and -chrome-trace renders the rings with one track per VM.
func TestInfoBundle(t *testing.T) {
	dir, live := writeBundle(t, nil)
	chrome := filepath.Join(t.TempDir(), "bundle.json")
	var out bytes.Buffer
	if err := info(&out, dir, true, chrome); err != nil {
		t.Fatal(err)
	}
	var rep infoReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil || rep.Summary == nil {
		t.Fatalf("info -json output is not a bundle tally (%v):\n%s", err, out.String())
	}
	if rep.Bundle == nil || rep.Bundle.Kind != "test" || rep.Bundle.Rings != 2 || rep.Bundle.Exits == 0 {
		t.Errorf("bundle summary = %+v, want kind test with 2 populated rings", rep.Bundle)
	}
	if len(rep.VMs) != 2 {
		t.Fatalf("capture tally lists %d VMs, want 2", len(rep.VMs))
	}
	for i, vm := range rep.VMs {
		if vm.Events == 0 || uint64(vm.Events) != live[i] {
			t.Errorf("%s: tallied %d events, live EM published %d", vm.Name, vm.Events, live[i])
		}
	}
	if rep.EventsByType["syscall"] == 0 || len(rep.Syscalls) == 0 || rep.AddressSpaces == 0 || !rep.Ended {
		t.Errorf("tally lacks type/syscall/address-space counts or the end marker: %s", out.String())
	}
	if tracks := vmTracks(t, chrome); len(tracks) != 2 || !tracks["vm0"] || !tracks["vm1"] {
		t.Errorf("bundle chrome trace VM tracks = %v, want vm0 and vm1", tracks)
	}
}

// TestInfoStreamEndsEarly pins that a damaged record is an error: the tally
// covers the records before it and info fails naming the cut, instead of
// reporting a short stream as a clean one.
func TestInfoStreamEndsEarly(t *testing.T) {
	var buf bytes.Buffer
	rec, err := capture.NewRecorder(&buf, capture.Header{Tick: time.Millisecond,
		VMs: []capture.VMHeader{{Name: "vm0", VCPUs: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	ev := core.Event{Type: core.EvSyscall, SyscallNr: 39}
	for i := 0; i < 3; i++ {
		ev.Seq = uint64(i)
		rec.TapEvent(&ev)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Len()
	for i := 3; i < 5; i++ {
		ev.Seq = uint64(i)
		rec.TapEvent(&ev)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[cut] = 0x7f // not a record kind
	path := filepath.Join(t.TempDir(), "bad.htcs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = info(&out, path, false, "")
	if err == nil || !strings.Contains(err.Error(), "ends early") || !strings.Contains(err.Error(), "unknown record kind") {
		t.Fatalf("info on a stream with a bad kind byte: err = %v, want an ends-early decode error", err)
	}
	if !strings.Contains(out.String(), "event=3\n") {
		t.Errorf("partial tally should count the 3 records before the damage:\n%s", out.String())
	}
	if strings.Contains(out.String(), "clean end marker: true") {
		t.Errorf("a damaged stream reported a clean end:\n%s", out.String())
	}
}

// TestInfoChromeStream renders a hosted stream's events: one track per
// header VM, labeled by the header name.
func TestInfoChromeStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hosted.htcs")
	if err := os.WriteFile(path, capture.GenerateHosted(7, 2, 2, 400, time.Millisecond, "host1"), 0o644); err != nil {
		t.Fatal(err)
	}
	chrome := filepath.Join(dir, "stream.json")
	if err := info(io.Discard, path, false, chrome); err != nil {
		t.Fatal(err)
	}
	if tracks := vmTracks(t, chrome); len(tracks) != 2 || !tracks["genvm-0"] || !tracks["genvm-1"] {
		t.Errorf("stream chrome trace VM tracks = %v, want genvm-0 and genvm-1", tracks)
	}
}
