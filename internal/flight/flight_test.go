package flight

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/hav"
	"hypertap/internal/telemetry"
)

func TestExitCodecRoundTrip(t *testing.T) {
	recs := []core.FlightExit{
		{
			Span: core.MintSpan(3, 77, 1), TimeNS: 123456, Digest: 0xdeadbeef,
			Sync: 0b1010, Queued: 0b0100, Dropped: 0b0001,
			Type: core.EvSyscall, VCPU: 1, Reason: uint8(hav.ExitEPTViolation),
		},
		{Span: 0, TimeNS: -1, Type: core.EvHalt}, // synthetic: zero reason
	}
	var buf bytes.Buffer
	if err := WriteExits(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if want := headerSize + len(recs)*exitRecSize; buf.Len() != want {
		t.Fatalf("encoded %d bytes, want %d", buf.Len(), want)
	}
	got, err := ReadExits(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	recs := []core.SpanRecord{
		{Span: core.MintSpan(1, 5, 0), TimeNS: 99, VM: 1, Phase: core.PhaseDecode, Actor: 0},
		{Span: core.MintSpan(1, 5, 0), TimeNS: 120, VM: 1, Phase: core.PhaseDrain, Actor: 3},
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("round trip %+v, want %+v", got, recs)
	}
}

func TestCodecRejectsDamage(t *testing.T) {
	var good bytes.Buffer
	if err := WriteExits(&good, []core.FlightExit{{Type: core.EvHalt}}); err != nil {
		t.Fatal(err)
	}

	badMagic := append([]byte{}, good.Bytes()...)
	badMagic[0] = 'X'
	if _, err := ReadExits(bytes.NewReader(badMagic)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic not rejected: %v", err)
	}

	badVersion := append([]byte{}, good.Bytes()...)
	badVersion[4] = 99
	if _, err := ReadExits(bytes.NewReader(badVersion)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version not rejected: %v", err)
	}

	// An exits file read as spans is a kind mismatch.
	if _, err := ReadSpans(bytes.NewReader(good.Bytes())); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("kind mismatch not rejected: %v", err)
	}

	badReason := append([]byte{}, good.Bytes()...)
	badReason[headerSize+50] = 200 // Reason byte of record 0
	if _, err := ReadExits(bytes.NewReader(badReason)); err == nil || !strings.Contains(err.Error(), "exit reason") {
		t.Errorf("invalid exit reason not rejected: %v", err)
	}

	truncated := good.Bytes()[:headerSize+10]
	if _, err := ReadExits(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated payload not rejected")
	}
}

// bundleHost builds a 2-VM EM with a flight table and some recorded traffic.
func bundleHost(t *testing.T) (*core.Multiplexer, *core.FlightTable) {
	t.Helper()
	em := core.NewMultiplexer()
	fl := core.NewFlightTable(2, 32, 0)
	em.SetFlight(fl)
	for _, name := range []string{"alpha", "beta"} {
		if _, err := em.AttachVM(name); err != nil {
			t.Fatal(err)
		}
	}
	aud := &core.AuditorFunc{AuditorName: "goshd", EventMask: core.MaskAll, Fn: func(*core.Event) {}}
	if err := em.Register(aud, core.DeliverSync, 0); err != nil {
		t.Fatal(err)
	}
	// Sequences start at 1: MintSpan(0, 0, 0) is the reserved "no span" value.
	for i := 0; i < 5; i++ {
		ev := &core.Event{Type: core.EvSyscall, VM: core.VMID(i % 2), Seq: uint64(i + 1),
			Time: time.Duration(i) * time.Millisecond, Span: core.MintSpan(core.VMID(i%2), uint64(i+1), 0)}
		em.Publish(ev)
		em.RecordSpan(ev.Span, ev.VM, core.PhaseDecode, 0, ev.Time)
	}
	return em, fl
}

func TestSinkBundleRoundTrip(t *testing.T) {
	em, _ := bundleHost(t)
	reg := telemetry.NewRegistry()
	reg.Counter("hypertap_test_total", telemetry.L("vm", "alpha")).Add(7)

	dir := t.TempDir()
	sink, err := NewSink(SinkConfig{
		Dir: dir, EM: em, Telemetry: reg,
		Context: map[string]string{"seed": "42", "unit": "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	bdir, err := sink.Raise("panic", 1, 5*time.Millisecond, errors.New("auditor goshd panicked: boom"))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(bdir) != "incident-000-panic" {
		t.Fatalf("bundle dir %q", bdir)
	}
	if got := sink.Raised(); len(got) != 1 || got[0] != bdir {
		t.Fatalf("Raised() = %v", got)
	}

	b, err := LoadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Kind != "panic" || b.Meta.VM != 1 || b.Meta.VMName != "beta" {
		t.Fatalf("meta %+v", b.Meta)
	}
	if b.Meta.Context["seed"] != "42" || b.Meta.Context["unit"] != "3" {
		t.Fatalf("context %v lost campaign coordinates", b.Meta.Context)
	}
	if len(b.Meta.Actors) != 2 || b.Meta.Actors[0] != "em" || b.Meta.Actors[1] != "goshd" {
		t.Fatalf("actors %v", b.Meta.Actors)
	}
	if len(b.Exits) != 2 {
		t.Fatalf("bundle carries %d VM rings, want 2", len(b.Exits))
	}
	if len(b.Exits[0]) != 3 || len(b.Exits[1]) != 2 {
		t.Fatalf("ring sizes %d/%d, want 3/2", len(b.Exits[0]), len(b.Exits[1]))
	}
	if b.Exits[1][1].Span != core.MintSpan(1, 4, 0) {
		t.Fatalf("vm1 exit span %#x", uint64(b.Exits[1][1].Span))
	}
	// Raise stamped an incident span referencing VM 1's latest exit.
	last := b.Spans[len(b.Spans)-1]
	if last.Phase != core.PhaseIncident || last.VM != 1 || last.Span != core.MintSpan(1, 4, 0) {
		t.Fatalf("last span %+v, want the incident marker on vm1's latest exit", last)
	}
	if b.Telemetry == nil || len(b.Telemetry.Counters) == 0 || b.Telemetry.Counters[0].Value != 7 {
		t.Fatalf("telemetry snapshot %+v", b.Telemetry)
	}
	if b.RHC != nil {
		t.Fatal("no RHC configured, rhc.json should be absent")
	}

	// A second incident gets its own numbered directory.
	bdir2, err := sink.Raise("detection!", 0, 6*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(bdir2) != "incident-001-detection-" {
		t.Fatalf("second bundle dir %q", bdir2)
	}
}

func TestSinkRequiresFlightTable(t *testing.T) {
	em := core.NewMultiplexer()
	if _, err := NewSink(SinkConfig{Dir: t.TempDir(), EM: em}); err == nil {
		t.Fatal("sink accepted an EM without a flight table")
	}
	if _, err := NewSink(SinkConfig{EM: em}); err == nil {
		t.Fatal("sink accepted an empty dir")
	}
	if _, err := NewSink(SinkConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("sink accepted a nil EM")
	}
}

func TestSinkRHCState(t *testing.T) {
	em, _ := bundleHost(t)
	srv, err := core.NewRHCServer("127.0.0.1:0", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := core.DialRHC("host0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	client.SendNamed("alpha", &core.Event{Seq: 41, Time: 3 * time.Millisecond})
	if _, ok := srv.WaitHeartbeat("alpha", 2*time.Second); !ok {
		t.Fatal("heartbeat never arrived")
	}

	sink, err := NewSink(SinkConfig{Dir: t.TempDir(), EM: em, RHC: srv})
	if err != nil {
		t.Fatal(err)
	}
	bdir, err := sink.Raise("error", 0, 0, errors.New("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if b.RHC == nil || b.RHC.Received != 1 {
		t.Fatalf("rhc state %+v", b.RHC)
	}
	beat, ok := b.RHC.Beats["alpha"]
	if !ok || beat.Seq != 41 || beat.VTimeNS != int64(3*time.Millisecond) {
		t.Fatalf("alpha beat %+v", beat)
	}
}

func TestWriteChrome(t *testing.T) {
	em, _ := bundleHost(t)
	sink, err := NewSink(SinkConfig{Dir: t.TempDir(), EM: em})
	if err != nil {
		t.Fatal(err)
	}
	bdir, err := sink.Raise("detection", 0, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var names, exits, spans int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			names++
		case "X":
			exits++
		case "i":
			spans++
		}
	}
	if names < 4 { // process + 2 VM tracks + at least one auditor track
		t.Fatalf("%d metadata records, want the track names", names)
	}
	if exits != 5 {
		t.Fatalf("%d exit slices, want 5", exits)
	}
	if spans != 6 { // 5 decode markers + 1 incident marker
		t.Fatalf("%d span markers, want 6", spans)
	}
}

// TestChromeFromEvents also pins sparse labeling: tracks are named by VMID,
// so a cluster stream's VM 4 gets its header name, not a slot's.
func TestChromeFromEvents(t *testing.T) {
	events := []core.Event{
		{Type: core.EvSyscall, VM: 4, Seq: 1, Time: time.Millisecond, Span: core.MintSpan(4, 1, 0)},
		{Type: core.EvHalt, VM: 5, Seq: 2, Time: 2 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := ChromeFromEvents(&buf, events, map[core.VMID]string{4: "alpha"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"alpha"`, `"vm5"`, `"syscall"`, `"halt"`, `"span"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
}

func TestLoadBundleMissingDir(t *testing.T) {
	if _, err := LoadBundle(filepath.Join(os.TempDir(), "no-such-bundle-xyz")); err == nil {
		t.Fatal("loading a missing bundle should fail")
	}
}
