package flight

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
		{Span: core.MintSpan(1, 5, 0), TimeNS: 99, VM: 1, Phase: core.PhaseHeartbeat, Actor: 0},
		{Span: core.MintSpan(1, 5, 0), TimeNS: 120, VM: 1, Phase: core.PhaseVerdict, Actor: 3},
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

	badReserved := append([]byte{}, good.Bytes()...)
	badReserved[7] = '0'
	if _, err := ReadExits(bytes.NewReader(badReserved)); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("nonzero reserved header byte not rejected: %v", err)
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

// TestCodecHostileCount feeds headers claiming 1<<32-1 records followed by
// one record: the readers must fail at record 1 having allocated only for
// the record that is there, not for the count the header claims.
func TestCodecHostileCount(t *testing.T) {
	var exits, spans bytes.Buffer
	if err := WriteExits(&exits, []core.FlightExit{{Type: core.EvHalt}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpans(&spans, []core.SpanRecord{{Phase: core.PhaseVerdict}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		read func([]byte) error
	}{
		{"exits", exits.Bytes(), func(b []byte) error { _, err := ReadExits(bytes.NewReader(b)); return err }},
		{"spans", spans.Bytes(), func(b []byte) error { _, err := ReadSpans(bytes.NewReader(b)); return err }},
	} {
		binary.LittleEndian.PutUint32(c.data[8:], 1<<32-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read(c.data)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "record 1:") {
			t.Errorf("%s: err = %v, want a record-1 error", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: reading a 1-record file allocated %d bytes, want < 1 MiB", c.name, grew)
		}
	}
}

// bundleHost builds a 2-VM EM with a flight table and some recorded traffic.
func bundleHost(t testing.TB) (*core.Multiplexer, *core.FlightTable) {
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
		em.RecordSpan(ev.Span, ev.VM, core.PhaseHeartbeat, 0, ev.Time)
	}
	return em, fl
}

// raise raises a bundle on em and writes it to a fresh directory, which it
// returns.
func raise(t testing.TB, em *core.Multiplexer, vm core.VMID, at time.Duration) string {
	t.Helper()
	b, err := Raise(em, "detection", vm, at, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := b.Write(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSinkBundleRoundTrip(t *testing.T) {
	em, _ := bundleHost(t)
	reg := telemetry.NewRegistry()
	reg.Counter("hypertap_test_total", telemetry.L("vm", "alpha")).Add(7)

	raised, err := Raise(em, "panic", 1, 5*time.Millisecond, errors.New("auditor goshd panicked: boom"))
	if err != nil {
		t.Fatal(err)
	}
	raised.Meta.Context = map[string]string{"seed": "42", "unit": "3"}
	snap := reg.Snapshot()
	raised.Telemetry = &snap
	bdir := t.TempDir()
	if err := raised.Write(bdir); err != nil {
		t.Fatal(err)
	}

	b, err := LoadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Kind != "panic" || b.Meta.VM != 1 || b.Meta.VMName != "beta" ||
		b.Meta.Error != "auditor goshd panicked: boom" || b.Meta.VTimeNS != int64(5*time.Millisecond) {
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
		t.Fatal("no RHC state given, rhc.json should be absent")
	}
	if b.Capture != nil {
		t.Fatal("no capture given, capture.htcs should be absent")
	}
}

// TestBundleWriteRoundTrip pins that Write stores exactly what LoadBundle
// reads: a bundle raised on a 2-VM EM with telemetry, an RHC state and a
// capture loads back equal to itself, and writing the loaded bundle again
// reproduces every file byte for byte.
func TestBundleWriteRoundTrip(t *testing.T) {
	em, _ := bundleHost(t)
	reg := telemetry.NewRegistry()
	reg.Counter("hypertap_test_total", telemetry.L("vm", "beta")).Add(3)
	reg.Gauge("hypertap_test_depth").Set(1.5)
	reg.Histogram("hypertap_test_seconds").Observe(2 * time.Microsecond)

	raised, err := Raise(em, "detection", 0, 4*time.Millisecond, errors.New("goshd alarm"))
	if err != nil {
		t.Fatal(err)
	}
	raised.Meta.Context = map[string]string{"seed": "9"}
	snap := reg.Snapshot()
	raised.Telemetry = &snap
	raised.RHC = &RHCState{Received: 12, Beats: map[string]RHCBeat{"alpha": {Seq: 4, VTimeNS: 3e6}, "beta": {Seq: 5, VTimeNS: 4e6}}}
	raised.Capture = []byte("HTCS stream bytes, opaque to the bundle")

	first, second := t.TempDir(), t.TempDir()
	if err := raised.Write(first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Write(second); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadBundle(second)
	if err != nil {
		t.Fatal(err)
	}

	names := func(dir string) []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	want := []string{"capture.htcs", "flight-vm00000.bin", "flight-vm00001.bin", "meta.json", "rhc.json", "spans.bin", "telemetry.json"}
	if got := names(first); !reflect.DeepEqual(got, want) {
		t.Fatalf("first directory holds %v, want %v", got, want)
	}
	if got := names(second); !reflect.DeepEqual(got, want) {
		t.Fatalf("second directory holds %v, want %v", got, want)
	}
	for _, name := range want {
		a, errA := os.ReadFile(filepath.Join(first, name))
		b, errB := os.ReadFile(filepath.Join(second, name))
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between the two writes", name)
		}
	}
	loaded.Dir, reloaded.Dir = "", ""
	if !reflect.DeepEqual(loaded, reloaded) {
		t.Fatalf("rewritten bundle loads as\n%+v\nwant\n%+v", reloaded, loaded)
	}
	if !reflect.DeepEqual(loaded, raised) {
		t.Fatalf("written bundle loads as\n%+v\nwant the raised\n%+v", loaded, raised)
	}
}

// TestBundleEmptyTelemetryListsRoundTrip pins load→write→load as an
// identity for telemetry whose lists are present but empty: Write omits an
// empty list, so LoadBundle must load one as nil in the first place.
func TestBundleEmptyTelemetryListsRoundTrip(t *testing.T) {
	em, _ := bundleHost(t)
	raised, err := Raise(em, "detection", 0, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tel := range []string{
		`{"counters": []}`,
		`{"counters": [{"name": "c", "labels": [], "value": 1}], "gauges": [], "histograms": [{"name": "h", "labels": [], "buckets": []}]}`,
	} {
		first, second := t.TempDir(), t.TempDir()
		if err := raised.Write(first); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(first, "telemetry.json"), []byte(tel), 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadBundle(first)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Write(second); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadBundle(second)
		if err != nil {
			t.Fatal(err)
		}
		loaded.Dir, reloaded.Dir = "", ""
		if !reflect.DeepEqual(loaded, reloaded) {
			t.Errorf("telemetry %s: rewritten bundle loads as\n%+v\nwant\n%+v", tel, reloaded.Telemetry, loaded.Telemetry)
		}
	}
}

func TestSinkRequiresFlightTable(t *testing.T) {
	em := core.NewMultiplexer()
	if _, err := Raise(em, "detection", 0, 0, nil); err == nil {
		t.Fatal("Raise accepted an EM without a flight table")
	}
	if _, err := Raise(nil, "detection", 0, 0, nil); err == nil {
		t.Fatal("Raise accepted a nil EM")
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

	raised, err := Raise(em, "error", 0, 0, errors.New("x"))
	if err != nil {
		t.Fatal(err)
	}
	raised.RHC = RHCStateOf(srv, raised.Meta.VMNames)
	bdir := t.TempDir()
	if err := raised.Write(bdir); err != nil {
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
	if _, ok := b.RHC.Beats["beta"]; ok {
		t.Fatal("beta never beat, but the RHC state holds a beat for it")
	}
}

func TestWriteChrome(t *testing.T) {
	em, _ := bundleHost(t)
	b, err := LoadBundle(raise(t, em, 0, time.Millisecond))
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
	if spans != 6 { // 5 heartbeat markers + 1 incident marker
		t.Fatalf("%d span markers, want 6", spans)
	}
}

// TestWriteChromeTrackIDsUnique renders a bundle with more VMs than the old
// auditor track offset (1,001) and checks that every named track has its own
// ID, so no VM's exits land on an auditor's track.
func TestWriteChromeTrackIDsUnique(t *testing.T) {
	b := &Bundle{
		Meta:  Incident{Actors: []string{"em", "hrkd", "goshd", "ninja"}},
		Exits: make([][]core.FlightExit, 1001),
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	owner := make(map[int]string)
	for _, ev := range doc.TraceEvents {
		if ev.Name != "thread_name" {
			continue
		}
		if prev, ok := owner[ev.TID]; ok {
			t.Fatalf("track %d is named both %q and %q", ev.TID, prev, ev.Args["name"])
		}
		owner[ev.TID] = ev.Args["name"]
	}
	if want := 1 + 1001 + len(b.Meta.Actors); len(owner) != want {
		t.Fatalf("%d named tracks, want %d (process, 1001 VMs, %d actors)", len(owner), want, len(b.Meta.Actors))
	}
}

// TestChromeFromEvents also pins track labels: tracks are named by VMID
// from the header's name list, and a VM past it is labeled "vmN".
func TestChromeFromEvents(t *testing.T) {
	events := []core.Event{
		{Type: core.EvSyscall, VM: 0, Seq: 1, Time: time.Millisecond, Span: core.MintSpan(0, 1, 0)},
		{Type: core.EvHalt, VM: 1, Seq: 2, Time: 2 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := ChromeFromEvents(&buf, events, []string{"alpha"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"alpha"`, `"vm1"`, `"syscall"`, `"halt"`, `"span"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
}

// TestLoadBundleRingSet pins the ring-file contract: ring i is VM i, both
// name paddings load, an older bundle's leftover flight-overflow.bin is
// ignored, and a set that is not exactly VMIDs 0..n-1 — a gap or the same
// VMID under two paddings — is rejected.
func TestLoadBundleRingSet(t *testing.T) {
	em, _ := bundleHost(t)
	bdir := raise(t, em, 0, 0)
	ring := func(name string) string { return filepath.Join(bdir, name) }
	if _, err := os.Stat(ring("flight-overflow.bin")); !os.IsNotExist(err) {
		t.Fatalf("Write wrote flight-overflow.bin (stat err %v)", err)
	}
	var old bytes.Buffer
	if err := WriteExits(&old, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ring("flight-overflow.bin"), old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bdir)
	if err != nil {
		t.Fatalf("bundle with a leftover flight-overflow.bin: %v", err)
	}
	if len(b.Exits) != 2 || len(b.Exits[0]) != 3 || len(b.Exits[1]) != 2 {
		t.Fatalf("bundle with a leftover flight-overflow.bin loaded %d rings, want VM 0 with 3 exits and VM 1 with 2", len(b.Exits))
	}

	for _, id := range []string{"0", "1"} {
		if err := os.Rename(ring("flight-vm0000"+id+".bin"), ring("flight-vm00"+id+".bin")); err != nil {
			t.Fatal(err)
		}
	}
	if b, err = LoadBundle(bdir); err != nil {
		t.Fatalf("old %%03d ring names: %v", err)
	}
	if len(b.Exits) != 2 || len(b.Exits[0]) != 3 || len(b.Exits[1]) != 2 {
		t.Fatalf("old ring names loaded %d rings, want VM 0 with 3 exits and VM 1 with 2", len(b.Exits))
	}

	data, err := os.ReadFile(ring("flight-vm000.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ring("flight-vm00000.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(bdir); err == nil || !strings.Contains(err.Error(), "VMID sequence") {
		t.Fatalf("VM 0 under two paddings: err = %v, want a VMID-sequence rejection", err)
	}
	if err := os.Rename(ring("flight-vm00000.bin"), ring("flight-vm00003.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(bdir); err == nil || !strings.Contains(err.Error(), "VMID sequence") {
		t.Fatalf("rings 0, 1, 3: err = %v, want a VMID-sequence rejection", err)
	}
}

// TestRaiseDuringAttach raises bundles while another goroutine attaches
// VMs and publishes on them, so the flight table grows under Raise's reads
// (make race runs it under -race). Every bundle holds exactly one ring per
// VM its manifest names, as raised and as written and loaded back.
func TestRaiseDuringAttach(t *testing.T) {
	em := core.NewMultiplexer()
	if _, err := em.AttachVM("vm0"); err != nil {
		t.Fatal(err)
	}
	em.SetFlight(core.NewFlightTable(1, 16, 0))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < 16; i++ {
			vm, err := em.AttachVM(fmt.Sprintf("vm%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			em.Publish(&core.Event{Type: core.EvHalt, VM: vm, Seq: uint64(i)})
		}
	}()
	var bundles []*Bundle
	for i := 0; i < 8; i++ {
		b, err := Raise(em, "detection", 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, b)
	}
	<-done
	for i, raised := range bundles {
		dir := t.TempDir()
		if err := raised.Write(dir); err != nil {
			t.Fatal(err)
		}
		b, err := LoadBundle(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []*Bundle{raised, b} {
			if len(b.Exits) != len(b.Meta.VMNames) {
				t.Fatalf("bundle %d: %d rings for %d VMs", i, len(b.Exits), len(b.Meta.VMNames))
			}
		}
	}
}

func TestLoadBundleMissingDir(t *testing.T) {
	if _, err := LoadBundle(filepath.Join(os.TempDir(), "no-such-bundle-xyz")); err == nil {
		t.Fatal("loading a missing bundle should fail")
	}
}
