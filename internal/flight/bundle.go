package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/telemetry"
)

// Incident bundles: Raise marks an incident on a live EM and returns its
// Bundle — every VM's flight ring, the span ring and a manifest — and the
// caller adds what it holds: its context, a telemetry snapshot, the RHC's
// view and the recorded exit stream. Bundle.Write stores it as a
// self-contained directory that LoadBundle reads back, so the run can be
// inspected and its auditor plane replayed from the artifact alone, with no
// access to the original process. cmd/hypertap raises one at shutdown.

// Incident is the bundle's manifest (meta.json).
type Incident struct {
	// FormatVersion pins the bundle layout.
	FormatVersion int `json:"format_version"`
	// Kind classifies the trigger: "shutdown", "detection", ...
	Kind string `json:"kind"`
	// VM is the implicated VM's ID; VMName its attached name when known.
	VM     core.VMID `json:"vm"`
	VMName string    `json:"vm_name,omitempty"`
	// Error carries the rendered cause, empty for a clean capture.
	Error string `json:"error,omitempty"`
	// VTimeNS is the virtual time of capture.
	VTimeNS int64 `json:"vtime_ns"`
	// Context carries caller coordinates: the run's seed, ... Like VMNames
	// it has no omitempty, so an empty one writes back as itself and a
	// loaded bundle rewrites to an equal one.
	Context map[string]string `json:"context"`
	// Actors is the EM's actor table (index = actor ID in the bitmasks).
	Actors []string `json:"actors"`
	// VMNames lists the attached VMs by VMID at capture time.
	VMNames []string `json:"vm_names"`
}

// RHCBeat is one VM's last heartbeat as the RHC saw it. Only the
// deterministic fields are kept; wall-clock arrival time stays out of the
// bundle so artifacts from equal seeds stay byte-identical.
type RHCBeat struct {
	Seq     uint64 `json:"seq"`
	VTimeNS int64  `json:"vtime_ns"`
}

// RHCState is the Remote Health Checker's view at capture time (rhc.json).
type RHCState struct {
	Received uint64             `json:"received"`
	Beats    map[string]RHCBeat `json:"beats"`
}

// Raise marks an incident on em and returns its bundle. It records a
// PhaseIncident step on VM vm's latest exit span, so the capture shows on
// the causal timeline, then snapshots em's tracing plane with the manifest
// filled in: kind classifies the trigger ("shutdown", "detection", ...), at
// is the virtual capture time and cause, when non-nil, the error or verdict
// behind it. The caller adds what it holds — Meta.Context, Telemetry, RHC,
// Capture — and stores the bundle with Write.
func Raise(em *core.Multiplexer, kind string, vm core.VMID, at time.Duration, cause error) (*Bundle, error) {
	if em == nil || em.Flight() == nil {
		return nil, errors.New("flight: the EM has no flight table (tracing plane disabled)")
	}
	exits := em.FlightExits(vm)
	var span core.SpanID
	if len(exits) > 0 {
		span = exits[len(exits)-1].Span
	}
	em.RecordSpan(span, vm, core.PhaseIncident, 0, at)

	b := Snapshot(em)
	meta := &b.Meta
	meta.Kind = kind
	meta.VM = vm
	meta.VTimeNS = int64(at)
	if int(vm) < len(meta.VMNames) {
		meta.VMName = meta.VMNames[vm]
	}
	if cause != nil {
		meta.Error = cause.Error()
	}
	return b, nil
}

// RHCStateOf is srv's view of the named VMs' last heartbeats, for a
// bundle's RHC field.
func RHCStateOf(srv *core.RHCServer, vmNames []string) *RHCState {
	state := &RHCState{Received: srv.Received(), Beats: make(map[string]RHCBeat)}
	for _, name := range vmNames {
		if hb, ok := srv.LastHeartbeat(name); ok {
			state.Beats[name] = RHCBeat{Seq: hb.Seq, VTimeNS: int64(hb.VTime)}
		}
	}
	return state
}

// Write stores b under dir, creating it, as exactly the files LoadBundle
// reads back: meta.json, one flight-vm%05d.bin per VM ring (ring i is VMID
// i), spans.bin, and telemetry.json, rhc.json and capture.htcs when b
// carries them.
func (b *Bundle) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), &b.Meta); err != nil {
		return err
	}
	for id, ring := range b.Exits {
		if err := writeBin(filepath.Join(dir, fmt.Sprintf("flight-vm%05d.bin", id)), func(f *os.File) error {
			return WriteExits(f, ring)
		}); err != nil {
			return err
		}
	}
	if err := writeBin(filepath.Join(dir, "spans.bin"), func(f *os.File) error {
		return WriteSpans(f, b.Spans)
	}); err != nil {
		return err
	}
	if b.Telemetry != nil {
		if err := writeJSON(filepath.Join(dir, "telemetry.json"), b.Telemetry); err != nil {
			return err
		}
	}
	if b.RHC != nil {
		if err := writeJSON(filepath.Join(dir, "rhc.json"), b.RHC); err != nil {
			return err
		}
	}
	if len(b.Capture) > 0 {
		if err := os.WriteFile(filepath.Join(dir, "capture.htcs"), b.Capture, 0o644); err != nil {
			return fmt.Errorf("flight: %w", err)
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		_ = f.Close()
		return fmt.Errorf("flight: %s: %w", path, err)
	}
	return f.Close()
}

func writeBin(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	if err := fill(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("flight: %s: %w", path, err)
	}
	return f.Close()
}

// Snapshot copies em's tracing plane into a Bundle: the VM names, the actor
// table, one exit ring per attached VM and the span ring. Only the
// manifest's format version, actors and VM names are set; Raise fills in
// the incident, and /flight renders a snapshot with WriteChrome. With no
// flight table attached the rings and the span list are empty.
func Snapshot(em *core.Multiplexer) *Bundle {
	b := &Bundle{Meta: Incident{FormatVersion: Version, Actors: em.ActorNames(), VMNames: em.VMs()}}
	b.Exits = make([][]core.FlightExit, len(b.Meta.VMNames))
	for id := range b.Exits {
		b.Exits[id] = em.FlightExits(core.VMID(id))
	}
	b.Spans = em.FlightSpans()
	return b
}

// Bundle is an incident: what Raise or Snapshot copies from a live EM,
// Write stores and LoadBundle reads back.
type Bundle struct {
	// Dir is the directory the bundle was loaded from; empty for a
	// Snapshot.
	Dir string
	// Meta is the manifest.
	Meta Incident
	// Exits holds the per-VM ring captures indexed by VMID: Exits[i] is
	// VM i's ring.
	Exits [][]core.FlightExit
	// Spans is the span-ring capture.
	Spans []core.SpanRecord
	// Telemetry is the capture-time metrics snapshot, nil when absent.
	Telemetry *telemetry.Snapshot
	// RHC is the health checker's view, nil when absent.
	RHC *RHCState
	// Capture is the recorded exit stream (internal/capture format), nil
	// when absent. experiment.ReplayStream re-drives the auditor plane from
	// it, from the artifact alone.
	Capture []byte
}

// LoadBundle reads an incident directory written by Bundle.Write.
func LoadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	if err := readJSON(filepath.Join(dir, "meta.json"), &b.Meta); err != nil {
		return nil, err
	}
	if b.Meta.FormatVersion != Version {
		return nil, fmt.Errorf("flight: bundle format %d, this reader handles %d", b.Meta.FormatVersion, Version)
	}
	ringFiles, err := filepath.Glob(filepath.Join(dir, "flight-vm*.bin"))
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	// Ring files embed the VMID (flight-vm%05d.bin; older bundles used
	// %03d), and the set must be exactly VMIDs 0..n-1.
	b.Exits = make([][]core.FlightExit, len(ringFiles))
	loaded := make([]bool, len(ringFiles))
	for _, rf := range ringFiles {
		numeric := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(rf), "flight-vm"), ".bin")
		id, convErr := strconv.Atoi(numeric)
		if convErr != nil || id < 0 {
			return nil, fmt.Errorf("flight: ring file %s has no parsable VMID", rf)
		}
		if id >= len(ringFiles) || loaded[id] {
			return nil, fmt.Errorf("flight: ring file %s breaks the VMID sequence 0..%d", rf, len(ringFiles)-1)
		}
		loaded[id] = true
		if b.Exits[id], err = readExitsFile(rf); err != nil {
			return nil, err
		}
	}
	// Bundles from before every published VMID had a ring also carry a
	// flight-overflow.bin; no VM owns it, so it is not read.
	spansPath := filepath.Join(dir, "spans.bin")
	sf, err := os.Open(spansPath)
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	b.Spans, err = ReadSpans(sf)
	_ = sf.Close()
	if err != nil {
		return nil, fmt.Errorf("flight: %s: %w", spansPath, err)
	}
	telPath := filepath.Join(dir, "telemetry.json")
	if _, statErr := os.Stat(telPath); statErr == nil {
		var snap telemetry.Snapshot
		if err := readJSON(telPath, &snap); err != nil {
			return nil, err
		}
		// Write omits an empty list (omitempty), which then loads as nil;
		// loading every empty list as nil makes load→write→load an identity.
		snap.Counters = emptyToNil(snap.Counters)
		for i := range snap.Counters {
			snap.Counters[i].Labels = emptyToNil(snap.Counters[i].Labels)
		}
		snap.Gauges = emptyToNil(snap.Gauges)
		for i := range snap.Gauges {
			snap.Gauges[i].Labels = emptyToNil(snap.Gauges[i].Labels)
		}
		snap.Histograms = emptyToNil(snap.Histograms)
		for i := range snap.Histograms {
			snap.Histograms[i].Labels = emptyToNil(snap.Histograms[i].Labels)
		}
		b.Telemetry = &snap
	}
	rhcPath := filepath.Join(dir, "rhc.json")
	if _, statErr := os.Stat(rhcPath); statErr == nil {
		var state RHCState
		if err := readJSON(rhcPath, &state); err != nil {
			return nil, err
		}
		b.RHC = &state
	}
	capPath := filepath.Join(dir, "capture.htcs")
	if stream, readErr := os.ReadFile(capPath); readErr == nil {
		// An empty stream is no stream: Write skips it, so it loads as nil.
		if len(stream) > 0 {
			b.Capture = stream
		}
	} else if !os.IsNotExist(readErr) {
		return nil, fmt.Errorf("flight: %w", readErr)
	}
	return b, nil
}

// emptyToNil returns nil for an empty list and s otherwise.
func emptyToNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func readExitsFile(path string) ([]core.FlightExit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	recs, err := ReadExits(f)
	_ = f.Close()
	if err != nil {
		return nil, fmt.Errorf("flight: %s: %w", path, err)
	}
	return recs, nil
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	defer func() { _ = f.Close() }()
	if err := json.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("flight: %s: %w", path, err)
	}
	return nil
}
