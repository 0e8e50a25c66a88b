package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/telemetry"
)

// Incident bundles: on Sink.Raise the host dumps a self-contained
// directory — every VM's flight ring, the span ring, a telemetry snapshot,
// the RHC's view, the caller's context and, when the sink was given one, the
// recorded exit stream — so the run can be inspected and its auditor plane
// replayed from the artifact alone, with no access to the original process.
// cmd/hypertap raises one at shutdown.

// Incident is the bundle's manifest (meta.json).
type Incident struct {
	// FormatVersion pins the bundle layout.
	FormatVersion int `json:"format_version"`
	// Index is the sink-local incident number (0, 1, ...).
	Index int `json:"index"`
	// Kind classifies the trigger: "shutdown", "detection", ...
	Kind string `json:"kind"`
	// VM is the implicated VM's ID; VMName its attached name when known.
	VM     core.VMID `json:"vm"`
	VMName string    `json:"vm_name,omitempty"`
	// Error carries the rendered cause, empty for a clean capture.
	Error string `json:"error,omitempty"`
	// VTimeNS is the virtual time of capture.
	VTimeNS int64 `json:"vtime_ns"`
	// Context carries caller coordinates: the run's seed, ...
	Context map[string]string `json:"context,omitempty"`
	// Actors is the EM's actor table (index = actor ID in the bitmasks).
	Actors []string `json:"actors"`
	// VMNames lists the attached VMs by VMID at capture time.
	VMNames []string `json:"vm_names,omitempty"`
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
	Beats    map[string]RHCBeat `json:"beats,omitempty"`
}

// SinkConfig wires an incident sink to a running host.
type SinkConfig struct {
	// Dir is the directory incidents are written under (created on demand).
	Dir string
	// EM is the multiplexer whose flight table is drained. Required, and it
	// must have a flight table attached (core.Multiplexer.SetFlight).
	EM *core.Multiplexer
	// Telemetry, when set, is snapshotted into each bundle.
	Telemetry *telemetry.Registry
	// RHC, when set, contributes its per-VM heartbeat view.
	RHC *core.RHCServer
	// Capture, when set, supplies the host's recorded exit stream
	// (internal/capture format) at incident time; Raise writes it into the
	// bundle as capture.htcs. A callback rather than bytes keeps this package
	// decoupled from the capture codec and lets the recorder flush lazily —
	// only an actual incident pays for materializing the stream.
	Capture func() []byte
	// Context is stamped into every bundle's manifest (the run's seed, ...).
	Context map[string]string
}

// Sink captures incident bundles. Safe for concurrent Raise calls; each call
// gets its own numbered directory.
type Sink struct {
	cfg SinkConfig

	mu     sync.Mutex
	n      int
	raised []string
}

// NewSink validates the wiring and creates the incident directory.
func NewSink(cfg SinkConfig) (*Sink, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flight: SinkConfig.Dir is required")
	}
	if cfg.EM == nil {
		return nil, fmt.Errorf("flight: SinkConfig.EM is required")
	}
	if cfg.EM.Flight() == nil {
		return nil, fmt.Errorf("flight: the EM has no flight table (tracing plane disabled)")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	return &Sink{cfg: cfg}, nil
}

// sanitizeKind keeps incident directory names shell-friendly.
func sanitizeKind(kind string) string {
	if kind == "" {
		return "incident"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, kind)
}

// Raise captures one bundle: kind classifies the trigger, vm names the
// implicated VM, at is the virtual capture time and cause, when non-nil,
// the error or verdict that raised it. It returns the bundle directory.
func (s *Sink) Raise(kind string, vm core.VMID, at time.Duration, cause error) (string, error) {
	s.mu.Lock()
	idx := s.n
	s.n++
	s.mu.Unlock()

	em := s.cfg.EM
	// Stamp the incident into the span ring under the implicated VM's most
	// recent span, so the capture itself shows up on the causal timeline.
	exits := em.FlightExits(vm)
	var span core.SpanID
	if len(exits) > 0 {
		span = exits[len(exits)-1].Span
	}
	em.RecordSpan(span, vm, core.PhaseIncident, 0, at)

	dir := filepath.Join(s.cfg.Dir, fmt.Sprintf("incident-%03d-%s", idx, sanitizeKind(kind)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}

	b := Snapshot(em)
	meta := &b.Meta
	meta.Index = idx
	meta.Kind = kind
	meta.VM = vm
	meta.VTimeNS = int64(at)
	meta.Context = s.cfg.Context
	if int(vm) < len(meta.VMNames) {
		meta.VMName = meta.VMNames[vm]
	}
	if cause != nil {
		meta.Error = cause.Error()
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), meta); err != nil {
		return "", err
	}

	// One ring file per VM, carrying the VMID in the name: ring i is VMID i.
	for id, ring := range b.Exits {
		if err := writeBin(filepath.Join(dir, fmt.Sprintf("flight-vm%05d.bin", id)), func(f *os.File) error {
			return WriteExits(f, ring)
		}); err != nil {
			return "", err
		}
	}
	if err := writeBin(filepath.Join(dir, "spans.bin"), func(f *os.File) error {
		return WriteSpans(f, b.Spans)
	}); err != nil {
		return "", err
	}

	if s.cfg.Capture != nil {
		if stream := s.cfg.Capture(); len(stream) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "capture.htcs"), stream, 0o644); err != nil {
				return "", fmt.Errorf("flight: %w", err)
			}
		}
	}

	if s.cfg.Telemetry != nil {
		snap := s.cfg.Telemetry.Snapshot()
		if err := writeJSON(filepath.Join(dir, "telemetry.json"), &snap); err != nil {
			return "", err
		}
	}
	if s.cfg.RHC != nil {
		state := RHCState{Received: s.cfg.RHC.Received(), Beats: make(map[string]RHCBeat)}
		for _, name := range meta.VMNames {
			if hb, ok := s.cfg.RHC.LastHeartbeat(name); ok {
				state.Beats[name] = RHCBeat{Seq: hb.Seq, VTimeNS: int64(hb.VTime)}
			}
		}
		if err := writeJSON(filepath.Join(dir, "rhc.json"), &state); err != nil {
			return "", err
		}
	}

	s.mu.Lock()
	s.raised = append(s.raised, dir)
	s.mu.Unlock()
	return dir, nil
}

// Raised lists the bundle directories written so far.
func (s *Sink) Raised() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.raised))
	copy(out, s.raised)
	return out
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
// table, one exit ring per attached VM — VM 0's on a bare EM, which
// publishes everything as VM 0 — and the span ring. Only the manifest's
// format version, actors and VM names are set; Raise fills in the rest
// and writes it, and /flight renders it with WriteChrome. With no flight
// table attached the rings and the span list are empty.
func Snapshot(em *core.Multiplexer) *Bundle {
	b := &Bundle{Meta: Incident{FormatVersion: Version, Actors: em.ActorNames(), VMNames: em.VMs()}}
	b.Exits = make([][]core.FlightExit, max(len(b.Meta.VMNames), 1))
	for id := range b.Exits {
		b.Exits[id] = em.FlightExits(core.VMID(id))
	}
	b.Spans = em.FlightSpans()
	return b
}

// Bundle is an incident: everything Raise wrote, as LoadBundle decodes it
// or Snapshot copies it from a live EM.
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
	// Capture is the recorded exit stream (internal/capture format) when the
	// sink was armed with one, nil when absent. experiment.ReplayStream
	// re-drives the auditor plane from it, from the artifact alone.
	Capture []byte
}

// LoadBundle reads an incident directory written by Sink.Raise.
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
		b.Capture = stream
	} else if !os.IsNotExist(readErr) {
		return nil, fmt.Errorf("flight: %w", readErr)
	}
	return b, nil
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
