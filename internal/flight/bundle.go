package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/telemetry"
)

// Incident bundles: when an auditor raises a detection, returns an error or
// panics, the host dumps a self-contained directory — the implicated VM's
// flight ring plus every other ring on the host, the span ring, a telemetry
// snapshot, the RHC's view and the campaign coordinates — so the failure
// replays from the artifact alone, with no access to the original process.

// Incident is the bundle's manifest (meta.json).
type Incident struct {
	// FormatVersion pins the bundle layout.
	FormatVersion int `json:"format_version"`
	// Index is the sink-local incident number (0, 1, ...).
	Index int `json:"index"`
	// Kind classifies the trigger: "detection", "error", "panic", ...
	Kind string `json:"kind"`
	// Host names the host the incident was captured on. Under the cluster
	// plane VMIDs are cluster-global, so VM alone identifies the guest and
	// Host says which host's monitor captured the evidence.
	Host string `json:"host,omitempty"`
	// VM is the implicated VM's ID; VMName its attached name when known.
	VM     core.VMID `json:"vm"`
	VMName string    `json:"vm_name,omitempty"`
	// Error carries the rendered detection / error / panic value.
	Error string `json:"error,omitempty"`
	// VTimeNS is the virtual time of capture.
	VTimeNS int64 `json:"vtime_ns"`
	// Context carries caller coordinates: campaign seed, unit index, ...
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
	// Host names the capturing host in every bundle manifest. Optional for
	// solo deployments; cluster hosts set it so every incident says where
	// the evidence was captured.
	Host string
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
	// Context is stamped into every bundle's manifest (campaign seed, ...).
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
// implicated VM, at is the virtual capture time and cause the detection /
// error / recovered panic. It returns the bundle directory.
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

	vmNames := em.VMs()
	meta := Incident{
		FormatVersion: Version,
		Index:         idx,
		Kind:          kind,
		Host:          s.cfg.Host,
		VM:            vm,
		VTimeNS:       int64(at),
		Context:       s.cfg.Context,
		Actors:        em.ActorNames(),
		VMNames:       vmNames,
	}
	if int(vm) < len(vmNames) {
		meta.VMName = vmNames[vm]
	}
	if cause != nil {
		meta.Error = cause.Error()
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), &meta); err != nil {
		return "", err
	}

	// Ring files carry the VMID in the name. The EM enumerates the mapped
	// rings itself — under the cluster's sparse ID namespace (host h owns
	// [h·N, h·N+N)) ring index and VMID are no longer the same thing.
	for _, id := range em.FlightVMs() {
		if err := writeBin(filepath.Join(dir, fmt.Sprintf("flight-vm%05d.bin", id)), func(f *os.File) error {
			return WriteExits(f, em.FlightExits(id))
		}); err != nil {
			return "", err
		}
	}
	if err := writeBin(filepath.Join(dir, "flight-overflow.bin"), func(f *os.File) error {
		return WriteExits(f, em.FlightOverflow())
	}); err != nil {
		return "", err
	}
	if err := writeBin(filepath.Join(dir, "spans.bin"), func(f *os.File) error {
		return WriteSpans(f, em.FlightSpans())
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
		for _, name := range vmNames {
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

// Bundle is a loaded incident: everything Raise wrote, decoded.
type Bundle struct {
	// Dir is the directory the bundle was loaded from.
	Dir string
	// Meta is the manifest.
	Meta Incident
	// Exits holds the per-VM ring captures in ascending-VMID order; ring i
	// belongs to ExitVMs[i]. On a solo (base-0, dense) host the two orders
	// coincide, so Exits[vm] keeps working as an index by VMID there.
	Exits [][]core.FlightExit
	// ExitVMs gives each ring's VMID, parsed from the ring file names —
	// sparse under the cluster plane's per-host ID ranges.
	ExitVMs []core.VMID
	// Overflow is the out-of-range-VMID ring capture.
	Overflow []core.FlightExit
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
	// %03d). Sorting numerically by the parsed ID keeps ring order stable
	// across both paddings and under sparse cluster IDs.
	ids := make(map[string]int, len(ringFiles))
	for _, rf := range ringFiles {
		numeric := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(rf), "flight-vm"), ".bin")
		id, convErr := strconv.Atoi(numeric)
		if convErr != nil || id < 0 || id > int(^uint16(0)) {
			return nil, fmt.Errorf("flight: ring file %s has no parsable VMID", rf)
		}
		ids[rf] = id
	}
	sort.Slice(ringFiles, func(i, j int) bool { return ids[ringFiles[i]] < ids[ringFiles[j]] })
	for _, rf := range ringFiles {
		recs, err := readExitsFile(rf)
		if err != nil {
			return nil, err
		}
		b.Exits = append(b.Exits, recs)
		b.ExitVMs = append(b.ExitVMs, core.VMID(ids[rf]))
	}
	if b.Overflow, err = readExitsFile(filepath.Join(dir, "flight-overflow.bin")); err != nil {
		return nil, err
	}
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
