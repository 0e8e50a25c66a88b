package experiment

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/auditors/goshd"
	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/experiment/runner"
	"hypertap/internal/flight"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/telemetry"
)

// FleetConfig parameterizes the fleet campaign: a sharded run whose unit is
// not one VM but one N-VM *host* — the paper's Fig. 2 deployment replicated
// across a cluster. Each unit boots a host with a shared EM, per-VM GOSHD
// auditors and a fleet-wide event-rate accountant, runs a mixed workload,
// and reports per-VM and per-host outcomes.
type FleetConfig struct {
	// Hosts is the number of campaign units (default 4).
	Hosts int
	// VMsPerHost sizes each unit's fleet (default 3).
	VMsPerHost int
	// Duration is each host's virtual run length (default 2s).
	Duration time.Duration
	// Threshold is GOSHD's per-VM alarm threshold (default 100ms, scaled
	// to the short campaign run).
	Threshold time.Duration
	// Seed is the campaign seed. Unit i gets runner.UnitSeed(Seed, i);
	// within a unit, VM j's guest runs at unit seed + j.
	Seed int64
	// Parallel is the worker count; 0 selects GOMAXPROCS. Results are
	// identical regardless of parallelism.
	Parallel int
	// Progress, when set, is called after each host completes
	// (serialized by the campaign engine).
	Progress func(done, total int)
	// Telemetry, when set, receives each completed host's registry shard
	// as it finishes; per-VM labeled series roll up across the campaign.
	// ReplayStream instruments its replay EM and auditors on it directly.
	Telemetry *telemetry.Registry
	// FlightDepth sizes each unit host's flight-recorder rings
	// (host.Config.FlightDepth): zero selects the default, negative
	// disables the tracing plane.
	FlightDepth int
	// IncidentDir, when non-empty, arms incident capture: a unit that
	// panics, fails, or ends with auditor detections dumps a self-contained
	// bundle under IncidentDir/unit-NNN/, replayable with ReplayIncident.
	// Requires the tracing plane (FlightDepth >= 0).
	IncidentDir string
	// Capture additionally records each unit host's full decoded exit stream
	// (internal/capture format) and writes it into any raised bundle as
	// capture.htcs. Such bundles replay through ReplayIncidentStream — the
	// auditor plane re-runs from the artifact with no guest simulation at
	// all, unlike ReplayIncident's full re-execution. Requires IncidentDir.
	Capture bool
	// ExtraAuditors, when set, runs for each unit after the standard
	// auditors are registered and before boot — the fault-injection hook
	// campaign tests use to plant a panicking or erroring auditor.
	ExtraAuditors func(unit int, h *host.Host) error
}

func (c *FleetConfig) fillDefaults() {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.VMsPerHost <= 0 {
		c.VMsPerHost = 3
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Threshold == 0 {
		c.Threshold = 100 * time.Millisecond
	}
}

// FleetVMReport is one VM's outcome within its host.
type FleetVMReport struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Events   uint64 `json:"events"`
	Syscalls uint64 `json:"syscalls"`
	Switches uint64 `json:"context_switches"`
	Exits    uint64 `json:"vm_exits"`
	Alarms   int    `json:"goshd_alarms"`
}

// FleetHostReport is one unit's outcome.
type FleetHostReport struct {
	Host   string          `json:"host"`
	Seed   int64           `json:"seed"`
	VMs    []FleetVMReport `json:"vms"`
	Events uint64          `json:"events"`
	Storms int             `json:"storms"`
}

// FleetResult is the whole campaign.
type FleetResult struct {
	Hosts       []FleetHostReport `json:"hosts"`
	TotalEvents uint64            `json:"total_events"`
	TotalAlarms int               `json:"total_alarms"`
	TotalStorms int               `json:"total_storms"`
}

// fleetUnitWorkload gives VM slot j of every campaign host a deterministic,
// slot-distinct loop; the rotation keeps hosts heterogeneous without any
// per-host configuration.
func fleetUnitWorkload(slot int) []guest.Step {
	specs := [][]guest.Step{
		{guest.DoSyscall(guest.SysGetPID), guest.Compute(time.Millisecond)},
		{guest.DoSyscall(guest.SysWrite, 1, 64), guest.Compute(2 * time.Millisecond)},
		{guest.Compute(time.Millisecond), guest.Sleep(4 * time.Millisecond)},
	}
	return specs[slot%len(specs)]
}

// newFleetSink arms incident capture for one unit, stamping the campaign
// coordinates that make the bundle replayable. stream, when non-nil,
// contributes the recorded exit stream to each raised bundle.
func newFleetSink(cfg *FleetConfig, ctx *runner.Ctx, hostName string, h *host.Host, stream func() []byte) (*flight.Sink, error) {
	return flight.NewSink(flight.SinkConfig{
		Dir:       filepath.Join(cfg.IncidentDir, fmt.Sprintf("unit-%03d", ctx.Index)),
		Host:      hostName,
		EM:        h.EM(),
		Telemetry: ctx.Telemetry,
		Capture:   stream,
		Context: map[string]string{
			"campaign_seed": strconv.FormatInt(cfg.Seed, 10),
			"unit":          strconv.Itoa(ctx.Index),
			"unit_seed":     strconv.FormatInt(ctx.Seed, 10),
			"host":          hostName,
		},
	})
}

// runFleetUnit executes one campaign unit: an N-VM host with per-VM GOSHD,
// a fleet-wide accountant, and — when the campaign armed an IncidentDir —
// incident capture for panics, errors and detections.
func runFleetUnit(cfg *FleetConfig, ctx *runner.Ctx) (rep FleetHostReport, err error) {
	feat := intercept.Features{
		ProcessSwitch: true, ThreadSwitch: true, TSSIntegrity: true,
		Syscalls: true, IO: true,
	}
	hostName := fmt.Sprintf("host%d", ctx.Index)
	specs := make([]host.VMSpec, cfg.VMsPerHost)
	seeds := make([]int64, cfg.VMsPerHost)
	for j := range specs {
		seeds[j] = runner.UnitSeed(ctx.Seed, j)
		specs[j] = host.VMSpec{
			Name:    fmt.Sprintf("%s-vm%d", hostName, j),
			Guest:   guest.Config{Seed: seeds[j]},
			Monitor: true, Features: feat,
		}
	}
	h, err := host.New(host.Config{
		Name: hostName, VMs: specs, Telemetry: ctx.Telemetry,
		FlightDepth: cfg.FlightDepth,
	})
	if err != nil {
		return FleetHostReport{}, err
	}
	// Exit-stream capture: a recorder tapped into the host before boot sees
	// every decoded event, tick and barrier. The sink's Capture callback
	// flushes lazily — only a raised bundle materializes the stream.
	var capBuf bytes.Buffer
	var capRec *capture.Recorder
	var capStream func() []byte
	if cfg.Capture {
		if cfg.IncidentDir == "" {
			return FleetHostReport{}, fmt.Errorf("experiment: FleetConfig.Capture requires IncidentDir")
		}
		hdr := capture.Header{Host: hostName, Tick: time.Millisecond}
		for j := range specs {
			hdr.VMs = append(hdr.VMs, capture.VMHeader{
				ID:   h.Machine(j).VMID(),
				Name: specs[j].Name, VCPUs: h.Machine(j).NumVCPUs(),
			})
		}
		if capRec, err = capture.NewRecorder(&capBuf, hdr); err != nil {
			return FleetHostReport{}, err
		}
		h.SetExitTap(capRec)
		capStream = func() []byte {
			// Finish is idempotent; a mid-run bundle (error/panic path) gets
			// a clean end marker too.
			_ = capRec.Finish()
			return append([]byte(nil), capBuf.Bytes()...)
		}
	}
	var sink *flight.Sink
	if cfg.IncidentDir != "" {
		if sink, err = newFleetSink(cfg, ctx, hostName, h, capStream); err != nil {
			return FleetHostReport{}, err
		}
	}
	// Any panic or error on the unit's single-threaded schedule dumps a
	// bundle before the unit reports failure: the rings still hold the last
	// events leading up to the fault, so the artifact alone reproduces it.
	defer func() {
		kind := "error"
		if r := recover(); r != nil {
			kind = "panic"
			err = fmt.Errorf("fleet unit %d: panic: %v", ctx.Index, r)
		}
		if err != nil && sink != nil {
			if _, serr := sink.Raise(kind, 0, h.Machine(0).Clock().Now(), err); serr != nil {
				err = fmt.Errorf("%w (incident capture also failed: %v)", err, serr)
			}
		}
	}()
	// Verdict spans: each detection callback stamps the triggering event's
	// span into the shared ring, tying the verdict to the decode it judged.
	// Multiplexer.RecordSpan serializes the step through the EM lock.
	em := h.EM()
	var goshdActor, fwActor uint8
	dets := make([]*goshd.Detector, cfg.VMsPerHost)
	for j := range dets {
		m := h.Machine(j)
		vmid := core.VMID(j)
		det, derr := goshd.New(goshd.Config{
			VM:        vmid,
			Clock:     m.Clock(),
			VCPUs:     m.NumVCPUs(),
			Threshold: cfg.Threshold,
			OnHang: func(a goshd.HangAlarm) {
				em.RecordSpan(a.Span, vmid, core.PhaseVerdict, goshdActor, a.At)
			},
		})
		if derr != nil {
			return FleetHostReport{}, derr
		}
		if rerr := h.EM().RegisterAuditor(det, core.DeliverAsync, 0); rerr != nil {
			return FleetHostReport{}, rerr
		}
		dets[j] = det
	}
	fw := fleetwatch.New(fleetwatch.Config{
		VMName: h.EM().VMName,
		OnStorm: func(s fleetwatch.Storm) {
			em.RecordSpan(s.Span, s.VM, core.PhaseVerdict, fwActor, s.WindowStart)
		},
	})
	if ctx.Telemetry != nil {
		fw.EnableTelemetry(ctx.Telemetry)
	}
	if err := h.EM().RegisterAuditor(fw, core.DeliverAsync, 1<<16); err != nil {
		return FleetHostReport{}, err
	}
	if id, ok := h.EM().ActorID("goshd"); ok {
		goshdActor = id
	}
	if id, ok := h.EM().ActorID("fleetwatch"); ok {
		fwActor = id
	}
	if cfg.ExtraAuditors != nil {
		if err := cfg.ExtraAuditors(ctx.Index, h); err != nil {
			return FleetHostReport{}, err
		}
	}
	if err := h.Boot(); err != nil {
		return FleetHostReport{}, err
	}
	for j := 0; j < cfg.VMsPerHost; j++ {
		dets[j].Start()
		if _, err := h.Machine(j).Kernel().CreateProcess(&guest.ProcSpec{
			Comm: fmt.Sprintf("w%d", j), UID: 1000,
			Program: &guest.LoopProgram{Body: fleetUnitWorkload(j)},
		}, nil); err != nil {
			return FleetHostReport{}, err
		}
	}
	h.Run(cfg.Duration)

	report := FleetHostReport{Host: hostName, Seed: ctx.Seed}
	totalAlarms := 0
	firstAlarmVM := core.VMID(0)
	for j := 0; j < cfg.VMsPerHost; j++ {
		m := h.Machine(j)
		st := m.Kernel().Stats()
		vm := FleetVMReport{
			Name:     m.Name(),
			Seed:     seeds[j],
			Events:   h.EM().PublishedVM(core.VMID(j)),
			Syscalls: st.Syscalls,
			Switches: st.ContextSwitches,
			Exits:    m.TotalExits(),
			Alarms:   len(dets[j].Alarms()),
		}
		if vm.Alarms > 0 && totalAlarms == 0 {
			firstAlarmVM = core.VMID(j)
		}
		totalAlarms += vm.Alarms
		report.VMs = append(report.VMs, vm)
		report.Events += vm.Events
	}
	report.Storms = len(fw.Storms())
	if sink != nil && (totalAlarms > 0 || report.Storms > 0) {
		implicated := firstAlarmVM
		if totalAlarms == 0 {
			implicated = fw.Storms()[0].VM
		}
		verdict := fmt.Errorf("%d goshd alarms, %d storms", totalAlarms, report.Storms)
		if _, serr := sink.Raise("detection", implicated, h.Machine(0).Clock().Now(), verdict); serr != nil {
			sink = nil // capture already attempted; the defer must not retry
			return report, serr
		}
	}
	return report, nil
}

// RunFleetCampaign executes the fleet campaign on the sharded engine: hosts
// are independent units, so the campaign parallelizes across hosts while
// each host's internal schedule stays the deterministic single-threaded
// round-robin the equivalence suite pins.
func RunFleetCampaign(cfg FleetConfig) (*FleetResult, error) {
	cfg.fillDefaults()
	campaign := runner.Campaign[FleetHostReport]{
		Units:     cfg.Hosts,
		Parallel:  cfg.Parallel,
		Seed:      cfg.Seed,
		Progress:  cfg.Progress,
		Telemetry: cfg.Telemetry != nil,
		Live:      cfg.Telemetry,
		Run: func(ctx *runner.Ctx) (FleetHostReport, error) {
			return runFleetUnit(&cfg, ctx)
		},
	}

	res, err := campaign.Execute()
	if err != nil {
		return nil, err
	}
	out := &FleetResult{Hosts: res.Units}
	for _, hr := range res.Units {
		out.TotalEvents += hr.Events
		for _, vm := range hr.VMs {
			out.TotalAlarms += vm.Alarms
		}
		out.TotalStorms += hr.Storms
	}
	return out, nil
}

// ReplayIncident re-runs the campaign unit recorded in an incident bundle.
// The bundle's manifest carries the campaign seed and unit index, and every
// unit is a pure function of (configuration, seed, index), so the replay
// reproduces the original run exactly — same events, same verdicts, same
// panic if one was captured. Pass the same FleetConfig the campaign used
// (including any ExtraAuditors fault injection); cfg.Seed is overridden from
// the bundle. Set cfg.IncidentDir to capture a fresh bundle from the replay
// (byte-comparable to the original), or leave it empty for a pure re-run.
func ReplayIncident(cfg FleetConfig, bundleDir string) (*FleetHostReport, error) {
	b, err := flight.LoadBundle(bundleDir)
	if err != nil {
		return nil, err
	}
	unitStr, ok := b.Meta.Context["unit"]
	if !ok {
		return nil, fmt.Errorf("experiment: bundle %s carries no unit index", bundleDir)
	}
	unit, err := strconv.Atoi(unitStr)
	if err != nil {
		return nil, fmt.Errorf("experiment: bundle %s: bad unit index %q", bundleDir, unitStr)
	}
	seedStr, ok := b.Meta.Context["campaign_seed"]
	if !ok {
		return nil, fmt.Errorf("experiment: bundle %s carries no campaign seed", bundleDir)
	}
	if cfg.Seed, err = strconv.ParseInt(seedStr, 10, 64); err != nil {
		return nil, fmt.Errorf("experiment: bundle %s: bad campaign seed %q", bundleDir, seedStr)
	}
	cfg.fillDefaults()
	ctx := &runner.Ctx{
		Index: unit,
		Seed:  runner.UnitSeed(cfg.Seed, unit),
		RNG:   runner.UnitRNG(cfg.Seed, unit),
	}
	rep, err := runFleetUnit(&cfg, ctx)
	return &rep, err
}

// StreamVMReport is one VM's outcome from a stream replay. Kernel-side stats
// (syscalls, switches, exits) do not exist here — there is no kernel — so
// only the auditing plane's view is reported.
type StreamVMReport struct {
	Name   string `json:"name"`
	Events uint64 `json:"events"`
	Alarms int    `json:"goshd_alarms"`
}

// StreamReplayReport is ReplayStream's outcome.
type StreamReplayReport struct {
	Host        string           `json:"host"`
	VMs         []StreamVMReport `json:"vms"`
	Events      uint64           `json:"events"`
	Storms      int              `json:"storms"`
	Divergences uint64           `json:"divergences"`
}

// ReplayIncidentStream re-drives the auditor plane from a bundle's recorded
// exit stream (capture.htcs, written by campaigns run with Capture: true)
// through ReplayStream. Where ReplayIncident re-executes the whole unit —
// guests, kernels and all — this replays only the decoded stream the
// auditors consumed, so it works even when the faulting workload cannot be
// re-run, and it isolates the auditor plane: identical verdicts here plus a
// diverging ReplayIncident points the investigation at the simulation, not
// the auditors. A solo (v1) stream names no host, so the report falls back
// to the host the bundle's manifest names.
func ReplayIncidentStream(cfg FleetConfig, bundleDir string) (*StreamReplayReport, error) {
	b, err := flight.LoadBundle(bundleDir)
	if err != nil {
		return nil, err
	}
	if len(b.Capture) == 0 {
		return nil, fmt.Errorf("experiment: bundle %s carries no exit stream (campaign ran without Capture)", bundleDir)
	}
	rep, err := ReplayStream(cfg, b.Capture, false)
	if err != nil {
		return nil, err
	}
	if rep.Host == "" {
		rep.Host = b.Meta.Context["host"]
	}
	return rep, nil
}

// ReplayStream re-drives the fleet auditor plane from a recorded exit
// stream with no guest anywhere. The standard unit auditors (per-VM GOSHD
// at cfg.Threshold, the fleet accountant) are registered in campaign order,
// so verdict spans land in the same flight rings under the same actor IDs
// as the live run's. The flight table spans the header's VMID range (cluster
// streams carry sparse IDs, so the rings sit at a base, not at zero) unless
// cfg.FlightDepth disables it. cfg.Telemetry, when set, instruments the
// replay EM and its auditors. strict turns any divergence between the
// replayed reads and the recorded ones into an error.
func ReplayStream(cfg FleetConfig, data []byte, strict bool) (*StreamReplayReport, error) {
	cfg.fillDefaults()
	// The flight table must be sized before the replay attaches its VMs, so
	// parse the header alone first; the replay re-reads the stream.
	pre, err := capture.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	hdr := pre.Header()
	var fl *core.FlightTable
	if cfg.FlightDepth >= 0 {
		base, top := hdr.VMs[0].ID, hdr.VMs[0].ID
		for _, vm := range hdr.VMs {
			if vm.ID < base {
				base = vm.ID
			}
			if vm.ID > top {
				top = vm.ID
			}
		}
		fl = core.NewFlightTable(int(top-base)+1, cfg.FlightDepth, 0)
		fl.SetVMBase(base)
	}
	rp, err := capture.NewReplay(bytes.NewReader(data), capture.ReplayConfig{Flight: fl, Strict: strict})
	if err != nil {
		return nil, err
	}
	em := rp.EM()
	if cfg.Telemetry != nil {
		em.EnableTelemetry(cfg.Telemetry)
	}
	var goshdActor, fwActor uint8
	dets := make([]*goshd.Detector, len(hdr.VMs))
	for j := range dets {
		vmid := hdr.VMs[j].ID
		det, derr := goshd.New(goshd.Config{
			VM:        vmid,
			Clock:     rp.Clock(vmid),
			VCPUs:     hdr.VMs[j].VCPUs,
			Threshold: cfg.Threshold,
			OnHang: func(a goshd.HangAlarm) {
				em.RecordSpan(a.Span, vmid, core.PhaseVerdict, goshdActor, a.At)
			},
		})
		if derr != nil {
			return nil, derr
		}
		if cfg.Telemetry != nil {
			det.EnableTelemetry(cfg.Telemetry)
		}
		if rerr := em.RegisterAuditor(det, core.DeliverAsync, 0); rerr != nil {
			return nil, rerr
		}
		dets[j] = det
	}
	fw := fleetwatch.New(fleetwatch.Config{
		VMName: em.VMName,
		OnStorm: func(s fleetwatch.Storm) {
			em.RecordSpan(s.Span, s.VM, core.PhaseVerdict, fwActor, s.WindowStart)
		},
	})
	if cfg.Telemetry != nil {
		fw.EnableTelemetry(cfg.Telemetry)
	}
	if err := em.RegisterAuditor(fw, core.DeliverAsync, 1<<16); err != nil {
		return nil, err
	}
	if id, ok := em.ActorID("goshd"); ok {
		goshdActor = id
	}
	if id, ok := em.ActorID("fleetwatch"); ok {
		fwActor = id
	}
	for j := range dets {
		dets[j].Start()
	}
	if err := rp.Run(); err != nil {
		return nil, err
	}
	report := &StreamReplayReport{Host: hdr.Host, Divergences: rp.Divergences()}
	for j := range hdr.VMs {
		vm := StreamVMReport{
			Name:   hdr.VMs[j].Name,
			Events: em.PublishedVM(hdr.VMs[j].ID),
			Alarms: len(dets[j].Alarms()),
		}
		report.VMs = append(report.VMs, vm)
		report.Events += vm.Events
	}
	report.Storms = len(fw.Storms())
	return report, nil
}
