package experiment

import (
	"bytes"
	"fmt"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/auditors/goshd"
	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/flight"
	"hypertap/internal/telemetry"
)

// StreamConfig parameterizes a stream replay of the host auditor plane.
type StreamConfig struct {
	// Threshold is GOSHD's per-VM alarm threshold (default 100ms).
	Threshold time.Duration
	// Telemetry, when set, instruments the replay EM and its auditors.
	Telemetry *telemetry.Registry
	// Strict turns any divergence between the replayed reads and the
	// recorded ones into an error.
	Strict bool
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
// exit stream (capture.htcs, written when the bundle carried the host's
// capture) through ReplayStream. It replays only the decoded stream
// the auditors consumed, so it works even when the recorded workload cannot
// be re-run.
func ReplayIncidentStream(cfg StreamConfig, bundleDir string) (*StreamReplayReport, error) {
	b, err := flight.LoadBundle(bundleDir)
	if err != nil {
		return nil, err
	}
	if len(b.Capture) == 0 {
		return nil, fmt.Errorf("experiment: bundle %s carries no exit stream (its host ran without capture)", bundleDir)
	}
	return ReplayStream(cfg, b.Capture)
}

// ReplayStream re-drives the host auditor plane — one GOSHD per header VM,
// in VM order, then the fleet-wide fleetwatch accountant — from a recorded
// exit stream with no guest anywhere. Each detection callback stamps the
// triggering event's span into the flight rings as a verdict step, tying the
// verdict to the decode it judged; Multiplexer.RecordSpan serializes the
// step through the EM lock. The flight table holds one default-depth ring
// per header VM.
func ReplayStream(cfg StreamConfig, data []byte) (*StreamReplayReport, error) {
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = 100 * time.Millisecond
	}
	// Attaching the header's VMs grows the flight table to one ring each.
	rp, err := capture.NewReplay(bytes.NewReader(data), capture.ReplayConfig{
		Flight: core.NewFlightTable(1, 0, 0), Strict: cfg.Strict,
	})
	if err != nil {
		return nil, err
	}
	hdr := rp.Header()
	em := rp.EM()
	if cfg.Telemetry != nil {
		em.EnableTelemetry(cfg.Telemetry)
	}
	var goshdActor, fwActor uint8
	dets := make([]*goshd.Detector, len(hdr.VMs))
	for j, vm := range hdr.VMs {
		vmid := core.VMID(j)
		det, err := goshd.New(goshd.Config{
			VM:        vmid,
			Clock:     rp.Clock(vmid),
			VCPUs:     vm.VCPUs,
			Threshold: threshold,
			OnHang: func(a goshd.HangAlarm) {
				em.RecordSpan(a.Span, vmid, core.PhaseVerdict, goshdActor, a.At)
			},
		})
		if err != nil {
			return nil, err
		}
		if cfg.Telemetry != nil {
			det.EnableTelemetry(cfg.Telemetry)
		}
		if err := em.Register(det, core.DeliverAsync, 0); err != nil {
			return nil, err
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
	if err := em.Register(fw, core.DeliverAsync, 1<<16); err != nil {
		return nil, err
	}
	if id, ok := em.ActorID("goshd"); ok {
		goshdActor = id
	}
	if id, ok := em.ActorID("fleetwatch"); ok {
		fwActor = id
	}
	for _, det := range dets {
		det.Start()
	}
	if err := rp.Run(); err != nil {
		return nil, err
	}
	report := &StreamReplayReport{Host: hdr.Host, Divergences: rp.Divergences()}
	for j := range hdr.VMs {
		vm := StreamVMReport{
			Name:   hdr.VMs[j].Name,
			Events: em.PublishedVM(core.VMID(j)),
			Alarms: len(dets[j].Alarms()),
		}
		report.VMs = append(report.VMs, vm)
		report.Events += vm.Events
	}
	report.Storms = len(fw.Storms())
	return report, nil
}
