// Package host implements the per-host fleet plane of the paper's Fig. 2
// deployment: one physical host runs N guest VMs, all of whose Event
// Forwarders log into a single shared Event Multiplexer, and one Remote
// Health Checker connection carries every VM's liveness off-host.
//
// The Host also owns the fleet's execution schedule: a deterministic
// round-robin driver steps every machine one virtual-time tick (in VM
// order) and drains the shared EM once per round. Because the schedule is
// single-threaded and each VM's guest state and virtual clock are
// independent, an N-VM host run is byte-identical, per VM, to N isolated
// single-VM runs with the same seeds — the equivalence the fleet test
// suite pins.
package host

import (
	"fmt"
	"math"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/guest"
	"hypertap/internal/hv"
	"hypertap/internal/telemetry"
)

// VMSpec describes one guest VM of the fleet.
type VMSpec struct {
	// Name identifies the VM on the shared EM and in RHC heartbeats; it
	// must be unique on the host. Empty defaults to "vmN" by slot.
	Name string
	// VCPUs and MemBytes size the VM (hv.Config defaults apply when zero).
	VCPUs    int
	MemBytes uint64
	// Guest carries the kernel configuration, including the per-VM seed.
	Guest guest.Config
	// Monitor enables the VM's Event Forwarder with Features.
	Monitor bool
	// Features selects the armed interception algorithms when Monitor is
	// set.
	Features intercept.Features
}

// Config describes a host.
type Config struct {
	// Name identifies the host (RHC dial identity, diagnostics). Default
	// "host0".
	Name string
	// Tick is the scheduler granularity shared by every VM. Default 1ms.
	Tick time.Duration
	// Costs prices hypervisor work on this host; zero selects defaults.
	Costs hv.CostModel
	// Telemetry, when set, instruments the shared EM (with per-VM labeled
	// rollups) and every machine.
	Telemetry *telemetry.Registry
	// VMs lists the fleet; slot order fixes VMID assignment (slot i is
	// VMID i) and the round-robin step order. The fleet must fit the VMID
	// domain: at most 65536 VMs.
	VMs []VMSpec
	// FlightDepth sizes the per-VM flight-recorder rings. Zero selects
	// core.DefaultFlightDepth; negative disables the tracing plane entirely.
	// The recorder is on by default — its cost is one gated slot write per
	// published event, cheap enough to stay enabled during benchmarks.
	FlightDepth int
}

// Host is one physical host's fleet: N machines, one EM, one RHC client.
type Host struct {
	cfg      Config
	em       *core.Multiplexer
	machines []*hv.Machine
	rhc      *core.RHCClient
	flight   *core.FlightTable
	tap      core.ExitStreamTap
	booted   bool
}

// New builds the host: the shared EM (telemetry enabled once, host-wide),
// then every machine attached to it in slot order.
func New(cfg Config) (*Host, error) {
	if len(cfg.VMs) == 0 {
		return nil, fmt.Errorf("host: Config.VMs must name at least one VM")
	}
	if n := len(cfg.VMs); n > math.MaxUint16+1 {
		return nil, fmt.Errorf("host: %d VMs exceed the VMID domain of %d", n, math.MaxUint16+1)
	}
	if cfg.Name == "" {
		cfg.Name = "host0"
	}
	if cfg.Tick == 0 {
		cfg.Tick = time.Millisecond
	}
	h := &Host{cfg: cfg, em: core.NewMultiplexer()}
	if cfg.Telemetry != nil {
		h.em.EnableTelemetry(cfg.Telemetry)
	}
	if cfg.FlightDepth >= 0 {
		h.flight = core.NewFlightTable(len(cfg.VMs), cfg.FlightDepth, 0)
		h.em.SetFlight(h.flight)
	}
	for i, spec := range cfg.VMs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("vm%d", i)
		}
		m, err := hv.New(hv.Config{
			Name:      name,
			VCPUs:     spec.VCPUs,
			MemBytes:  spec.MemBytes,
			Tick:      cfg.Tick,
			Costs:     cfg.Costs,
			Guest:     spec.Guest,
			EM:        h.em,
			Telemetry: cfg.Telemetry,
		})
		if err != nil {
			return nil, fmt.Errorf("host: vm %q: %w", name, err)
		}
		if spec.Monitor {
			if _, err := m.EnableMonitoring(spec.Features); err != nil {
				return nil, fmt.Errorf("host: vm %q: %w", name, err)
			}
		}
		h.machines = append(h.machines, m)
	}
	return h, nil
}

// Boot boots every machine in slot order.
func (h *Host) Boot() error {
	if h.booted {
		return fmt.Errorf("host: already booted")
	}
	for _, m := range h.machines {
		if err := m.Boot(); err != nil {
			return fmt.Errorf("host: %s: %w", m.Name(), err)
		}
	}
	h.booted = true
	return nil
}

// Run advances the whole fleet by d of virtual time: each round steps every
// machine one tick in VM order, then drains the shared EM once. The loop is
// single-threaded, so the interleaving — and with it async delivery order —
// is a pure function of the configuration.
func (h *Host) Run(d time.Duration) {
	h.RunUntil(d, nil)
}

// RunUntil advances the fleet by at most max, stopping early when cond
// (checked once per round) returns true. A round ends with the capture
// barrier at the round's end time and one drain of the shared EM.
func (h *Host) RunUntil(max time.Duration, cond func() bool) {
	if !h.booted {
		panic("host: RunUntil before Boot")
	}
	tick := h.cfg.Tick
	for elapsed := time.Duration(0); elapsed < max; elapsed += tick {
		if cond != nil && cond() {
			return
		}
		for _, m := range h.machines {
			m.StepTick()
		}
		if h.tap != nil {
			h.tap.TapBarrier(elapsed + tick)
		}
		h.em.Dispatch(0)
	}
}

// SetExitTap installs an exit-stream tap across the fleet: every machine's
// Event Forwarder reports its decoded events and ticks, and the host reports
// the once-per-round drain barrier of the shared EM. Fleet machines are
// driven through StepTick, so the per-machine barrier never fires and the
// capture carries exactly one barrier per round. Pass nil to detach.
func (h *Host) SetExitTap(tap core.ExitStreamTap) {
	h.tap = tap
	for _, m := range h.machines {
		m.SetExitTap(tap)
	}
}

// ConnectRHC dials an RHC server and installs the host's sampler: every
// sampleEvery-th published event (fleet-wide) becomes a heartbeat attributed
// to its producing VM, so one TCP connection carries per-VM liveness and a
// silent VM is named by the server even while its neighbors keep beating.
func (h *Host) ConnectRHC(addr string, sampleEvery uint64) error {
	if h.rhc != nil {
		return fmt.Errorf("host: RHC already connected")
	}
	client, err := core.DialRHC(h.cfg.Name, addr)
	if err != nil {
		return err
	}
	h.rhc = client
	em := h.em
	em.SetSampler(sampleEvery, func(ev *core.Event) {
		if name, ok := em.VMName(ev.VM); ok {
			client.SendNamed(name, ev)
		}
	})
	return nil
}

// Close releases host resources (currently the RHC connection).
func (h *Host) Close() error {
	if h.rhc == nil {
		return nil
	}
	h.em.SetSampler(0, nil)
	err := h.rhc.Close()
	h.rhc = nil
	return err
}

// Accessors.

// Name returns the host name.
func (h *Host) Name() string { return h.cfg.Name }

// EM returns the shared Event Multiplexer.
func (h *Host) EM() *core.Multiplexer { return h.em }

// NumVMs returns the fleet size.
func (h *Host) NumVMs() int { return len(h.machines) }

// Machine returns the machine in slot i, which holds VMID i.
func (h *Host) Machine(i int) *hv.Machine { return h.machines[i] }

// Machines returns the fleet in step order.
func (h *Host) Machines() []*hv.Machine { return h.machines }

// RHC returns the host's RHC client, or nil before ConnectRHC.
func (h *Host) RHC() *core.RHCClient { return h.rhc }

// Flight returns the host's flight table, nil when Config.FlightDepth < 0.
func (h *Host) Flight() *core.FlightTable { return h.flight }
