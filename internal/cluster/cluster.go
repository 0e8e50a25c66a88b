// Package cluster is the datacenter plane above internal/host: M hosts — each
// the paper's Fig. 2 deployment of N guest VMs sharing one Event Multiplexer —
// stepped under a single deterministic shared clock, with a central health
// aggregator issuing latched sick-host verdicts — the cluster-level analogue
// of the paper's Remote Health Checker.
//
// The determinism contract extends the host plane's one level up: each round,
// every live host advances one tick in fixed index order and drains its own
// EM. Hosts share no mutable state — a VM's guest, virtual clock and scoped
// auditors are wholly its own — so an M-host cluster run is byte-identical,
// per VM, to M solo host runs with the same seeds (the cluster equivalence
// gate).
//
// VM identity is cluster-global and sparse: host h owns the VMID range
// [h·stride, h·stride+N), where stride is the largest per-host fleet, so a
// VM's SpanIDs, flight rings and capture identity are unique across the
// cluster.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/host"
	"hypertap/internal/hv"
	"hypertap/internal/telemetry"
)

// HostSpec describes one host of the cluster.
type HostSpec struct {
	// Name identifies the host; empty defaults to "hostN" by index. Names
	// must be unique across the cluster.
	Name string
	// VMs lists the host's fleet. VM names must be unique across the whole
	// cluster; empty names default to "<host>-vmN".
	VMs []host.VMSpec
}

// Config describes a cluster.
type Config struct {
	// Tick is the shared scheduler granularity. Default 1ms.
	Tick time.Duration
	// Costs prices hypervisor work on every host; zero selects defaults.
	Costs hv.CostModel
	// Hosts lists the fleet; index order fixes both the VMID range each host
	// owns and the round-robin step order.
	Hosts []HostSpec
	// FlightDepth sizes every host's flight-recorder rings (see
	// host.Config.FlightDepth).
	FlightDepth int
	// Telemetry, when set, receives the fleet-wide rollup: each host records
	// into a private registry, and Rollup folds per-host deltas in stamped
	// with a {host=name} label so identical series names from different
	// hosts never collide.
	Telemetry *telemetry.Registry
	// SickAfter arms the central health aggregator: a host publishing no
	// events for more than SickAfter of virtual time is declared sick. Zero
	// disables verdicts.
	SickAfter time.Duration
}

// Cluster is M deterministic hosts under one clock.
type Cluster struct {
	cfg    Config
	stride core.VMID
	hosts  []*host.Host
	// failed marks hosts removed from the step schedule (FailHost) — the
	// simulated hypervisor crash. Their EM state stays intact, which is the
	// paper's point: guest state remains recoverable after monitor failure.
	failed []bool
	// regs are the per-host telemetry registries backing the rollup;
	// lastRoll holds each host's snapshot at the previous rollup so only
	// deltas are absorbed (no double counting across periodic rollups).
	regs     []*telemetry.Registry
	lastRoll []telemetry.Snapshot
	elapsed  time.Duration
	agg      *aggregator
	booted   bool

	sickHosts *telemetry.Gauge
}

// New builds the cluster: VMID ranges are carved first (stride = the largest
// per-host fleet), then every host is constructed on its range.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("cluster: Config.Hosts must name at least one host")
	}
	if cfg.Tick == 0 {
		cfg.Tick = time.Millisecond
	}
	stride := 0
	for _, hs := range cfg.Hosts {
		if len(hs.VMs) == 0 {
			return nil, fmt.Errorf("cluster: host %q has no VMs", hs.Name)
		}
		if len(hs.VMs) > stride {
			stride = len(hs.VMs)
		}
	}
	// Every host's range must fit the VMID domain; checked before any VM is
	// built, since a wrapped stride*i would alias another host's IDs.
	for i, hs := range cfg.Hosts {
		if end := stride*i + len(hs.VMs); end > math.MaxUint16+1 {
			return nil, fmt.Errorf("cluster: host %d's VMID range [%d, %d) overflows the VMID domain", i, stride*i, end)
		}
	}
	c := &Cluster{
		cfg:    cfg,
		stride: core.VMID(stride),
		failed: make([]bool, len(cfg.Hosts)),
	}
	hostNames := make(map[string]bool, len(cfg.Hosts))
	vmNames := make(map[string]bool)
	for i, hs := range cfg.Hosts {
		name := hs.Name
		if name == "" {
			name = fmt.Sprintf("host%d", i)
		}
		if hostNames[name] {
			return nil, fmt.Errorf("cluster: duplicate host name %q", name)
		}
		hostNames[name] = true
		specs := make([]host.VMSpec, len(hs.VMs))
		copy(specs, hs.VMs)
		for j := range specs {
			if specs[j].Name == "" {
				specs[j].Name = fmt.Sprintf("%s-vm%d", name, j)
			}
			if vmNames[specs[j].Name] {
				return nil, fmt.Errorf("cluster: duplicate VM name %q", specs[j].Name)
			}
			vmNames[specs[j].Name] = true
		}
		var reg *telemetry.Registry
		if cfg.Telemetry != nil {
			reg = telemetry.NewRegistry()
		}
		h, err := host.New(host.Config{
			Name:        name,
			Tick:        cfg.Tick,
			Costs:       cfg.Costs,
			Telemetry:   reg,
			VMs:         specs,
			VMIDBase:    c.stride * core.VMID(i),
			FlightDepth: cfg.FlightDepth,
		})
		if err != nil {
			return nil, err
		}
		c.hosts = append(c.hosts, h)
		c.regs = append(c.regs, reg)
	}
	c.lastRoll = make([]telemetry.Snapshot, len(c.hosts))
	if cfg.Telemetry != nil {
		c.sickHosts = cfg.Telemetry.Gauge("hypertap_cluster_hosts_sick")
	}
	if cfg.SickAfter > 0 {
		c.agg = newAggregator(len(c.hosts), cfg.SickAfter)
	}
	return c, nil
}

// Boot boots every host in index order.
func (c *Cluster) Boot() error {
	if c.booted {
		return fmt.Errorf("cluster: already booted")
	}
	for _, h := range c.hosts {
		if err := h.Boot(); err != nil {
			return err
		}
	}
	c.booted = true
	return nil
}

// Run advances the whole cluster by d of virtual time, then folds each host's
// telemetry into the rollup. Unlike host.Run, the cluster clock is monotonic
// across calls: a second Run continues where the first stopped.
func (c *Cluster) Run(d time.Duration) {
	c.RunUntil(d, nil)
}

// RunUntil advances by at most max, stopping early when cond (checked once
// per round) returns true.
func (c *Cluster) RunUntil(max time.Duration, cond func() bool) {
	if !c.booted {
		panic("cluster: RunUntil before Boot")
	}
	end := c.elapsed + max
	for c.elapsed < end {
		if cond != nil && cond() {
			break
		}
		c.StepRound()
	}
	c.Rollup()
}

// StepRound advances the cluster by exactly one datacenter round: every live
// host steps one tick in index order, then the health aggregator consumes
// each host's heartbeat summary and issues any sick verdicts.
func (c *Cluster) StepRound() {
	if !c.booted {
		panic("cluster: StepRound before Boot")
	}
	c.elapsed += c.cfg.Tick
	for i, h := range c.hosts {
		if !c.failed[i] {
			h.StepRound(c.elapsed)
		}
	}
	if c.agg != nil {
		c.agg.observe(c)
	}
}

// FailHost simulates a hypervisor crash: the host stops being scheduled, its
// event production ceases, and — with the aggregator armed — its silence
// grows until the sick verdict fires. The host's VMs and EM state stay
// intact, mirroring the paper's recovery argument: the architectural
// invariants keep guest state consistent, so VMs survive their monitor.
func (c *Cluster) FailHost(name string) error {
	i := c.hostIndex(name)
	if i < 0 {
		return fmt.Errorf("cluster: no host %q", name)
	}
	if c.failed[i] {
		return fmt.Errorf("cluster: host %q already failed", name)
	}
	c.failed[i] = true
	return nil
}

// Rollup folds each host's telemetry delta since the previous rollup into
// the cluster registry, every series stamped with the host's name. Safe to
// call at any cadence: deltas make the fold idempotent-by-interval, so a
// live exporter on the cluster registry shows fleet totals growing without
// double counting. No-op without Config.Telemetry.
func (c *Cluster) Rollup() {
	if c.cfg.Telemetry == nil {
		return
	}
	for i, reg := range c.regs {
		snap := reg.Snapshot()
		delta := snap.DeltaSince(c.lastRoll[i])
		c.lastRoll[i] = snap
		c.cfg.Telemetry.Absorb(delta.Relabeled(telemetry.L("host", c.hosts[i].Name())))
	}
}

// Close releases every host's resources, reporting the first error.
func (c *Cluster) Close() error {
	var errs []error
	for _, h := range c.hosts {
		if err := h.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// hostIndex resolves a host name to its index, -1 if unknown.
func (c *Cluster) hostIndex(name string) int {
	for i, h := range c.hosts {
		if h.Name() == name {
			return i
		}
	}
	return -1
}

// Accessors.

// NumHosts returns the cluster size.
func (c *Cluster) NumHosts() int { return len(c.hosts) }

// Host returns host i in step order.
func (c *Cluster) Host(i int) *host.Host { return c.hosts[i] }

// Stride returns the VMID range width each host owns: host i assigns
// [i·Stride, i·Stride+N).
func (c *Cluster) Stride() core.VMID { return c.stride }

// Elapsed returns the cluster's virtual time.
func (c *Cluster) Elapsed() time.Duration { return c.elapsed }

// Verdicts returns the aggregator's sick-host verdicts in order. Empty when
// the aggregator is disarmed.
func (c *Cluster) Verdicts() []Verdict {
	if c.agg == nil {
		return nil
	}
	return c.agg.verdicts
}

// Health reports each host's latest heartbeat summary as the aggregator saw
// it. Nil when the aggregator is disarmed.
func (c *Cluster) Health() []HostHealth {
	if c.agg == nil {
		return nil
	}
	return c.agg.health(c)
}
