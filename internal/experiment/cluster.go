package experiment

import (
	"fmt"
	"time"

	"hypertap/internal/auditors/goshd"
	"hypertap/internal/cluster"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/experiment/runner"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/telemetry"
)

// ClusterConfig parameterizes the cluster campaign: the sharded unit is not
// one VM or one host but an entire M-host *cluster* — the datacenter plane
// with its shared clock and per-host VMID ranges. Seeds
// nest the same way the topology does: unit u gets runner.UnitSeed(Seed, u),
// host i within it runner.UnitSeed(unitSeed, i), and VM j under that
// runner.UnitSeed(hostSeed, j) — so every guest's stream is a pure function
// of (campaign seed, unit, host, VM) and serial and parallel execution are
// byte-identical.
type ClusterConfig struct {
	// Clusters is the number of campaign units (default 2).
	Clusters int
	// HostsPerCluster sizes each unit's datacenter (default 2).
	HostsPerCluster int
	// VMsPerHost sizes each host's fleet (default 2).
	VMsPerHost int
	// Duration is each cluster's virtual run length (default 1s).
	Duration time.Duration
	// Threshold is GOSHD's per-VM alarm threshold (default 100ms).
	Threshold time.Duration
	// Seed is the campaign seed.
	Seed int64
	// Parallel is the worker count; 0 selects GOMAXPROCS. Results are
	// identical regardless of parallelism.
	Parallel int
	// Progress, when set, is called after each cluster completes.
	Progress func(done, total int)
	// Telemetry, when set, receives the fleet-wide rollup: each unit's
	// per-host series arrive under {host=cU-hI} labels as units finish.
	Telemetry *telemetry.Registry
	// FlightDepth sizes every host's flight-recorder rings.
	FlightDepth int
}

func (c *ClusterConfig) fillDefaults() {
	if c.Clusters <= 0 {
		c.Clusters = 2
	}
	if c.HostsPerCluster <= 0 {
		c.HostsPerCluster = 2
	}
	if c.VMsPerHost <= 0 {
		c.VMsPerHost = 2
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.Threshold == 0 {
		c.Threshold = 100 * time.Millisecond
	}
}

// ClusterHostReport is one host's outcome within its cluster.
type ClusterHostReport struct {
	Host   string          `json:"host"`
	Seed   int64           `json:"seed"`
	VMs    []FleetVMReport `json:"vms"`
	Events uint64          `json:"events"`
}

// ClusterUnitReport is one whole cluster's outcome.
type ClusterUnitReport struct {
	Cluster string              `json:"cluster"`
	Seed    int64               `json:"seed"`
	Hosts   []ClusterHostReport `json:"hosts"`
	Events  uint64              `json:"events"`
}

// ClusterResult is the whole campaign.
type ClusterResult struct {
	Clusters    []ClusterUnitReport `json:"clusters"`
	TotalEvents uint64              `json:"total_events"`
	TotalAlarms int                 `json:"total_alarms"`
}

// runClusterUnit executes one campaign unit: an M-host cluster with per-VM
// GOSHD auditors.
func runClusterUnit(cfg *ClusterConfig, ctx *runner.Ctx) (ClusterUnitReport, error) {
	feat := intercept.Features{
		ProcessSwitch: true, ThreadSwitch: true, TSSIntegrity: true,
		Syscalls: true, IO: true,
	}
	hostSeeds := make([]int64, cfg.HostsPerCluster)
	vmSeeds := make(map[string]int64)
	specs := make([]cluster.HostSpec, cfg.HostsPerCluster)
	for i := range specs {
		hostSeeds[i] = runner.UnitSeed(ctx.Seed, i)
		hostName := fmt.Sprintf("c%d-h%d", ctx.Index, i)
		vms := make([]host.VMSpec, cfg.VMsPerHost)
		for j := range vms {
			name := fmt.Sprintf("%s-vm%d", hostName, j)
			vmSeeds[name] = runner.UnitSeed(hostSeeds[i], j)
			vms[j] = host.VMSpec{
				Name:    name,
				Guest:   guest.Config{Seed: vmSeeds[name]},
				Monitor: true, Features: feat,
			}
		}
		specs[i] = cluster.HostSpec{Name: hostName, VMs: vms}
	}
	cl, err := cluster.New(cluster.Config{
		Hosts:       specs,
		Telemetry:   ctx.Telemetry,
		FlightDepth: cfg.FlightDepth,
	})
	if err != nil {
		return ClusterUnitReport{}, err
	}
	// Per-VM GOSHD, registered host-major in VM order so every host's actor
	// table is reproducible.
	dets := make(map[string]*goshd.Detector)
	for i := 0; i < cfg.HostsPerCluster; i++ {
		for j := 0; j < cfg.VMsPerHost; j++ {
			m := cl.Host(i).Machine(j)
			det, derr := goshd.New(goshd.Config{
				VM:        m.VMID(),
				Clock:     m.Clock(),
				VCPUs:     m.NumVCPUs(),
				Threshold: cfg.Threshold,
			})
			if derr != nil {
				return ClusterUnitReport{}, derr
			}
			if rerr := cl.Host(i).EM().RegisterAuditor(det, core.DeliverAsync, 0); rerr != nil {
				return ClusterUnitReport{}, rerr
			}
			dets[m.Name()] = det
		}
	}
	if err := cl.Boot(); err != nil {
		return ClusterUnitReport{}, err
	}
	for i := 0; i < cfg.HostsPerCluster; i++ {
		for j := 0; j < cfg.VMsPerHost; j++ {
			m := cl.Host(i).Machine(j)
			dets[m.Name()].Start()
			if _, err := m.Kernel().CreateProcess(&guest.ProcSpec{
				Comm: fmt.Sprintf("w%d", j), UID: 1000,
				Program: &guest.LoopProgram{Body: fleetUnitWorkload(i*cfg.VMsPerHost + j)},
			}, nil); err != nil {
				return ClusterUnitReport{}, err
			}
		}
	}
	cl.Run(cfg.Duration)

	report := ClusterUnitReport{
		Cluster: fmt.Sprintf("cluster%d", ctx.Index),
		Seed:    ctx.Seed,
	}
	for i := 0; i < cfg.HostsPerCluster; i++ {
		h := cl.Host(i)
		hr := ClusterHostReport{Host: h.Name(), Seed: hostSeeds[i]}
		for _, m := range h.Machines() {
			st := m.Kernel().Stats()
			vm := FleetVMReport{
				Name:     m.Name(),
				Seed:     vmSeeds[m.Name()],
				Events:   h.EM().PublishedVM(m.VMID()),
				Syscalls: st.Syscalls,
				Switches: st.ContextSwitches,
				Exits:    m.TotalExits(),
				Alarms:   len(dets[m.Name()].Alarms()),
			}
			hr.VMs = append(hr.VMs, vm)
			hr.Events += vm.Events
		}
		report.Hosts = append(report.Hosts, hr)
		report.Events += hr.Events
	}
	return report, nil
}

// RunClusterCampaign executes the cluster campaign on the sharded engine:
// clusters are independent units, so the campaign parallelizes across
// datacenters while each cluster's internal schedule stays the deterministic round-robin the equivalence
// gates pin.
func RunClusterCampaign(cfg ClusterConfig) (*ClusterResult, error) {
	cfg.fillDefaults()
	campaign := runner.Campaign[ClusterUnitReport]{
		Units:     cfg.Clusters,
		Parallel:  cfg.Parallel,
		Seed:      cfg.Seed,
		Progress:  cfg.Progress,
		Telemetry: cfg.Telemetry != nil,
		Live:      cfg.Telemetry,
		Run: func(ctx *runner.Ctx) (ClusterUnitReport, error) {
			return runClusterUnit(&cfg, ctx)
		},
	}
	res, err := campaign.Execute()
	if err != nil {
		return nil, err
	}
	out := &ClusterResult{Clusters: res.Units}
	for _, ur := range res.Units {
		out.TotalEvents += ur.Events
		for _, hr := range ur.Hosts {
			for _, vm := range hr.VMs {
				out.TotalAlarms += vm.Alarms
			}
		}
	}
	return out, nil
}
