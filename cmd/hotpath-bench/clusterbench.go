package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hypertap/internal/cluster"
	"hypertap/internal/core/intercept"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/workload"
)

// clusterRun is one host-count cell of the cluster scaling section: a whole
// cluster (hosts × 2 VMs, each running the make workload) stepped under the
// shared clock for a fixed slice of virtual time.
type clusterRun struct {
	Hosts        int     `json:"hosts"`
	VMsPerHost   int     `json:"vms_per_host"`
	VirtualMs    float64 `json:"virtual_ms"`
	WallMs       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// VsSingleHost is this cell's wall-clock per published event relative to
	// the 1-host cell (1.0 = stepping M hosts costs the same per event as
	// stepping one: the shared-clock loop adds no cross-host overhead).
	VsSingleHost float64 `json:"vs_single_host,omitempty"`
}

// clusterReport is results/BENCH_cluster.json.
type clusterReport struct {
	Description string       `json:"description"`
	Host        hostInfo     `json:"host"`
	Runs        []clusterRun `json:"runs"`
}

// clusterHostCounts is the scaling ladder.
var clusterHostCounts = []int{1, 2, 4}

// benchCluster measures one host-count cell.
func benchCluster(hosts int, seed int64) (clusterRun, error) {
	const (
		vmsPerHost = 2
		vcpus      = 2
		virtual    = 100 * time.Millisecond
	)
	specs := make([]cluster.HostSpec, hosts)
	for i := range specs {
		vms := make([]host.VMSpec, vmsPerHost)
		for j := range vms {
			vms[j] = host.VMSpec{
				VCPUs:   vcpus,
				Guest:   guest.Config{Seed: seed + int64(i*vmsPerHost+j)},
				Monitor: true,
				Features: intercept.Features{
					ProcessSwitch: true, ThreadSwitch: true, TSSIntegrity: true,
					Syscalls: true, IO: true,
				},
			}
		}
		specs[i] = cluster.HostSpec{VMs: vms}
	}
	c, err := cluster.New(cluster.Config{Hosts: specs})
	if err != nil {
		return clusterRun{}, err
	}
	defer func() { _ = c.Close() }()
	if err := c.Boot(); err != nil {
		return clusterRun{}, err
	}
	for i := 0; i < c.NumHosts(); i++ {
		for _, m := range c.Host(i).Machines() {
			if _, err := workload.Launch(m, workload.MakeJ(2, 1<<20)); err != nil {
				return clusterRun{}, err
			}
		}
	}

	start := time.Now()
	c.Run(virtual)
	wall := time.Since(start)
	var events uint64
	for i := 0; i < c.NumHosts(); i++ {
		events += c.Host(i).EM().Published()
	}
	return clusterRun{
		Hosts:        hosts,
		VMsPerHost:   vmsPerHost,
		VirtualMs:    float64(virtual.Milliseconds()),
		WallMs:       float64(wall.Nanoseconds()) / 1e6,
		Events:       events,
		EventsPerSec: float64(events) / wall.Seconds(),
	}, nil
}

// runClusterBench produces the cluster scaling section and writes it to out
// ("" = stdout).
func runClusterBench(out string, seed int64) error {
	rep := clusterReport{
		Description: "Cluster plane scaling: M hosts x 2 VMs under one shared clock. Regenerate with `make bench-cluster`.",
		Host:        currentHostInfo(),
	}
	var base clusterRun
	for _, hosts := range clusterHostCounts {
		r, err := benchCluster(hosts, seed)
		if err != nil {
			return err
		}
		if hosts == 1 {
			base = r
		}
		if base.Events > 0 && r.Events > 0 {
			perEvent := r.WallMs / float64(r.Events)
			basePerEvent := base.WallMs / float64(base.Events)
			if basePerEvent > 0 {
				r.VsSingleHost = perEvent / basePerEvent
			}
		}
		rep.Runs = append(rep.Runs, r)
		fmt.Fprintf(os.Stderr, "cluster  hosts=%d  %8.1f ms wall for %.0f ms virtual  %12.0f events/s  x%.2f vs 1-host\n",
			r.Hosts, r.WallMs, r.VirtualMs, r.EventsPerSec, r.VsSingleHost)
	}

	dst := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	enc := json.NewEncoder(dst)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
