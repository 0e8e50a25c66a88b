package main

import (
	"fmt"
	"io"
	"time"

	"hypertap/internal/auditors/goshd"
	"hypertap/internal/cluster"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/telemetry"
	"hypertap/internal/workload"
)

// clusterOpts carries the flag subset the cluster demo path consumes.
type clusterOpts struct {
	hosts, vms, vcpus int
	duration          time.Duration
	seed              int64
	sysenter          bool
	features          intercept.Features
	out               io.Writer
}

// runCluster is the -hosts>1 demo path: M hosts × N VMs stepped under the
// cluster plane's shared clock, per-VM GOSHD on every host's EM, the central
// health aggregator armed, and fleet telemetry rolled up under {host=...}
// labels. The summary prints each host's heartbeat state as the aggregator
// last saw it, any sick verdicts, and the rollup.
func runCluster(opts clusterOpts) error {
	w := opts.out
	specs := make([]cluster.HostSpec, opts.hosts)
	for i := range specs {
		vmSpecs := make([]host.VMSpec, opts.vms)
		for j := range vmSpecs {
			gcfg := guest.Config{Seed: opts.seed + int64(i*opts.vms+j)}
			if opts.sysenter {
				gcfg.Mech = guest.MechSysenter
			}
			vmSpecs[j] = host.VMSpec{
				VCPUs: opts.vcpus, Guest: gcfg,
				Monitor: true, Features: opts.features,
			}
		}
		specs[i] = cluster.HostSpec{VMs: vmSpecs}
	}
	reg := telemetry.NewRegistry()
	c, err := cluster.New(cluster.Config{
		Hosts:     specs,
		Telemetry: reg,
		// A host silent for 25ms of virtual time is declared sick.
		SickAfter: 25 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	if err := c.Boot(); err != nil {
		return err
	}

	// Per-VM GOSHD on each host's own EM.
	for i := 0; i < c.NumHosts(); i++ {
		h := c.Host(i)
		for _, m := range h.Machines() {
			name := m.Name()
			det, err := goshd.New(goshd.Config{VM: m.VMID(), Clock: m.Clock(),
				VCPUs: opts.vcpus, Threshold: 4 * time.Second,
				OnHang: func(a goshd.HangAlarm) { fmt.Fprintf(w, "ALARM[%s]: %v\n", name, a) }})
			if err != nil {
				return err
			}
			if err := h.EM().RegisterAuditor(det, core.DeliverAsync, 0); err != nil {
				return err
			}
			det.Start()
			if _, err := workload.Launch(m, workload.MakeJ(2, 1<<20)); err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(w, "running %v of virtual time: %d hosts x %d VM(s) x %d vCPUs on one shared clock...\n",
		opts.duration, opts.hosts, opts.vms, opts.vcpus)
	start := time.Now()
	c.Run(opts.duration)
	real := time.Since(start)
	fmt.Fprintf(w, "\ndone: %v virtual in %v real (%.0fx)\n", opts.duration, real.Round(time.Millisecond),
		opts.duration.Seconds()/real.Seconds())

	for _, v := range c.Verdicts() {
		fmt.Fprintf(w, "verdict: host %s declared sick at %v (silent %v)\n", v.Host, v.At, v.Silence)
	}

	health := c.Health()
	for i := 0; i < c.NumHosts(); i++ {
		h, hh := c.Host(i), health[i]
		state := "healthy"
		if hh.Sick {
			state = "SICK"
		}
		fmt.Fprintf(w, "\n%s: %d VM(s), %d events published, last beat at %v (%s)\n",
			h.Name(), h.NumVMs(), hh.Published, hh.LastBeat, state)
		for _, m := range h.Machines() {
			st := m.Kernel().Stats()
			fmt.Fprintf(w, "  %s (vmid %d): %d syscalls, %d context switches, %d events\n",
				m.Name(), m.VMID(), st.Syscalls, st.ContextSwitches, h.EM().PublishedVM(m.VMID()))
		}
	}

	// The rollup registry holds every host's series under a {host=...} label;
	// the delivered-total counters double as the fleet scoreboard.
	fmt.Fprintln(w, "\nfleet rollup (hypertap_events_published_total by host):")
	for _, ctr := range reg.Snapshot().Counters {
		if ctr.Name != "hypertap_events_published_total" {
			continue
		}
		fmt.Fprintf(w, "  %v %d\n", ctr.Labels, ctr.Value)
	}
	return nil
}
