// Command hypertap boots a host fleet of monitored VMs sharing one Event
// Multiplexer, attaches the three example auditors (GOSHD, HRKD, HT-Ninja)
// per VM plus a fleet-wide event-rate accountant, runs a demo workload, and
// streams the unified event log plus auditor verdicts. It demonstrates the
// full framework on one screen; optionally it heartbeats to a Remote Health
// Checker through the host's single connection.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/auditors/goshd"
	"hypertap/internal/auditors/hrkd"
	"hypertap/internal/auditors/ped"
	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/flight"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/telemetry"
	"hypertap/internal/telemetry/httpexport"
	"hypertap/internal/vmi"
	"hypertap/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hypertap:", err)
		os.Exit(1)
	}
}

// run is main's body, split out with its own FlagSet so the smoke test can
// drive the binary in-process with any argument vector.
func run(args []string) error {
	fs := flag.NewFlagSet("hypertap", flag.ContinueOnError)
	var (
		duration  = fs.Duration("duration", 10*time.Second, "virtual time to run")
		vms       = fs.Int("vms", 1, "guest VMs sharing the host's Event Multiplexer")
		vcpus     = fs.Int("vcpus", 2, "virtual CPUs per VM")
		sysenter  = fs.Bool("sysenter", false, "use the fast-syscall gate instead of INT 0x80")
		tailEvent = fs.Int("tail", 20, "print the first N decoded events per type")
		withRHC   = fs.Bool("rhc", false, "start a Remote Health Checker and heartbeat to it over TCP")
		traceFile = fs.String("trace", "", "record the decoded exit stream to this .htcs capture file (read it with hypertap-capture info/replay)")
		telAddr   = fs.String("telemetry-addr", "", "serve /metrics, /healthz, /flight and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		seed      = fs.Int64("seed", 1, "deterministic seed (VM i runs at seed+i)")
		flightDir = fs.String("flight-dir", "", "at exit, write the flight recorder's shutdown bundle to incident-000-shutdown under this directory")
		flightDep = fs.Int("flight-depth", 0, "per-VM flight-recorder ring depth, rounded up to a power of two (0 = 1024; negative disables tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *vms < 1 {
		return fmt.Errorf("-vms must be at least 1, got %d", *vms)
	}
	var reg *telemetry.Registry
	if *telAddr != "" {
		reg = telemetry.NewRegistry()
	}

	feat := intercept.Features{
		ProcessSwitch: true, ThreadSwitch: true, TSSIntegrity: true, Syscalls: true, IO: true,
	}
	specs := make([]host.VMSpec, *vms)
	for i := range specs {
		gcfg := guest.Config{Seed: *seed + int64(i)}
		if *sysenter {
			gcfg.Mech = guest.MechSysenter
		}
		specs[i] = host.VMSpec{
			Name:  fmt.Sprintf("vm%d", i),
			VCPUs: *vcpus, Guest: gcfg,
			Monitor: true, Features: feat,
		}
	}
	if *flightDir != "" && *flightDep < 0 {
		return fmt.Errorf("-flight-dir needs the recorder, but -flight-depth=%d disables it", *flightDep)
	}
	h, err := host.New(host.Config{Name: "host0", Telemetry: reg, VMs: specs, FlightDepth: *flightDep})
	if err != nil {
		return err
	}
	em := h.EM()

	// Event tail printer: one fleet-wide subscriber, VM-attributed lines.
	printed := make(map[core.EventType]int)
	tail := &core.AuditorFunc{AuditorName: "tail", EventMask: core.MaskAll, Fn: func(ev *core.Event) {
		if printed[ev.Type] < *tailEvent {
			printed[ev.Type]++
			name, _ := em.VMName(ev.VM)
			fmt.Printf("  event[%s]: %v\n", name, ev)
		}
	}}
	if err := em.Register(tail, core.DeliverAsync, 0); err != nil {
		return err
	}

	// Optional exit-stream capture, tapped in before boot so it sees every
	// decoded event, tick and barrier. The auditors read the guest directly,
	// not through recording views, so a replay re-judges the stream with the
	// fleet plane (GOSHD, fleetwatch), which reads nothing.
	var capRec *capture.Recorder
	var capFile *os.File
	if *traceFile != "" {
		if capFile, err = os.Create(*traceFile); err != nil {
			return err
		}
		// Closes on error paths; the success path closes and checks below.
		defer func() { _ = capFile.Close() }()
		hdr := capture.Header{Host: h.Name(), Tick: time.Millisecond}
		for i := 0; i < *vms; i++ {
			m := h.Machine(i)
			hdr.VMs = append(hdr.VMs, capture.VMHeader{Name: m.Name(), VCPUs: m.NumVCPUs()})
		}
		if capRec, err = capture.NewRecorder(capFile, hdr); err != nil {
			return err
		}
		h.SetExitTap(capRec)
	}

	// Per-VM GOSHD detectors, registered (VM-scoped) before boot so no
	// context switch escapes them.
	dets := make([]*goshd.Detector, *vms)
	for i := 0; i < *vms; i++ {
		m := h.Machine(i)
		name := m.Name()
		det, err := goshd.New(goshd.Config{VM: m.VMID(), Clock: m.Clock(), VCPUs: *vcpus,
			Threshold: 4 * time.Second,
			OnHang:    func(a goshd.HangAlarm) { fmt.Printf("ALARM[%s]: %v\n", name, a) }})
		if err != nil {
			return err
		}
		if reg != nil {
			det.EnableTelemetry(reg)
		}
		if err := em.Register(det, core.DeliverAsync, 0); err != nil {
			return err
		}
		dets[i] = det
	}

	// The fleet-wide consumer: cross-VM event-rate accounting.
	var fw *fleetwatch.Accountant
	if *vms > 1 {
		fw = fleetwatch.New(fleetwatch.Config{
			VMName:  em.VMName,
			OnStorm: func(s fleetwatch.Storm) { fmt.Println("ALARM:", s) },
		})
		if reg != nil {
			fw.EnableTelemetry(reg)
		}
		if err := em.Register(fw, core.DeliverAsync, 1<<16); err != nil {
			return err
		}
	}

	if err := h.Boot(); err != nil {
		return err
	}

	// Per-VM security auditors need booted kernels (symbol tables).
	rks := make([]*hrkd.Detector, *vms)
	for i := 0; i < *vms; i++ {
		m := h.Machine(i)
		name := m.Name()
		dets[i].Start()
		intro := vmi.New(m, m.Kernel().Symbols())
		rk, err := hrkd.New(hrkd.Config{VM: m.VMID(), View: m, Counter: m.Engine(), Intro: intro})
		if err != nil {
			return err
		}
		if reg != nil {
			rk.EnableTelemetry(reg)
		}
		if err := em.Register(rk, core.DeliverAsync, 0); err != nil {
			return err
		}
		rks[i] = rk
		htn, err := ped.NewHTNinja(ped.HTNinjaConfig{Policy: ped.DefaultPolicy(),
			VM: m.VMID(), View: m, Intro: intro,
			OnDetect: func(d ped.Detection) { fmt.Printf("ALARM[%s]: %v\n", name, d) }})
		if err != nil {
			return err
		}
		if reg != nil {
			htn.EnableTelemetry(reg)
		}
		if err := em.Register(htn, core.DeliverSync, 0); err != nil {
			return err
		}
	}

	// Optional RHC over real TCP: one connection carries the whole fleet.
	var health httpexport.Health
	var rhcSrv *core.RHCServer
	if *withRHC {
		srv, err := core.NewRHCServer("127.0.0.1:0", 500*time.Millisecond)
		if err != nil {
			return err
		}
		rhcSrv = srv
		defer func() { _ = srv.Close() }()
		if reg != nil {
			srv.EnableTelemetry(reg)
		}
		health = srv.Health
		if err := h.ConnectRHC(srv.Addr(), 64); err != nil {
			return err
		}
		defer func() { _ = h.Close() }()
		fmt.Println("RHC listening on", srv.Addr())
		go func() {
			for alert := range srv.Alerts() {
				fmt.Printf("RHC ALERT: %s silent for %v\n", alert.VM, alert.Silence.Round(time.Millisecond))
			}
		}()
	}

	// Live observability endpoint: Prometheus-text /metrics, an RHC-backed
	// /healthz (degraded when heartbeats stall; always healthy without -rhc),
	// the /flight Perfetto trace, and the Go profiler under /debug/pprof/.
	if *telAddr != "" {
		tsrv, err := httpexport.Serve(*telAddr, httpexport.Options{
			Registry: reg, Health: health, EM: em, Pprof: true,
		})
		if err != nil {
			return err
		}
		defer func() { _ = tsrv.Close() }()
		fmt.Println("telemetry listening on", tsrv.Addr())
	}

	// A demo workload per VM.
	for i := 0; i < *vms; i++ {
		m := h.Machine(i)
		if _, err := workload.Launch(m, workload.MakeJ(2, 1<<20)); err != nil {
			return err
		}
		if _, err := m.Kernel().CreateProcess(workload.SSHD(), nil); err != nil {
			return err
		}
	}

	fmt.Printf("running %v of virtual time: %d VM(s) x %d vCPUs (%v gate) on one EM...\n",
		*duration, *vms, *vcpus, h.Machine(0).Kernel().Config().Mech)
	start := time.Now()
	h.Run(*duration)
	real := time.Since(start)

	fmt.Printf("\ndone: %v virtual in %v real (%.0fx)\n", *duration, real.Round(time.Millisecond),
		duration.Seconds()/real.Seconds())
	// With -flight-dir, the finished stream is read back so the shutdown
	// bundle carries it as capture.htcs and replays on its own; without
	// -trace it stays empty and the bundle has no capture.
	var stream []byte
	if capRec != nil {
		if err := capRec.Finish(); err != nil {
			return fmt.Errorf("capture %s: %w", *traceFile, err)
		}
		if err := capFile.Close(); err != nil {
			return fmt.Errorf("capture %s: %w", *traceFile, err)
		}
		if *flightDir != "" {
			if stream, err = os.ReadFile(*traceFile); err != nil {
				return fmt.Errorf("capture %s: %w", *traceFile, err)
			}
		}
		fmt.Printf("capture: exit stream written to %s (replay at the live threshold: hypertap-capture replay -threshold 4s %s)\n",
			*traceFile, *traceFile)
	}

	// Quiesce the RHC before the final drain: heartbeats travel over real
	// TCP, so the last beats sent during the run may still be in flight when
	// the run loop returns. Waiting for each VM's beat keeps the shutdown
	// bundle's rhc.json a faithful end-of-run view instead of a race.
	if rhcSrv != nil {
		for _, name := range em.VMs() {
			rhcSrv.WaitHeartbeat(name, time.Second)
		}
	}
	// Final flight drain: the same bundle format incident capture uses, so
	// every run can be inspected with hypertap-capture info -chrome-trace
	// and, with -trace, replayed with hypertap-capture replay -bundle.
	if *flightDir != "" {
		b, err := flight.Raise(em, "shutdown", 0, *duration, nil)
		if err != nil {
			return err
		}
		b.Meta.Context = map[string]string{"seed": fmt.Sprint(*seed)}
		if reg != nil {
			snap := reg.Snapshot()
			b.Telemetry = &snap
		}
		if rhcSrv != nil {
			b.RHC = flight.RHCStateOf(rhcSrv, b.Meta.VMNames)
		}
		b.Capture = stream
		dir := filepath.Join(*flightDir, "incident-000-shutdown")
		if err := b.Write(dir); err != nil {
			return err
		}
		fmt.Println("flight bundle written to", dir)
	}
	for i := 0; i < *vms; i++ {
		m := h.Machine(i)
		st := m.Kernel().Stats()
		fmt.Printf("%s: %d syscalls, %d context switches, %d procs created, %d exits, %d events\n",
			m.Name(), st.Syscalls, st.ContextSwitches, st.ProcsCreated,
			m.TotalExits(), em.PublishedVM(m.VMID()))
	}
	fmt.Printf("fleet: %d events published\n", em.Published())
	if fw != nil {
		fmt.Printf("fleetwatch: %d events accounted, %d storms\n", fw.Total(), len(fw.Storms()))
	}
	fmt.Println("\nengine decode counts (vm0):")
	for ty, n := range h.Machine(0).Engine().Stats().Decoded {
		if n != 0 {
			fmt.Printf("  %-16v %d\n", core.EventType(ty), n)
		}
	}
	fmt.Println("\nEM subscriptions:")
	for _, s := range em.Stats() {
		fmt.Printf("  %-10s %-6s %-6v delivered=%d queued=%d dropped=%d\n",
			s.Auditor, s.Scope, s.Mode, s.Delivered, s.Queued, s.Dropped)
	}
	for i := 0; i < *vms; i++ {
		m := h.Machine(i)
		report, err := rks[i].CrossCheck()
		if err != nil {
			return err
		}
		fmt.Printf("\n%s HRKD cross-view: %d address spaces, %d threads, %d hidden\n",
			m.Name(), report.ArchAddressSpaces, report.ArchThreads, len(report.Hidden))
		fmt.Printf("%s process count (Fig. 3A): %d live address spaces\n",
			m.Name(), m.Engine().CountProcesses())
	}
	return nil
}
