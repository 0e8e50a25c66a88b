package main

import (
	"fmt"
	"runtime"
	"time"

	"hypertap/internal/auditors/goshd"
	"hypertap/internal/auditors/hrkd"
	"hypertap/internal/auditors/ped"
	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/experiment"
	"hypertap/internal/guest"
	"hypertap/internal/hav"
	"hypertap/internal/hv"
	"hypertap/internal/vmi"
	"hypertap/internal/workload"
)

// fig7-syscall: Fig. 7's System Call Overhead, Pipe Throughput and
// Pipe-based Context Switching items, each run to completion in a fresh
// 2-vCPU VM under the paper's "All three" monitoring set, with the solo
// flight table armed and a capture recorder as the exit tap. It is the
// densest exit stream per guest operation and the only workload with a
// synchronous auditor: EF decode, EM sync delivery, HT-Ninja's guest reads
// and the capture writer do most of their work here.

var fig7Def = &workloadDef{name: "fig7-syscall", setup: setupFig7}

// fig7MaxTime bounds one item's run, as experiment.RunPerfOverhead does.
const fig7MaxTime = 30 * time.Minute

// fig7Items builds fresh specs of the three items (a Spec carries its
// completion state, so each run needs its own).
func fig7Items(scale int) []workload.Spec {
	return []workload.Spec{
		workload.SyscallOverhead(scale),
		workload.PipeThroughput(scale),
		workload.ContextSwitching(scale),
	}
}

type fig7 struct {
	scale int
	seed  int64
}

func setupFig7(sz sizes, seed int64, _ *hooks) (instance, time.Duration, tally, error) {
	// Every round builds its own machines; that construction is the
	// workload's set-up time.
	return &fig7{scale: sz.fig7Scale, seed: seed}, 0, tally{}, nil
}

// fig7Config is the machine experiment.RunPerfOverhead builds per item.
func fig7Config(seed int64, fl *core.FlightTable) hv.Config {
	return hv.Config{VCPUs: 2, MemBytes: 96 << 20, Guest: guest.Config{Seed: seed}, Flight: fl}
}

// fig7Auditors is experiment.Fig7Setups()[2]'s auditor set, wired by the
// benchmark so it can wrap them: HRKD async, HT-Ninja sync, GOSHD async.
type fig7Auditors struct {
	hrkd *hrkd.Detector
	htn  *ped.HTNinja
	gos  *goshd.Detector
}

func wireFig7(m *hv.Machine, engine *intercept.Engine, hk *hooks) (*fig7Auditors, error) {
	a := &fig7Auditors{}
	if hk != nil {
		hk.lag.rewire()
	}
	v := view(m, hk, false)
	var err error
	if a.hrkd, err = hrkd.New(hrkd.Config{View: v, Counter: engine, Intro: vmi.New(v, m.Kernel().Symbols())}); err != nil {
		return nil, err
	}
	if err := register(m.EM(), a.hrkd, core.ScopeFleet(), core.DeliverAsync, 0, hk); err != nil {
		return nil, err
	}
	if a.htn, err = ped.NewHTNinja(ped.HTNinjaConfig{Policy: ped.DefaultPolicy(), View: v, Intro: vmi.New(v, m.Kernel().Symbols())}); err != nil {
		return nil, err
	}
	if err := register(m.EM(), a.htn, core.ScopeFleet(), core.DeliverSync, 0, hk); err != nil {
		return nil, err
	}
	if a.gos, err = goshd.New(goshd.Config{Clock: m.Clock(), VCPUs: m.NumVCPUs(), Threshold: 4 * time.Second}); err != nil {
		return nil, err
	}
	if err := register(m.EM(), a.gos, core.ScopeFleet(), core.DeliverAsync, 0, hk); err != nil {
		return nil, err
	}
	a.gos.Start()
	return a, nil
}

// fig7ItemDigest is what one monitored item run must reproduce exactly.
type fig7ItemDigest struct {
	Item          string
	VirtualNs     int64
	Exits         map[string]uint64
	Published     uint64
	Subscriptions []string
	HTNinjaChecks uint64
	HTNinjaDetect int
	GOSHDAlarms   int
	HRKDCrossView string
	CaptureBytes  int64
	CaptureCRC    uint32
	FlightCRC     uint32
}

func (f *fig7) round(md mode, hk *hooks) (round, error) {
	r := round{md: md}
	var digest []fig7ItemDigest
	for _, spec := range fig7Items(f.scale) {
		r.ops++
		d, err := f.runItem(spec, md, hk, &r)
		if err != nil {
			return r, fmt.Errorf("%s: %w", spec.Name, err)
		}
		digest = append(digest, d)
	}
	if md == modeTraced {
		base, err := f.bare(hk, &r)
		if err != nil {
			return r, err
		}
		var sum float64
		for i, d := range digest {
			sum += float64(d.VirtualNs-int64(base[i])) / float64(base[i])
		}
		r.t.virtOverheadPct = 100 * sum / float64(len(digest))
	}
	r.digest = canon(digest)
	return r, nil
}

// runItem runs one item to completion under monitoring.
func (f *fig7) runItem(spec workload.Spec, md mode, hk *hooks, r *round) (fig7ItemDigest, error) {
	d := fig7ItemDigest{Item: spec.Name}
	// The previous item's machine is garbage now; collecting it first
	// keeps one machine's memory live at a time, so peak RSS does not
	// depend on when the collector happened to run.
	runtime.GC()
	t0 := time.Now()
	var m *hv.Machine
	err := timeBuild(&r.t.newNs, func() (err error) {
		m, err = hv.New(fig7Config(f.seed, core.NewFlightTable(1, 0, 0)))
		return err
	})
	if err != nil {
		return d, err
	}
	engine, err := m.EnableMonitoring(experiment.Fig7Setups()[2].Features)
	if err != nil {
		return d, err
	}
	if err := timeBuild(&r.t.bootNs, m.Boot); err != nil {
		return d, err
	}
	r.t.builds++
	auds, err := wireFig7(m, engine, hk)
	if err != nil {
		return d, err
	}
	sink := &crcSink{}
	rec, err := capture.NewRecorder(sink, capture.Header{
		Tick: time.Millisecond,
		VMs:  []capture.VMHeader{{Name: m.Name(), VCPUs: m.NumVCPUs()}},
	})
	if err != nil {
		return d, err
	}
	var tap core.ExitStreamTap = rec
	if hk != nil {
		tap = &lagTap{inner: rec, hk: hk}
	}
	m.SetExitTap(tap)
	r.setup += time.Since(t0)

	vs, es := snapVM(m), snapEM(m.EM())
	var tapped uint64
	if hk != nil {
		tapped = hk.tapped
	}
	var virt time.Duration
	t1 := time.Now()
	if md == modeTraced {
		hk.tr.openWindow()
		virt, err = runTraced(m, spec, hk.tr, spStep, spDispatch, tap)
		hk.tr.closeWindow()
	} else {
		virt, err = workload.RunToCompletion(m, spec, fig7MaxTime)
	}
	r.wall += time.Since(t1)
	if err != nil {
		return d, err
	}
	if err := rec.Finish(); err != nil {
		return d, err
	}
	r.t.work += r.t.addVM(m, vs)
	r.t.addEM(m.EM(), es)
	r.t.captureBytes += uint64(sink.n)
	if hk != nil {
		r.t.capturedEvents += hk.tapped - tapped
	}

	d.VirtualNs = int64(virt)
	after := snapVM(m)
	d.Exits = make(map[string]uint64)
	for reason := 1; reason <= hav.NumExitReasons; reason++ {
		if n := after.exits[reason] - vs.exits[reason]; n > 0 {
			d.Exits[hav.ExitReason(reason).String()] = n
		}
	}
	d.Published = m.EM().Published() - es.published
	d.Subscriptions = subscriptions(m.EM())
	d.HTNinjaChecks = auds.htn.Checks()
	d.HTNinjaDetect = len(auds.htn.Detections())
	d.GOSHDAlarms = len(auds.gos.Alarms())
	d.CaptureBytes, d.CaptureCRC = sink.n, sink.crc
	if d.FlightCRC, err = flightCRC(m.EM(), []core.VMID{0}, nil); err != nil {
		return d, err
	}
	err = untraced(hk, func() error {
		rep, err := auds.hrkd.CrossCheck()
		if err != nil {
			return err
		}
		d.HRKDCrossView = fmt.Sprintf("address-spaces=%d threads=%d view-tasks=%d hidden=%d",
			rep.ArchAddressSpaces, rep.ArchThreads, rep.ViewTasks, len(rep.Hidden))
		return nil
	})
	return d, err
}

// runTraced is workload.RunToCompletion with the machine loop decomposed
// into timed steps.
func runTraced(m *hv.Machine, spec workload.Spec, tr *tracer, step, dispatch spanKind, tap core.ExitStreamTap) (time.Duration, error) {
	st, err := workload.Launch(m, spec)
	if err != nil {
		return 0, err
	}
	start := m.Clock().Now()
	runUntil(m, fig7MaxTime, st.Done, tr, step, dispatch, tap)
	if !st.Done() {
		return 0, fmt.Errorf("workload %q did not complete within %v", spec.Name, fig7MaxTime)
	}
	return st.FinishedAt() - start, nil
}

// bare runs the unmonitored baseline passes, for the virtual-time
// overhead and, timed outside the traced window, the guest simulation's own
// cost.
func (f *fig7) bare(hk *hooks, r *round) ([]time.Duration, error) {
	var out []time.Duration
	for _, spec := range fig7Items(f.scale) {
		m, err := hv.New(fig7Config(f.seed, nil))
		if err != nil {
			return nil, err
		}
		if err := m.Boot(); err != nil {
			return nil, err
		}
		before := m.TotalExits()
		virt, err := runTraced(m, spec, hk.tr, spStepBare, spDispatchBare, nil)
		if err != nil {
			return nil, fmt.Errorf("%s unmonitored: %w", spec.Name, err)
		}
		r.t.bare += m.TotalExits() - before
		out = append(out, virt)
	}
	return out, nil
}
