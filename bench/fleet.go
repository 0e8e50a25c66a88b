package main

import (
	"fmt"
	"time"

	"hypertap/internal/auditors/fleetwatch"
	"hypertap/internal/auditors/goshd"
	"hypertap/internal/auditors/hrkd"
	"hypertap/internal/capture"
	"hypertap/internal/core"
	"hypertap/internal/experiment"
	"hypertap/internal/guest"
	"hypertap/internal/host"
	"hypertap/internal/hv"
	"hypertap/internal/vclock"
	"hypertap/internal/vmi"
	"hypertap/internal/workload"
)

// fleet-mixed: the paper's Fig. 2 deployment. One host runs 8 monitored
// VMs on one shared EM, slot j running a different Fig. 7 suite class,
// scaled so that none completes. Auditors are per-VM GOSHD and HRKD plus a
// fleet-wide fleetwatch, all asynchronous; there is no synchronous auditor
// and no capture writer, so async queueing, Dispatch, (VM, type) routing
// and batched delivery carry the load, and a change to the sync path or
// the capture writer should not move this workload.

var fleetDef = &workloadDef{name: "fleet-mixed", setup: setupFleet}

// fleetScale is large enough that no slot's item completes in any run.
const fleetScale = 1 << 20

// fleetTick is the host's scheduler tick.
const fleetTick = time.Millisecond

// fleetSlot launches slot j's workload: the CPU, file copy, pipe, context
// switch, system call, shell, process creation and exec classes of the
// Fig. 7 suite.
func fleetSlot(m *hv.Machine, slot int) error {
	var spec workload.Spec
	switch slot % 8 {
	case 0:
		spec = workload.Dhrystone(fleetScale)
	case 1:
		// workload.FileCopy caps its unit count, so it would complete;
		// this is its read/write body as an endless loop.
		_, err := m.Kernel().CreateProcess(&guest.ProcSpec{
			Comm: "filecopy", UID: 1000,
			Program: &guest.LoopProgram{Body: []guest.Step{
				guest.DoSyscall(guest.SysRead, 3, 256),
				guest.DoSyscall(guest.SysWrite, 3, 256),
			}},
		}, nil)
		return err
	case 2:
		spec = workload.PipeThroughput(fleetScale)
	case 3:
		spec = workload.ContextSwitching(fleetScale)
	case 4:
		spec = workload.SyscallOverhead(fleetScale)
	case 5:
		spec = workload.ShellScripts(8, fleetScale)
	case 6:
		spec = workload.ProcessCreation(fleetScale)
	default:
		spec = workload.Execl(fleetScale)
	}
	_, err := workload.Launch(m, spec)
	return err
}

// fleetSource is what the fleet's auditors read: a live host's machines,
// or a replay's recorded stream.
type fleetSource struct {
	ids     []core.VMID
	clock   func(i int) *vclock.Clock
	view    func(i int) core.GuestView
	counter func(i int) hrkd.ProcessCounter
	sym     []guest.Symbols
	// timedViews wraps the views for timing whenever the hooks trace,
	// for a wiring that serves both hooked and traced rounds.
	timedViews bool
}

// fleetAuditors is the fleet's auditing plane.
type fleetAuditors struct {
	ids []core.VMID
	// wiredAt is each VM's published count when the auditors were wired.
	wiredAt []uint64
	gos     []*goshd.Detector
	hr      []*hrkd.Detector
	fw      *fleetwatch.Accountant
}

// wireFleet registers the auditors in a fixed order (per VM: GOSHD, HRKD;
// then fleetwatch), so actor IDs — and with them the flight rings — line
// up between any two wirings.
func wireFleet(em *core.Multiplexer, src fleetSource, hk *hooks) (*fleetAuditors, error) {
	a := &fleetAuditors{ids: src.ids}
	if hk != nil {
		hk.lag.rewire()
	}
	for i, id := range src.ids {
		a.wiredAt = append(a.wiredAt, em.PublishedVM(id))
		g, err := goshd.New(goshd.Config{VM: id, Clock: src.clock(i), VCPUs: 2, Threshold: 4 * time.Second})
		if err != nil {
			return nil, err
		}
		if err := register(em, g, core.ScopeVM(id), core.DeliverAsync, 0, hk); err != nil {
			return nil, err
		}
		v := view(src.view(i), hk, src.timedViews)
		h, err := hrkd.New(hrkd.Config{VM: id, View: v, Counter: src.counter(i), Intro: vmi.New(v, src.sym[i])})
		if err != nil {
			return nil, err
		}
		if err := register(em, h, core.ScopeVM(id), core.DeliverAsync, 0, hk); err != nil {
			return nil, err
		}
		a.gos = append(a.gos, g)
		a.hr = append(a.hr, h)
	}
	a.fw = fleetwatch.New(fleetwatch.Config{VMName: em.VMName})
	if err := register(em, a.fw, core.ScopeFleet(), core.DeliverAsync, 0, hk); err != nil {
		return nil, err
	}
	for _, g := range a.gos {
		g.Start()
	}
	return a, nil
}

// fleetVerdicts is the auditing plane's state: what a replay of the
// fleet's capture must reproduce exactly.
type fleetVerdicts struct {
	GOSHDAlarms   []int
	HRKDThreads   []int
	Storms        int
	Fleetwatch    uint64
	Subscriptions []string
	FlightCRC     uint32
}

func (a *fleetAuditors) verdicts(em *core.Multiplexer) (fleetVerdicts, error) {
	v := fleetVerdicts{Storms: len(a.fw.Storms()),
		Fleetwatch: a.fw.Total(), Subscriptions: subscriptions(em)}
	for i := range a.ids {
		v.GOSHDAlarms = append(v.GOSHDAlarms, len(a.gos[i].Alarms()))
		v.HRKDThreads = append(v.HRKDThreads, len(a.hr[i].SeenThreads()))
	}
	fresh := make([]uint64, len(a.ids))
	for i, id := range a.ids {
		fresh[i] = em.PublishedVM(id) - a.wiredAt[i]
	}
	var err error
	v.FlightCRC, err = flightCRC(em, a.ids, fresh)
	return v, err
}

// fleetHost is one monitored host with its auditors.
type fleetHost struct {
	h      *host.Host
	auds   *fleetAuditors
	tap    core.ExitStreamTap
	rounds int
}

// fleetVMNames names the host's VMs.
func fleetVMNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("vm%d", i)
	}
	return names
}

// buildFleetHost builds, boots and wires the fleet. When rec is set, the
// recorder is the exit tap and the auditors read through its recording
// wrappers. VM builds are added to b.
func buildFleetHost(sz sizes, seed int64, hk *hooks, rec *capture.Recorder, b *tally) (*fleetHost, error) {
	var specs []host.VMSpec
	for i, name := range fleetVMNames(sz.fleetVMs) {
		specs = append(specs, host.VMSpec{
			Name: name, VCPUs: 2, MemBytes: 64 << 20,
			Guest:   guest.Config{Seed: seed*100 + int64(i)},
			Monitor: true, Features: experiment.Fig7Setups()[2].Features,
		})
	}
	var h *host.Host
	err := timeBuild(&b.newNs, func() (err error) {
		h, err = host.New(host.Config{Name: "bench-host", Tick: fleetTick, VMs: specs})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := timeBuild(&b.bootNs, h.Boot); err != nil {
		return nil, err
	}
	b.builds += h.NumVMs()
	src := fleetSource{
		timedViews: hk != nil,
		clock:      func(i int) *vclock.Clock { return h.Machine(i).Clock() },
		view: func(i int) core.GuestView {
			if rec != nil {
				return rec.View(h.Machine(i), h.Machine(i).VMID())
			}
			return h.Machine(i)
		},
		counter: func(i int) hrkd.ProcessCounter {
			if rec != nil {
				return rec.Counter(h.Machine(i).Engine(), h.Machine(i).VMID())
			}
			return h.Machine(i).Engine()
		},
	}
	for i, m := range h.Machines() {
		if err := fleetSlot(m, i); err != nil {
			return nil, err
		}
		src.ids = append(src.ids, m.VMID())
		src.sym = append(src.sym, m.Kernel().Symbols())
	}
	auds, err := wireFleet(h.EM(), src, hk)
	if err != nil {
		return nil, err
	}
	fh := &fleetHost{h: h, auds: auds}
	if rec != nil {
		fh.tap = rec
	}
	if hk != nil {
		fh.tap = &lagTap{inner: fh.tap, hk: hk}
	}
	if fh.tap != nil {
		h.SetExitTap(fh.tap)
	}
	return fh, nil
}

// stepRounds is Host.Run(d) decomposed into the public steps it is made of
// — every machine's StepTick, the tap's TapBarrier and the shared EM's
// Dispatch — each timed as its own span.
func (fh *fleetHost) stepRounds(d time.Duration, tr *tracer) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += fleetTick {
		for _, m := range fh.h.Machines() {
			tr.begin(spStep)
			m.StepTick()
			tr.end()
		}
		if fh.tap != nil {
			tr.begin(spBarrier)
			fh.tap.TapBarrier(elapsed + fleetTick)
			tr.end()
		}
		tr.begin(spDispatch)
		fh.h.EM().Dispatch(0)
		tr.end()
	}
}

type fleet struct {
	d time.Duration
	// a runs plain rounds; b, present in a traced run, runs the hooked and
	// traced rounds. Both advance one round per cycle step, so round k of
	// either must give the same digest.
	a, b *fleetHost
}

func setupFleet(sz sizes, seed int64, hk *hooks) (instance, time.Duration, tally, error) {
	// The host is built fleetSetups times, all kept alive until the last
	// is done so that each build maps fresh memory as the first one does,
	// and the median build time is the set-up time.
	var b tally
	var hosts []*fleetHost
	var times []float64
	for i := 0; i < fleetSetups; i++ {
		t0 := time.Now()
		fh, err := buildFleetHost(sz, seed, nil, nil, &b)
		if err != nil {
			return nil, 0, b, err
		}
		times = append(times, time.Since(t0).Seconds())
		hosts = append(hosts, fh)
	}
	f := &fleet{d: sz.fleetRound, a: hosts[0]}
	if hk != nil {
		var err error
		if f.b, err = buildFleetHost(sz, seed, hk, nil, &b); err != nil {
			return nil, 0, b, err
		}
	}
	return f, time.Duration(median(times) * float64(time.Second)), b, nil
}

// fleetSetups is how many times set-up builds the fleet host to time it.
const fleetSetups = 5

// fleetDigest is the host's state after a round.
type fleetDigest struct {
	Exits, Published uint64
	Verdicts         fleetVerdicts
}

func (f *fleet) round(md mode, hk *hooks) (round, error) {
	fh := f.a
	if md != modePlain && hk != nil {
		fh = f.b
	}
	r := round{md: md, ops: 1, key: fh.rounds}
	fh.rounds++
	snaps := make([]vmSnap, fh.h.NumVMs())
	for i, m := range fh.h.Machines() {
		snaps[i] = snapVM(m)
	}
	es := snapEM(fh.h.EM())
	t0 := time.Now()
	if md == modeTraced {
		hk.tr.openWindow()
		fh.stepRounds(f.d, hk.tr)
		hk.tr.closeWindow()
	} else {
		fh.h.Run(f.d)
	}
	r.wall = time.Since(t0)
	var d fleetDigest
	for i, m := range fh.h.Machines() {
		r.t.work += r.t.addVM(m, snaps[i])
		d.Exits += m.TotalExits()
	}
	r.t.addEM(fh.h.EM(), es)
	d.Published = fh.h.EM().Published()
	var err error
	if d.Verdicts, err = fh.auds.verdicts(fh.h.EM()); err != nil {
		return r, err
	}
	r.digest = canon(d)
	return r, nil
}
