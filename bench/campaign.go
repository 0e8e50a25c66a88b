package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hypertap/internal/auditors/goshd"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/experiment"
	"hypertap/internal/experiment/runner"
	"hypertap/internal/guest"
	"hypertap/internal/hv"
	"hypertap/internal/inject"
	"hypertap/internal/workload"
)

// goshd-campaign: the Fig. 4/5 GOSHD fault-injection campaign on a subset
// of fault sites (workloads make -j2 and http, non-preemptible kernel,
// persistent faults), sharded over 2 workers. Many short VMs: an hv.New
// and a boot per injection run, long virtual hang-watch windows of guest
// simulation, and the sharded runner. The only auditor is GOSHD, async, on
// context-switch exits; monitor layers do little here, so gains in VM
// construction, guest simulation and the runner show here and nowhere else.

var campaignDef = &workloadDef{name: "goshd-campaign", setup: setupCampaign}

// campaignWorkers is the runner's worker count.
const campaignWorkers = 2

type campaign struct {
	cfg  experiment.GOSHDConfig
	jobs []experiment.InjectionConfig
	// exits is the exit count of one round, known once a round has run
	// through the benchmark's wiring (RunGOSHDCampaign does not report it).
	exits uint64
}

// campaignConfig is the subset one round runs.
func campaignConfig(sz sizes, seed int64) experiment.GOSHDConfig {
	return experiment.GOSHDConfig{
		SampleEvery:  sz.campaignSampleEvery,
		Workloads:    []string{"make -j2", "http"},
		Kernels:      []bool{false},
		Persistences: []inject.Persistence{inject.Persistent},
		Seed:         seed,
		Parallel:     campaignWorkers,
	}
}

func setupCampaign(sz sizes, seed int64, _ *hooks) (instance, time.Duration, tally, error) {
	c := &campaign{cfg: campaignConfig(sz, seed)}
	m, err := hv.New(hv.Config{VCPUs: 1, MemBytes: 64 << 20})
	if err != nil {
		return nil, 0, tally{}, err
	}
	c.jobs = campaignJobs(c.cfg, m.Kernel().Sites())
	// Each injection run starts by building, arming and booting its VM;
	// that per-run construction is the set-up here, timed on a few
	// machines like the campaign's, and its median kept.
	var b tally
	var times []float64
	for i := 0; i < campaignSetups; i++ {
		t0 := time.Now()
		if _, _, err := buildInjectionVM(c.jobs[i%len(c.jobs)], nil, &b); err != nil {
			return nil, 0, b, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return c, time.Duration(median(times) * float64(time.Second)), b, nil
}

// campaignSetups is how many injection VMs set-up builds to time.
const campaignSetups = 9

// campaignJobs is RunGOSHDCampaign's run list for cfg, with its defaults.
func campaignJobs(cfg experiment.GOSHDConfig, sites []guest.SiteInfo) []experiment.InjectionConfig {
	var jobs []experiment.InjectionConfig
	for _, preempt := range cfg.Kernels {
		for _, p := range cfg.Persistences {
			for _, wl := range cfg.Workloads {
				for i, s := range sites {
					if i%cfg.SampleEvery != 0 {
						continue
					}
					jobs = append(jobs, experiment.InjectionConfig{
						Workload: wl, Preemptible: preempt,
						Fault:     inject.Fault{Site: s.ID, Persistence: p},
						Threshold: 4 * time.Second, Exposure: 15 * time.Second,
						Runway: 12 * time.Second, Observe: 30 * time.Second,
						Seed: cfg.Seed + int64(s.ID),
					})
				}
			}
		}
	}
	return jobs
}

// campaignDigest is the outcome table and Fig. 5 latencies of one round.
type campaignDigest struct {
	Runs       int
	Outcomes   map[string]int
	FirstHangs []int64
	FullHangs  []int64
}

func digestResults(results []inject.RunResult) campaignDigest {
	d := campaignDigest{Runs: len(results), Outcomes: make(map[string]int)}
	for i := range results {
		rr := &results[i]
		d.Outcomes[rr.Outcome.String()]++
		if lat, ok := rr.DetectionLatency(); ok {
			d.FirstHangs = append(d.FirstHangs, int64(lat))
		}
		if lat, ok := rr.FullHangLatency(); ok {
			d.FullHangs = append(d.FullHangs, int64(lat))
		}
	}
	sort.Slice(d.FirstHangs, func(i, j int) bool { return d.FirstHangs[i] < d.FirstHangs[j] })
	sort.Slice(d.FullHangs, func(i, j int) bool { return d.FullHangs[i] < d.FullHangs[j] })
	return d
}

func (c *campaign) round(md mode, hk *hooks) (round, error) {
	r := round{md: md, ops: len(c.jobs)}
	var d campaignDigest
	t0 := time.Now()
	if md == modePlain {
		if c.exits == 0 {
			return r, fmt.Errorf("campaign entry point run before any wired round counted its exits")
		}
		res, err := experiment.RunGOSHDCampaign(c.cfg)
		r.wall = time.Since(t0)
		if err != nil {
			return r, err
		}
		d = campaignDigest{Runs: res.Runs, Outcomes: make(map[string]int)}
		for o, n := range res.Outcomes() {
			d.Outcomes[o.String()] = n
		}
		for _, l := range res.AllFirstLatencies() {
			d.FirstHangs = append(d.FirstHangs, int64(l))
		}
		for _, l := range res.AllFullLatencies() {
			d.FullHangs = append(d.FullHangs, int64(l))
		}
		r.t.work = c.exits
	} else {
		var mu sync.Mutex
		camp := runner.Campaign[inject.RunResult]{
			Units:    len(c.jobs),
			Parallel: campaignWorkers,
			Seed:     c.cfg.Seed,
			Run: func(ctx *runner.Ctx) (inject.RunResult, error) {
				var uh *hooks
				if hk != nil {
					uh = newHooks()
					if hk.tr != nil {
						uh.tr = &tracer{tid: 2 + ctx.Index}
					}
				}
				var t tally
				rr, err := runInjection(c.jobs[ctx.Index], uh, &t)
				mu.Lock()
				r.t.add(&t)
				if uh != nil {
					hk.lag.samples = append(hk.lag.samples, uh.lag.samples...)
					if uh.tr != nil {
						hk.tr.merge(uh.tr)
					}
				}
				mu.Unlock()
				return rr, err
			},
		}
		res, err := camp.Execute()
		r.wall = time.Since(t0)
		if err != nil {
			return r, err
		}
		d = digestResults(res.Units)
		c.exits = r.t.work
	}
	r.digest = canon(d)
	return r, nil
}

// serial runs one round through RunGOSHDCampaign on one worker, timing
// each unit from the runner's progress callbacks.
func (c *campaign) serial() ([]float64, time.Duration, error) {
	cfg := c.cfg
	cfg.Parallel = 1
	var unitMs []float64
	last := time.Now()
	cfg.Progress = func(done, total int) {
		now := time.Now()
		unitMs = append(unitMs, float64(now.Sub(last))/1e6)
		last = now
	}
	t0 := time.Now()
	_, err := experiment.RunGOSHDCampaign(cfg)
	return unitMs, time.Since(t0), err
}

// buildInjectionVM is experiment.RunInjection's machine, before boot: a
// 2-vCPU VM forwarding context switches to GOSHD.
func buildInjectionVM(cfg experiment.InjectionConfig, hk *hooks, t *tally) (*hv.Machine, *goshd.Detector, error) {
	var m *hv.Machine
	err := timeBuild(&t.newNs, func() (err error) {
		m, err = hv.New(hv.Config{VCPUs: 2, MemBytes: 64 << 20,
			Guest: guest.Config{Preemptible: cfg.Preemptible, Seed: cfg.Seed}})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := m.EnableMonitoring(intercept.Features{ProcessSwitch: true, ThreadSwitch: true}); err != nil {
		return nil, nil, err
	}
	det, err := goshd.New(goshd.Config{Clock: m.Clock(), VCPUs: m.NumVCPUs(), Threshold: cfg.Threshold})
	if err != nil {
		return nil, nil, err
	}
	if hk != nil {
		hk.lag.rewire()
	}
	if err := register(m.EM(), det, core.ScopeFleet(), core.DeliverAsync, 0, hk); err != nil {
		return nil, nil, err
	}
	return m, det, nil
}

// runInjection is experiment.RunInjection wired by the benchmark: with
// hooks, GOSHD is wrapped and the lag tap installed, and with a tracer the
// machine loops are decomposed into timed steps. Counts go to t.
func runInjection(cfg experiment.InjectionConfig, hk *hooks, t *tally) (inject.RunResult, error) {
	var tr *tracer
	if hk != nil {
		tr = hk.tr
	}
	if tr != nil {
		tr.openWindow()
		defer tr.closeWindow()
	}
	span := func(k spanKind, fn func() error) error {
		if tr == nil {
			return fn()
		}
		tr.begin(k)
		defer tr.end()
		return fn()
	}
	var m *hv.Machine
	var det *goshd.Detector
	err := span(spHVNew, func() (err error) {
		m, det, err = buildInjectionVM(cfg, hk, t)
		return err
	})
	if err != nil {
		return inject.RunResult{}, err
	}
	// Every exit of the run counts, boot's included: VM construction and
	// boot are part of this workload's measured work.
	vs, es := snapVM(m), snapEM(m.EM())
	defer func() {
		t.work += t.addVM(m, vs)
		t.addEM(m.EM(), es)
	}()
	if err := span(spHVBoot, func() error { return timeBuild(&t.bootNs, m.Boot) }); err != nil {
		return inject.RunResult{}, err
	}
	t.builds++
	var tap core.ExitStreamTap
	if hk != nil {
		tap = &lagTap{hk: hk}
		m.SetExitTap(tap)
	}
	run := func(max time.Duration, cond func() bool) {
		if tr == nil {
			m.RunUntil(max, cond)
			return
		}
		runUntil(m, max, cond, tr, spStep, spDispatch, tap)
	}

	if _, err := m.Kernel().CreateProcess(workload.SSHD(), nil); err != nil {
		return inject.RunResult{}, err
	}
	procs, err := workload.CampaignProcs(cfg.Workload)
	if err != nil {
		return inject.RunResult{}, err
	}
	for _, p := range procs {
		if _, err := m.Kernel().CreateProcess(p, nil); err != nil {
			return inject.RunResult{}, err
		}
	}
	if hint := workload.CampaignLoad(cfg.Workload); hint != nil {
		var pump func(now time.Duration)
		seq := uint64(0)
		pump = func(now time.Duration) {
			seq++
			m.InjectNetRequest(hint.Port, seq)
			m.Clock().AfterFunc(hint.Interval, pump)
		}
		m.Clock().AfterFunc(hint.Interval, pump)
	}
	probe := &sshProbe{m: m}
	probe.start()

	run(2*time.Second, nil)
	det.Start()
	plan, err := inject.NewPlan(cfg.Fault, m.Clock().Now)
	if err != nil {
		return inject.RunResult{}, err
	}
	m.Kernel().SetFaultPlan(plan)

	run(cfg.Exposure, func() bool { probe.drain(); return plan.Executed() })
	rr := inject.RunResult{Fault: cfg.Fault}
	if !plan.Executed() {
		rr.Outcome = inject.NotActivated
		return rr, nil
	}
	rr.ActivatedAt = plan.ActivatedAt()
	run(cfg.Runway, func() bool { probe.drain(); return len(det.Alarms()) > 0 })
	if len(det.Alarms()) > 0 {
		run(cfg.Observe, func() bool { probe.drain(); return det.FullHang() })
	} else {
		run(probeTimeout+2*time.Second, func() bool { probe.drain(); return probe.failed })
	}
	probe.drain()

	alarms := det.Alarms()
	rr.ProbeFailed = probe.failed
	switch {
	case len(alarms) > 0:
		rr.FirstAlarmAt = alarms[0].At
		if det.FullHang() {
			rr.Outcome = inject.FullHang
			last := alarms[0].At
			for _, a := range alarms {
				if a.At > last {
					last = a.At
				}
			}
			rr.FullHangAt = last
		} else {
			rr.Outcome = inject.PartialHang
		}
	case rr.ProbeFailed:
		rr.Outcome = inject.NotDetected
	default:
		rr.Outcome = inject.NotManifested
	}
	return rr, nil
}

// probeTimeout is the SSH probe's liveness deadline.
const probeTimeout = 6 * time.Second

// sshProbe is the campaign's external liveness probe: it pings the guest
// sshd every second and declares the VM failed after probeTimeout of
// silence.
type sshProbe struct {
	m           *hv.Machine
	sent        uint64
	lastReplyAt time.Duration
	everReplied bool
	failed      bool
}

func (p *sshProbe) start() {
	var ping func(now time.Duration)
	ping = func(now time.Duration) {
		p.sent++
		p.m.InjectNetRequest(workload.SSHDPort, p.sent)
		p.m.Clock().AfterFunc(time.Second, ping)
	}
	p.m.Clock().AfterFunc(time.Second, ping)
}

func (p *sshProbe) drain() {
	for _, reply := range p.m.Kernel().DrainNetReplies() {
		if reply.Port == workload.SSHDPort {
			p.lastReplyAt = reply.At
			p.everReplied = true
		}
	}
	if p.everReplied && p.m.Clock().Now()-p.lastReplyAt > probeTimeout {
		p.failed = true
	}
}
