package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/hav"
	"hypertap/internal/hv"
)

// mode selects how a round drives the program.
type mode int

const (
	// modePlain calls the program's own top-level entry point
	// (workload.RunToCompletion, Host.Run, Replay.Run, RunGOSHDCampaign)
	// with unwrapped auditors: what a user of the system runs. Every
	// end-to-end metric comes from plain rounds.
	modePlain mode = iota
	// modeHooked runs the benchmark's own wiring of the same configuration;
	// with hooks it samples exit→audit lag.
	modeHooked
	// modeTraced is modeHooked with span timers, the top-level loops
	// replaced by their public steps.
	modeTraced
)

func (m mode) String() string {
	return [...]string{"plain", "hooked", "traced"}[m]
}

// traceCycle is the round order of a traced run: plain rounds interleave
// with the instrumented ones, so each overhead compares rounds that shared
// the host's conditions.
var traceCycle = []mode{modePlain, modeHooked, modePlain, modeTraced}

// tally is one round's program-side counts, read through public accessors
// at the round's boundaries.
type tally struct {
	// work is what exits_per_s counts: VM exits in the timed part of the
	// round (events replayed, for a replay).
	work    uint64
	exits   [hav.NumExitReasons + 1]uint64
	bare    uint64 // exits of unmonitored baseline passes
	decoded uint64

	published, syncDelivered, asyncDelivered, dropped uint64
	auditorEvents                                     map[string]uint64

	syscalls, ctxSwitches uint64
	tlbHits, tlbMisses    uint64

	captureBytes, capturedEvents uint64
	barriers                     uint64 // replay: barrier records replayed

	newNs, bootNs int64
	builds        int

	// virtOverheadPct is Fig. 7's virtual-time overhead (deterministic at
	// a seed), set by traced fig7-syscall rounds.
	virtOverheadPct float64
}

func (t *tally) add(o *tally) {
	t.work += o.work
	for i := range t.exits {
		t.exits[i] += o.exits[i]
	}
	t.bare += o.bare
	t.decoded += o.decoded
	t.published += o.published
	t.syncDelivered += o.syncDelivered
	t.asyncDelivered += o.asyncDelivered
	t.dropped += o.dropped
	for k, v := range o.auditorEvents {
		if t.auditorEvents == nil {
			t.auditorEvents = make(map[string]uint64)
		}
		t.auditorEvents[k] += v
	}
	t.syscalls += o.syscalls
	t.ctxSwitches += o.ctxSwitches
	t.tlbHits += o.tlbHits
	t.tlbMisses += o.tlbMisses
	t.captureBytes += o.captureBytes
	t.capturedEvents += o.capturedEvents
	t.barriers += o.barriers
	t.newNs += o.newNs
	t.bootNs += o.bootNs
	t.builds += o.builds
	if o.virtOverheadPct != 0 {
		t.virtOverheadPct = o.virtOverheadPct
	}
}

func (t *tally) totalExits() uint64 {
	var n uint64
	for _, v := range t.exits {
		n += v
	}
	return n
}

// vmSnap is a machine's counters at one instant.
type vmSnap struct {
	exits              [hav.NumExitReasons + 1]uint64
	syscalls, switches uint64
	tlbHits, tlbMisses uint64
	decoded            uint64
}

func snapVM(m *hv.Machine) vmSnap {
	var s vmSnap
	for r := 1; r <= hav.NumExitReasons; r++ {
		s.exits[r] = m.ExitCount(hav.ExitReason(r))
	}
	st := m.Kernel().Stats()
	s.syscalls, s.switches = st.Syscalls, st.ContextSwitches
	tlb := m.Kernel().TLBStats()
	s.tlbHits, s.tlbMisses = tlb.Hits, tlb.Misses
	if e := m.Engine(); e != nil {
		for _, n := range e.Stats().Decoded {
			s.decoded += n
		}
	}
	return s
}

// addVM adds the machine's counts since before to t, returning its exits.
func (t *tally) addVM(m *hv.Machine, before vmSnap) uint64 {
	now := snapVM(m)
	var exits uint64
	for r := range now.exits {
		d := now.exits[r] - before.exits[r]
		t.exits[r] += d
		exits += d
	}
	t.syscalls += now.syscalls - before.syscalls
	t.ctxSwitches += now.switches - before.switches
	t.tlbHits += now.tlbHits - before.tlbHits
	t.tlbMisses += now.tlbMisses - before.tlbMisses
	t.decoded += now.decoded - before.decoded
	return exits
}

// emSnap is an Event Multiplexer's delivery accounting at one instant.
type emSnap struct {
	published, sync, async, dropped uint64
	delivered                       map[string]uint64
}

func snapEM(em *core.Multiplexer) emSnap {
	s := emSnap{published: em.Published(), sync: em.SyncDelivered(), delivered: make(map[string]uint64)}
	for _, st := range em.Stats() {
		s.delivered[st.Auditor] += st.Delivered
		s.dropped += st.Dropped
		if st.Mode == core.DeliverAsync {
			s.async += st.Delivered
		}
	}
	return s
}

// addEM adds the EM's deliveries since before to t.
func (t *tally) addEM(em *core.Multiplexer, before emSnap) {
	now := snapEM(em)
	t.published += now.published - before.published
	t.syncDelivered += now.sync - before.sync
	t.asyncDelivered += now.async - before.async
	t.dropped += now.dropped - before.dropped
	if t.auditorEvents == nil {
		t.auditorEvents = make(map[string]uint64)
	}
	for name, n := range now.delivered {
		t.auditorEvents[name] += n - before.delivered[name]
	}
}

// round is one unit of measured work.
type round struct {
	md mode
	// wall is the timed part; setup is construction inside the round that
	// the timed part excludes.
	wall, setup time.Duration
	// ops counts the operations attempted (items, replay passes,
	// injection runs; a fleet round is one).
	ops int
	// digest is the round's canonical correctness digest; rounds with the
	// same key must agree on it.
	digest string
	key    int
	t      tally
}

// instance is one workload set up for measuring.
type instance interface {
	// round runs one round. hk is the run's hooks in a traced run (the
	// wiring samples lag, and times spans while hk.tr is set) and nil
	// otherwise.
	round(md mode, hk *hooks) (round, error)
}

// serialPass is implemented by workloads whose sharded runner gets the
// runner.* metrics from one extra serial pass.
type serialPass interface {
	serial() (unitMs []float64, wall time.Duration, err error)
}

// rate returns the round's exits_per_s.
func (r *round) rate() float64 {
	return float64(r.t.work) / r.wall.Seconds()
}

// runtimeSnap reads the Go runtime's allocation and CPU counters.
type runtimeSnap struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(cpu)
	return runtimeSnap{
		allocBytes: ms.TotalAlloc, allocs: ms.Mallocs,
		gcCPU: cpu[0].Value.Float64(), totalCPU: cpu[1].Value.Float64(),
	}
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// stat is a reported value with the distribution it came from.
type stat struct {
	value, p25, p50, p75 float64
	n                    int
}

// summarize reports the median of xs.
func summarize(xs []float64) stat {
	return stat{value: median(xs), p25: quantile(xs, 0.25), p50: median(xs), p75: quantile(xs, 0.75), n: len(xs)}
}

// upperDecile reports the 90th percentile of xs: for round throughputs on
// a shared host, where contention only ever slows a round down, the
// upper decile estimates the uncontended rate and repeats across runs
// about twice as closely as the median does (see bench/README.md).
func upperDecile(xs []float64) stat {
	s := summarize(xs)
	s.value = quantile(xs, 0.9)
	return s
}

func single(v float64) stat { return stat{value: v, p25: v, p50: v, p75: v, n: 1} }

// run is a completed measurement of one workload.
type run struct {
	attempted, failed int
	problems          []string
	metrics           map[string]stat
	// digest is the normalized digest of the warm-up round.
	digest string
	// tr holds a traced run's spans.
	tr *tracer
}

func (r *run) fail(ops int, format string, args ...any) {
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// minRounds is the fewest timed rounds an untraced run takes, and
// minCycles the fewest cycles a traced one takes, however long they are.
const (
	minRounds = 3
	minCycles = 2
)

// measure sets up the workload, runs its warm-up and then timed rounds for
// seconds, and computes the end-to-end metrics (untraced) or the per-layer
// metrics (traced). golden, when set, is the digest the warm-up must give.
func measure(w *workloadDef, sz sizes, seed int64, seconds float64, traced bool, golden string) (*run, error) {
	res := &run{metrics: make(map[string]stat)}
	var hk *hooks
	if traced {
		hk = newHooks()
	}
	inst, oneTime, builds, err := w.setup(sz, seed, hk)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	tr := &tracer{tid: 1}
	refs := make(map[int]string)
	// step runs one round and checks its digest against the first round
	// with the same key; false means the run has failed.
	step := func(md mode) (*round, bool) {
		var rh *hooks
		if md != modePlain {
			rh = hk
		}
		if md == modeTraced {
			hk.tr = tr
			defer func() { hk.tr = nil }()
		}
		r, err := inst.round(md, rh)
		ops := max(r.ops, 1)
		res.attempted += ops
		if err != nil {
			res.fail(ops, "%s round: %v", md, err)
			return nil, false
		}
		if ref, ok := refs[r.key]; !ok {
			refs[r.key] = r.digest
		} else if r.digest != ref {
			res.fail(ops, "%s round %d digest differs from the first round %d:\n  got  %s\n  want %s",
				md, r.key, r.key, r.digest, ref)
			return nil, false
		}
		return &r, true
	}

	// Warm-up: discarded from the statistics, but digest-checked. An
	// untraced run warms up through the benchmark's own wiring, unhooked,
	// which also counts the exits the campaign's entry point does not
	// report.
	warmups := []mode{modeHooked}
	if traced {
		warmups = []mode{modeTraced, modePlain}
	}
	for _, md := range warmups {
		runtime.GC()
		if _, ok := step(md); !ok {
			return res, nil
		}
	}
	if res.digest, err = normalize(refs[0]); err != nil {
		return nil, err
	}
	if golden != "" && res.digest != golden {
		res.fail(1, "digest differs from the golden digest:\n  got  %s\n  want %s", res.digest, golden)
		return res, nil
	}
	tr = &tracer{tid: 1}
	if hk != nil {
		hk.lag.samples = nil
	}

	var serialUnits []float64
	var serialWall time.Duration
	if sp, ok := inst.(serialPass); ok && traced {
		runtime.GC()
		if serialUnits, serialWall, err = sp.serial(); err != nil {
			res.fail(1, "serial pass: %v", err)
			return res, nil
		}
	}

	cycle, cycles := []mode{modePlain}, minRounds
	if traced {
		cycle, cycles = traceCycle, minCycles
	}
	var rounds []*round
	var rt runtimeSnap
	var plainWork uint64
	start := time.Now()
	for c := 0; c < cycles || time.Since(start).Seconds() < seconds; c++ {
		for _, md := range cycle {
			lagMark := 0
			if hk != nil {
				lagMark = len(hk.lag.samples)
			}
			runtime.GC()
			rt0 := snapRuntime()
			r, ok := step(md)
			if !ok {
				return res, nil
			}
			switch md {
			case modePlain:
				rt1 := snapRuntime()
				rt.allocBytes += rt1.allocBytes - rt0.allocBytes
				rt.allocs += rt1.allocs - rt0.allocs
				rt.gcCPU += rt1.gcCPU - rt0.gcCPU
				rt.totalCPU += rt1.totalCPU - rt0.totalCPU
				plainWork += r.t.work
			case modeTraced:
				// Lag is a hooked-round statistic; tracing distorts it.
				hk.lag.samples = hk.lag.samples[:lagMark]
			}
			rounds = append(rounds, r)
		}
	}

	if traced {
		layer(res, inst, rounds, builds, tr, hk, rt, plainWork, serialUnits, serialWall)
		res.tr = tr
		return res, nil
	}
	var rates, setups []float64
	for _, r := range rounds {
		rates = append(rates, r.rate())
		if r.setup > 0 {
			setups = append(setups, r.setup.Seconds())
		}
	}
	if len(setups) == 0 {
		setups = []float64{oneTime.Seconds()}
	}
	res.metrics["exits_per_s"] = upperDecile(rates)
	res.metrics["setup_s"] = summarize(setups)
	res.metrics["peak_rss_mb"] = single(peakRSSMB())
	return res, nil
}

// layer computes the per-layer metrics of a traced run. Every metric in
// time units is measured on every workload; a stage some workload does not
// have is reported as its share of the traced wall time (0 there), and the
// shares plus trace.residual_pct add up to 100.
func layer(res *run, inst instance, rounds []*round, setup tally, tr *tracer, hk *hooks,
	rt runtimeSnap, plainWork uint64, serialUnits []float64, serialWall time.Duration) {
	var tt tally // summed over traced rounds
	rates := make(map[mode][]float64)
	var nT float64
	var tracedWall time.Duration
	var plainWalls []float64
	for _, r := range rounds {
		rates[r.md] = append(rates[r.md], r.rate())
		switch r.md {
		case modeTraced:
			tt.add(&r.t)
			nT++
			tracedWall += r.wall
		case modePlain:
			plainWalls = append(plainWalls, r.wall.Seconds())
		}
	}
	builds := setup
	builds.add(&tt)

	m := func(name string, v float64) { res.metrics[name] = single(v) }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perRound := func(v uint64) float64 { return div(float64(v), nT) }
	share := func(ns int64) float64 { return 100 * div(float64(ns), float64(tr.windowNs)) }

	m("hv.new_ms", div(float64(builds.newNs)/1e6, float64(builds.builds)))
	m("hv.boot_ms", div(float64(builds.bootNs)/1e6, float64(builds.builds)))
	m("trace.ns_per_exit", div(float64(tracedWall), float64(tt.work)))
	var audNs int64
	var audEvents uint64
	for name, k := range auditorKinds {
		audNs += tr.self[k]
		audEvents += tt.auditorEvents[name]
		m("wall.auditors."+name+"_pct", share(tr.self[k]))
		m("auditors."+name+".events", perRound(tt.auditorEvents[name]))
	}
	m("auditors.self_ns_per_event", div(float64(audNs), float64(audEvents)))

	m("wall.hv_step_pct", share(tr.self[spStep]))
	m("wall.hv_build_pct", share(tr.self[spHVNew]+tr.self[spHVBoot]))
	m("wall.tap_pct", share(tr.self[spTap]))
	m("wall.barrier_pct", share(tr.self[spBarrier]))
	m("wall.dispatch_pct", share(tr.self[spDispatch]))
	m("wall.replay_pct", share(tr.self[spReplay]))
	m("wall.guestview_pct", share(tr.self[spView]))
	m("trace.residual_pct", share(tr.windowNs-tr.rootNs))
	m("guest.unmonitored_step_pct", share(tr.total[spStepBare]))

	for r := 1; r <= hav.NumExitReasons; r++ {
		m("hav.exits."+exitReasonMetric[r], perRound(tt.exits[r]))
	}
	m("guest.syscalls", perRound(tt.syscalls))
	m("guest.context_switches", perRound(tt.ctxSwitches))
	lookups := tt.tlbHits + tt.tlbMisses
	m("guest.tlb_hit_ratio", div(float64(tt.tlbHits), float64(lookups)))
	m("guest.tlb_lookups", perRound(lookups))
	m("intercept.decoded", perRound(tt.decoded))
	m("core.events_per_exit", div(float64(tt.published), float64(tt.totalExits())))
	m("core.published", perRound(tt.published))
	m("core.sync_delivered", perRound(tt.syncDelivered))
	m("core.async_delivered", perRound(tt.asyncDelivered))
	m("core.dropped", perRound(tt.dropped))
	m("core.dispatch_calls", div(float64(tr.calls[spDispatch])+float64(tt.barriers), nT))
	m("guestview.reads_per_event", div(float64(tr.calls[spView]), float64(tt.published)))
	m("capture.bytes_per_event", div(float64(tt.captureBytes), float64(tt.capturedEvents)))
	m("runner.parallel_efficiency", div(serialWall.Seconds(), 2*median(plainWalls)))
	m("runner.unit_tail_ratio", div(quantile(serialUnits, 0.99), quantile(serialUnits, 0.5)))
	m("runtime.alloc_bytes_per_exit", div(float64(rt.allocBytes), float64(plainWork)))
	m("runtime.allocs_per_exit", div(float64(rt.allocs), float64(plainWork)))
	m("runtime.gc_cpu_pct", 100*div(rt.gcCPU, rt.totalCPU))
	plain := median(rates[modePlain])
	m("trace.overhead_pct", 100*div(plain-median(rates[modeTraced]), plain))
	m("hooks.overhead_pct", 100*div(plain-median(rates[modeHooked]), plain))
	lag := hk.lag.samples
	if rl, ok := inst.(recordingLag); ok {
		lag = rl.recordedLag()
	}
	m("lag.exit_to_audit_p50_us", quantile(lag, 0.5))
	m("lag.exit_to_audit_p99_us", quantile(lag, 0.99))
	m("lag.samples", float64(len(lag)))
	m("virt_overhead_pct", tt.virtOverheadPct)
}

// recordingLag is implemented by a workload without exits of its own
// (the replay), which reports the lag of the live run it recorded.
type recordingLag interface {
	recordedLag() []float64
}

// exitReasonMetric names each exit reason in metric names.
var exitReasonMetric = [hav.NumExitReasons + 1]string{
	hav.ExitCRAccess: "cr_access", hav.ExitEPTViolation: "ept_violation",
	hav.ExitException: "exception", hav.ExitWRMSR: "wrmsr", hav.ExitIOInstruction: "io_inst",
	hav.ExitExternalInterrupt: "external_int", hav.ExitAPICAccess: "apic_access", hav.ExitHLT: "hlt",
}
