// Package goshd implements Guest OS Hang Detection, the paper's reliability
// auditor (§VII-A).
//
// GOSHD consumes the context-switch events of HyperTap's shared logging
// channel (thread switches from TSS write-protection, process switches from
// CR3 loads) and declares a vCPU hung when no switch occurs for a threshold
// period. Because each vCPU is watched independently, GOSHD distinguishes
// *partial* hangs (a proper subset of vCPUs hung — the failure mode the
// paper newly characterizes) from *full* hangs.
//
// The threshold follows the paper's calibration rule: profile the guest's
// maximum scheduling gap and double it (§VII-A2). A Profiler auditor is
// provided for that step.
package goshd

import (
	"fmt"
	"sync"
	"time"

	"hypertap/internal/core"
	"hypertap/internal/telemetry"
	"hypertap/internal/vclock"
)

// wallNow supplies wall-clock time for telemetry latency sampling — the one
// legitimately real-time read in this package, measuring the true cost of a
// watchdog scan. It is a package variable so tests can substitute a
// deterministic clock.
var wallNow = time.Now //hypertap:allow wallclock latency sampling measures real scan cost; swappable in tests

// HangAlarm reports one vCPU hang detection.
type HangAlarm struct {
	// VCPU is the hung virtual CPU.
	VCPU int
	// At is the virtual time the alarm fired.
	At time.Duration
	// LastSwitch is the virtual time of the last observed context switch.
	LastSwitch time.Duration
	// Span is the causal span of the last observed switch — the verdict's
	// anchor in the flight recorder (zero when no switch was ever seen).
	Span core.SpanID
}

func (a HangAlarm) String() string {
	return fmt.Sprintf("goshd: vcpu%d hung at %v (last switch %v)", a.VCPU, a.At, a.LastSwitch)
}

// Config describes a detector.
type Config struct {
	// VM scopes the detector to one VM on a host-shared Event Multiplexer:
	// registered via Register, it receives only that VM's context
	// switches. Zero (VM 0) is correct for solo machines.
	VM core.VMID
	// Clock is the virtual clock used to arm silence timers.
	Clock *vclock.Clock
	// VCPUs is the number of vCPUs to watch.
	VCPUs int
	// Threshold is the per-vCPU silence that triggers an alarm. The paper
	// uses 2× the profiled maximum scheduling timeslice (4 s for its SUSE
	// guest).
	Threshold time.Duration
	// OnHang, when set, is invoked synchronously for each alarm.
	OnHang func(HangAlarm)
}

// Detector is the GOSHD auditor.
type Detector struct {
	cfg Config

	mu         sync.Mutex
	lastSwitch []time.Duration
	lastSpan   []core.SpanID
	timers     []*vclock.Timer
	alarms     []HangAlarm
	hung       []bool
	started    bool
	tel        *detTelemetry
}

// detTelemetry is GOSHD's instrument set.
type detTelemetry struct {
	scans   *telemetry.Counter
	alarmsC *telemetry.Counter
	latency *telemetry.Histogram
}

// EnableTelemetry registers GOSHD's instruments on reg:
// hypertap_goshd_timeout_scans_total counts watchdog timeout evaluations,
// hypertap_goshd_scan_seconds records their latency, and
// hypertap_goshd_alarms_total counts raised hang alarms.
func (d *Detector) EnableTelemetry(reg *telemetry.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tel = &detTelemetry{
		scans:   reg.Counter("hypertap_goshd_timeout_scans_total"),
		alarmsC: reg.Counter("hypertap_goshd_alarms_total"),
		latency: reg.Histogram("hypertap_goshd_scan_seconds"),
	}
}

// New builds a detector. Start must be called to arm the watchdogs.
func New(cfg Config) (*Detector, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("goshd: Config.Clock is required")
	}
	if cfg.VCPUs <= 0 {
		return nil, fmt.Errorf("goshd: Config.VCPUs must be positive, got %d", cfg.VCPUs)
	}
	if cfg.Threshold <= 0 {
		return nil, fmt.Errorf("goshd: Config.Threshold must be positive, got %v", cfg.Threshold)
	}
	return &Detector{
		cfg:        cfg,
		lastSwitch: make([]time.Duration, cfg.VCPUs),
		lastSpan:   make([]core.SpanID, cfg.VCPUs),
		timers:     make([]*vclock.Timer, cfg.VCPUs),
		hung:       make([]bool, cfg.VCPUs),
	}, nil
}

var _ core.Auditor = (*Detector)(nil)
var _ core.VMScoped = (*Detector)(nil)

// Name implements core.Auditor.
func (d *Detector) Name() string { return "goshd" }

// VMScope implements core.VMScoped: a detector watches exactly one VM's
// scheduling, so on a shared EM it subscribes to its VM's events only.
func (d *Detector) VMScope() core.VMScope { return core.ScopeVM(d.cfg.VM) }

// Mask implements core.Auditor: GOSHD needs only context-switch events —
// the same events HRKD uses, demonstrating the shared logging channel.
func (d *Detector) Mask() core.EventMask {
	return core.MaskOf(core.EvThreadSwitch, core.EvProcessSwitch)
}

// Start arms the per-vCPU watchdogs at the current virtual time.
func (d *Detector) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return
	}
	d.started = true
	now := d.cfg.Clock.Now()
	for i := range d.timers {
		d.lastSwitch[i] = now
		d.armLocked(i)
	}
}

// armLocked (re)arms vCPU i's silence timer. Caller holds d.mu. Every
// context switch re-arms, so the vCPU's timer is reused — Clock.Reset fires
// it exactly where a fresh AfterFunc would — rather than replaced.
func (d *Detector) armLocked(vcpu int) {
	if t := d.timers[vcpu]; t != nil {
		d.timers[vcpu] = d.cfg.Clock.Reset(t, d.cfg.Threshold)
		return
	}
	d.timers[vcpu] = d.cfg.Clock.AfterFunc(d.cfg.Threshold, func(now time.Duration) {
		d.onSilence(vcpu, now)
	})
}

// HandleEvent implements core.Auditor: every context switch feeds the
// watchdog of its vCPU.
func (d *Detector) HandleEvent(ev *core.Event) {
	if ev.VCPU < 0 || ev.VCPU >= len(d.lastSwitch) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastSwitch[ev.VCPU] = ev.Time
	d.lastSpan[ev.VCPU] = ev.Span
	if d.hung[ev.VCPU] {
		// A hung vCPU resumed (e.g., lock released): clear the condition.
		d.hung[ev.VCPU] = false
	}
	if d.started {
		d.armLocked(ev.VCPU)
	}
}

// onSilence fires when a vCPU has been switch-silent for the threshold.
func (d *Detector) onSilence(vcpu int, now time.Duration) {
	start := wallNow()
	d.mu.Lock()
	tel := d.tel
	if d.hung[vcpu] {
		d.mu.Unlock()
		if tel != nil {
			tel.scans.Inc()
			tel.latency.Observe(wallNow().Sub(start))
		}
		return
	}
	d.hung[vcpu] = true
	alarm := HangAlarm{VCPU: vcpu, At: now, LastSwitch: d.lastSwitch[vcpu], Span: d.lastSpan[vcpu]}
	d.alarms = append(d.alarms, alarm)
	onHang := d.cfg.OnHang
	// Keep watching: if the vCPU resumes, HandleEvent clears hung and
	// re-arms; otherwise this timer chain ends here.
	d.mu.Unlock()
	if tel != nil {
		tel.scans.Inc()
		tel.alarmsC.Inc()
		tel.latency.Observe(wallNow().Sub(start))
	}
	if onHang != nil {
		onHang(alarm)
	}
}

// Alarms returns all alarms raised so far.
func (d *Detector) Alarms() []HangAlarm {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]HangAlarm, len(d.alarms))
	copy(out, d.alarms)
	return out
}

// HungVCPUs returns the currently hung vCPU set.
func (d *Detector) HungVCPUs() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for i, h := range d.hung {
		if h {
			out = append(out, i)
		}
	}
	return out
}

// PartialHang reports whether a proper, non-empty subset of vCPUs is hung.
func (d *Detector) PartialHang() bool {
	n := len(d.HungVCPUs())
	return n > 0 && n < d.cfg.VCPUs
}

// FullHang reports whether every vCPU is hung.
func (d *Detector) FullHang() bool {
	return len(d.HungVCPUs()) == d.cfg.VCPUs
}

// FirstAlarm returns the earliest alarm, if any.
func (d *Detector) FirstAlarm() (HangAlarm, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.alarms) == 0 {
		return HangAlarm{}, false
	}
	return d.alarms[0], true
}

// Profiler measures the maximum inter-switch gap per vCPU: the calibration
// run that sets the GOSHD threshold ("we profiled the guest OS to determine
// the maximum scheduling time slice, and set the threshold to be twice the
// profiled time").
type Profiler struct {
	mu   sync.Mutex
	last []time.Duration
	gap  []time.Duration
	seen []bool
}

// NewProfiler builds a profiler for a vCPU count.
func NewProfiler(vcpus int) *Profiler {
	return &Profiler{
		last: make([]time.Duration, vcpus),
		gap:  make([]time.Duration, vcpus),
		seen: make([]bool, vcpus),
	}
}

var _ core.Auditor = (*Profiler)(nil)

// Name implements core.Auditor.
func (p *Profiler) Name() string { return "goshd-profiler" }

// Mask implements core.Auditor.
func (p *Profiler) Mask() core.EventMask {
	return core.MaskOf(core.EvThreadSwitch, core.EvProcessSwitch)
}

// HandleEvent implements core.Auditor.
func (p *Profiler) HandleEvent(ev *core.Event) {
	if ev.VCPU < 0 || ev.VCPU >= len(p.last) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen[ev.VCPU] {
		if gap := ev.Time - p.last[ev.VCPU]; gap > p.gap[ev.VCPU] {
			p.gap[ev.VCPU] = gap
		}
	}
	p.seen[ev.VCPU] = true
	p.last[ev.VCPU] = ev.Time
}

// MaxGap returns the largest observed inter-switch gap across vCPUs.
func (p *Profiler) MaxGap() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var maxGap time.Duration
	for _, g := range p.gap {
		if g > maxGap {
			maxGap = g
		}
	}
	return maxGap
}

// RecommendedThreshold applies the paper's rule: twice the profiled maximum.
func (p *Profiler) RecommendedThreshold() time.Duration {
	return 2 * p.MaxGap()
}
