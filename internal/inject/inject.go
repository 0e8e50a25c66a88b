// Package inject implements the kernel fault-injection framework of §VIII-A,
// following the hang-fault model the paper adopts from Cotroneo et al.:
// missing spinlock releases, wrong lock orderings, missing unlock/lock
// pairs, and missing interrupt-state restorations, injected at the 374
// instrumented locations of the miniOS kernel, with transient (activate
// once) or persistent (activate on every execution) semantics.
package inject

import (
	"fmt"
	"sync"
	"time"

	"hypertap/internal/guest"
)

// Persistence selects the fault's activation semantics.
type Persistence uint8

// Persistence modes.
const (
	// Transient faults are activated only the first time the fault
	// location executes.
	Transient Persistence = iota + 1
	// Persistent faults are activated every time the location executes.
	Persistent
)

func (p Persistence) String() string {
	switch p {
	case Transient:
		return "transient"
	case Persistent:
		return "persistent"
	default:
		return fmt.Sprintf("Persistence(%d)", uint8(p))
	}
}

// Fault is one injection: a site plus activation semantics.
type Fault struct {
	Site        guest.SiteID
	Persistence Persistence
}

// Plan implements guest.FaultPlan for a single fault, tracking whether the
// fault location was ever executed (the "Not Activated" outcome) and when
// the fault first fired (the latency measurements' activation time).
type Plan struct {
	fault Fault
	// now supplies the virtual time for activation stamping.
	now func() time.Duration

	mu          sync.Mutex
	consulted   uint64
	fired       uint64
	activatedAt time.Duration
}

// NewPlan builds a plan for one fault. now may be nil (activation time then
// stays zero).
func NewPlan(f Fault, now func() time.Duration) (*Plan, error) {
	if f.Site <= 0 {
		return nil, fmt.Errorf("inject: invalid site %d", f.Site)
	}
	if f.Persistence != Transient && f.Persistence != Persistent {
		return nil, fmt.Errorf("inject: invalid persistence %v", f.Persistence)
	}
	return &Plan{fault: f, now: now}, nil
}

var _ guest.FaultPlan = (*Plan)(nil)

// Site implements guest.FaultPlan: the plan arms only its fault's site.
func (p *Plan) Site() guest.SiteID { return p.fault.Site }

// Armed implements guest.FaultPlan.
func (p *Plan) Armed(site guest.SiteID) bool {
	if site != p.fault.Site {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.consulted++
	if p.fault.Persistence == Transient && p.fired > 0 {
		return false
	}
	p.fired++
	if p.fired == 1 && p.now != nil {
		p.activatedAt = p.now()
	}
	return true
}

// Executed reports whether the fault location was reached at all.
func (p *Plan) Executed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.consulted > 0
}

// Fired returns how many times the fault was applied.
func (p *Plan) Fired() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// ActivatedAt returns the virtual time of first activation (zero if never).
func (p *Plan) ActivatedAt() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.activatedAt
}

// Outcome classifies one injection run, following the paper's five-way
// taxonomy (§VIII-A2).
type Outcome uint8

// Outcomes.
const (
	// NotActivated: the workload never executed the faulty location.
	NotActivated Outcome = iota + 1
	// NotManifested: the fault executed but no observable failure occurred.
	NotManifested
	// NotDetected: the external probe declared the VM failed, but GOSHD
	// raised no alarm (the paper's 24 SSH-probe cases).
	NotDetected
	// PartialHang: GOSHD alarmed on a proper subset of vCPUs, and at least
	// one vCPU stayed operational for the observation window.
	PartialHang
	// FullHang: all vCPUs hung within the observation window.
	FullHang
)

func (o Outcome) String() string {
	switch o {
	case NotActivated:
		return "Not Activated"
	case NotManifested:
		return "Not Manifested"
	case NotDetected:
		return "Not Detected"
	case PartialHang:
		return "Partial Hang"
	case FullHang:
		return "Full Hang"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// AllOutcomes lists the taxonomy in report order.
func AllOutcomes() []Outcome {
	return []Outcome{NotActivated, NotManifested, NotDetected, PartialHang, FullHang}
}

// RunResult is the classification of one injection run plus its latency
// observations (for Fig. 5).
type RunResult struct {
	Fault   Fault
	Outcome Outcome
	// ActivatedAt is the virtual time the fault first fired.
	ActivatedAt time.Duration
	// FirstAlarmAt is the virtual time of GOSHD's first (partial-hang)
	// alarm; zero if none.
	FirstAlarmAt time.Duration
	// FullHangAt is the virtual time the last vCPU's alarm fired; zero if
	// the hang never became full.
	FullHangAt time.Duration
	// ProbeFailed records the external SSH probe's verdict.
	ProbeFailed bool
}

// DetectionLatency returns activation→first-alarm (partial-hang latency).
func (r *RunResult) DetectionLatency() (time.Duration, bool) {
	if r.FirstAlarmAt == 0 || r.ActivatedAt == 0 {
		return 0, false
	}
	return r.FirstAlarmAt - r.ActivatedAt, true
}

// FullHangLatency returns activation→all-vCPUs-alarmed.
func (r *RunResult) FullHangLatency() (time.Duration, bool) {
	if r.FullHangAt == 0 || r.ActivatedAt == 0 {
		return 0, false
	}
	return r.FullHangAt - r.ActivatedAt, true
}
