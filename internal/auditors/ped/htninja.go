package ped

import (
	"fmt"
	"sync"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/guest"
	"hypertap/internal/telemetry"
	"hypertap/internal/vmi"
)

// wallNow supplies wall-clock time for telemetry latency sampling — the one
// legitimately real-time read in this package, measuring the true blocking
// cost of a synchronous policy decision. It is a package variable so tests
// can substitute a deterministic clock.
var wallNow = time.Now //hypertap:allow wallclock latency sampling measures real decision cost; swappable in tests

// HTNinja is the HyperTap privilege-escalation auditor: Ninja's rules
// enforced by *active* monitoring on *architectural* invariants (§VII-C).
//
// Checks fire at (i) the first context switch of every process and (ii)
// every I/O-related system call — before the audited operation proceeds,
// because the auditor runs synchronously while the vCPU is suspended. The
// checked identity is derived from hardware state only: TR → TSS.RSP0 →
// thread_info → task_struct, so neither /proc hijacking nor task-list DKOM
// can blind it, and there is no polling interval to slip through.
type HTNinja struct {
	policy Policy
	vm     core.VMID
	view   core.GuestView
	intro  *vmi.Introspector
	// onDetect, when set, runs synchronously per detection (e.g. pause the
	// VM, schedule a kill).
	onDetect func(Detection)

	mu sync.Mutex
	// seenPDBA marks address spaces already given their first-switch check.
	seenPDBA map[arch.GPA]bool
	// flagged de-duplicates detections per pid.
	flagged    map[int]bool
	detections []Detection
	checks     uint64
	tel        *ninjaTelemetry
}

// ninjaTelemetry is HT-Ninja's instrument set.
type ninjaTelemetry struct {
	decisions  *telemetry.Counter
	detections *telemetry.Counter
	latency    *telemetry.Histogram
}

// EnableTelemetry registers HT-Ninja's instruments on reg:
// hypertap_ped_policy_decisions_total counts policy evaluations (each runs
// synchronously with the vCPU suspended), hypertap_ped_decision_seconds
// records their latency — the blocking cost the paper's active-monitoring
// trade-off hinges on — and hypertap_ped_detections_total counts flagged
// escalations. Call before the auditor is registered with the EM.
func (n *HTNinja) EnableTelemetry(reg *telemetry.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tel = &ninjaTelemetry{
		decisions:  reg.Counter("hypertap_ped_policy_decisions_total"),
		detections: reg.Counter("hypertap_ped_detections_total"),
		latency:    reg.Histogram("hypertap_ped_decision_seconds"),
	}
}

// HTNinjaConfig assembles the auditor.
type HTNinjaConfig struct {
	Policy Policy
	// VM scopes the auditor to one VM on a host-shared Event Multiplexer;
	// View and Intro must belong to that VM. Zero works for solo machines.
	VM       core.VMID
	View     core.GuestView
	Intro    *vmi.Introspector
	OnDetect func(Detection)
}

// NewHTNinja builds the auditor.
func NewHTNinja(cfg HTNinjaConfig) (*HTNinja, error) {
	if cfg.View == nil || cfg.Intro == nil {
		return nil, fmt.Errorf("ped: HTNinjaConfig requires View and Intro")
	}
	return &HTNinja{
		policy:   cfg.Policy,
		vm:       cfg.VM,
		view:     cfg.View,
		intro:    cfg.Intro,
		onDetect: cfg.OnDetect,
		seenPDBA: make(map[arch.GPA]bool),
		flagged:  make(map[int]bool),
	}, nil
}

var _ core.Auditor = (*HTNinja)(nil)
var _ core.VMScoped = (*HTNinja)(nil)

// Name implements core.Auditor.
func (n *HTNinja) Name() string { return "ht-ninja" }

// VMScope implements core.VMScoped: the auditor derives identities from one
// VM's architectural state, so on a shared EM it sees only that VM's events.
func (n *HTNinja) VMScope() core.VMScope { return core.ScopeVM(n.vm) }

// Mask implements core.Auditor: first context switches and system calls.
func (n *HTNinja) Mask() core.EventMask {
	return core.MaskOf(core.EvProcessSwitch, core.EvThreadSwitch, core.EvSyscall)
}

// HandleEvent implements core.Auditor.
func (n *HTNinja) HandleEvent(ev *core.Event) {
	switch ev.Type {
	case core.EvProcessSwitch:
		n.mu.Lock()
		first := !n.seenPDBA[ev.PDBA]
		n.seenPDBA[ev.PDBA] = true
		n.mu.Unlock()
		if first {
			// First context switch of a (possibly brand-new) process:
			// check the incoming task. The thread identity was stored
			// into the TSS just before this CR3 load.
			n.checkCurrent(ev, "first-switch")
		}
	case core.EvThreadSwitch:
		// The incoming thread's stack base is the event payload; derive
		// and check it. Cheap de-dup: only unflagged pids re-checked.
		n.checkRSP0(ev, ev.RSP0, "thread-switch")
	case core.EvSyscall:
		if guest.IOSyscalls[guest.Syscall(ev.SyscallNr)] {
			n.checkCurrent(ev, "io-syscall")
		}
	}
}

// checkCurrent derives the running task of the event's vCPU from the
// architectural chain and applies the policy.
func (n *HTNinja) checkCurrent(ev *core.Event, trigger string) {
	cr3 := ev.Regs.CR3
	if cr3 == 0 || ev.Regs.TR == 0 {
		return
	}
	rsp0, err := n.view.ReadU64GVA(cr3, ev.Regs.TR+arch.TSSOffRSP0)
	if err != nil {
		return
	}
	n.checkRSP0(ev, arch.GVA(rsp0), trigger)
}

// checkRSP0 derives a task from a kernel stack pointer and applies the
// rule, recording the decision count and latency when telemetry is on.
func (n *HTNinja) checkRSP0(ev *core.Event, rsp0 arch.GVA, trigger string) {
	if tel := n.tel; tel != nil {
		start := wallNow()
		detected := n.evalRSP0(ev, rsp0, trigger)
		tel.decisions.Inc()
		tel.latency.Observe(wallNow().Sub(start))
		if detected {
			tel.detections.Inc()
		}
		return
	}
	n.evalRSP0(ev, rsp0, trigger)
}

// evalRSP0 performs the derivation and policy check, reporting whether a
// new detection was flagged. The derivation stops at the task_struct header:
// the rule reads the parent only for a root task that is not whitelisted.
func (n *HTNinja) evalRSP0(ev *core.Event, rsp0 arch.GVA, trigger string) bool {
	cr3 := ev.Regs.CR3
	if cr3 == 0 || rsp0 == 0 {
		return false
	}
	task, err := n.intro.TaskFromRSP0(cr3, rsp0)
	if err != nil {
		return false
	}
	pid := task.PID()
	n.mu.Lock()
	n.checks++
	already := n.flagged[pid]
	n.mu.Unlock()
	if already || !n.policy.ViolatesTask(&task) {
		return false
	}
	d := Detection{
		PID: pid, Comm: string(task.Comm()), At: ev.Time,
		By: "ht-ninja", Trigger: trigger, Span: ev.Span,
	}
	n.mu.Lock()
	if n.flagged[pid] {
		n.mu.Unlock()
		return false
	}
	n.flagged[pid] = true
	n.detections = append(n.detections, d)
	onDetect := n.onDetect
	n.mu.Unlock()
	if onDetect != nil {
		onDetect(d)
	}
	return true
}

// Detections snapshots flagged processes.
func (n *HTNinja) Detections() []Detection {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Detection, len(n.detections))
	copy(out, n.detections)
	return out
}

// Detected reports whether any violation was flagged.
func (n *HTNinja) Detected() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.detections) > 0
}

// Checks returns the number of policy evaluations performed.
func (n *HTNinja) Checks() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.checks
}
