// Package intercept implements HyperTap's Event Forwarder: the logging-phase
// algorithms of the paper's Fig. 3 that turn raw VM Exits into semantic
// guest events using only hardware architectural invariants.
//
//   - Fig. 3A: process counting from CR3 loads (PDBA set + stale sweep).
//   - Fig. 3B: thread-switch interception by write-protecting TSS pages.
//   - Fig. 3C: TSS integrity checking (TR relocation alarms).
//   - Fig. 3D: interrupt-based system-call interception (INT 0x80 / 0x2E).
//   - Fig. 3E: fast system-call interception (WRMSR + execute-protect).
//
// The engine is configured once per VM with the feature set the registered
// auditors need; unified logging means each hardware event is captured once
// no matter how many auditors consume it.
package intercept

import (
	"sync"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/hav"
)

// Features selects which interception algorithms the engine arms. Each
// feature has a hardware cost (extra VM Exits); the paper's Fig. 7 quantifies
// it, and the engine only pays for what is enabled.
type Features struct {
	// ProcessSwitch arms CR3-load exiting (Fig. 3A events).
	ProcessSwitch bool
	// ThreadSwitch write-protects the TSS pages on the first CR3 load
	// (Fig. 3B events).
	ThreadSwitch bool
	// TSSIntegrity checks TR against its boot-time value on every exit
	// (Fig. 3C alarms).
	TSSIntegrity bool
	// Syscalls intercepts both syscall gates (Fig. 3D and 3E events).
	Syscalls bool
	// IO forwards programmed-I/O, external-interrupt and APIC events.
	IO bool
	// KnownGVA is the probe address for the stale-PDBA sweep; it must be
	// mapped in every live address space. Zero selects the kernel base.
	KnownGVA arch.GVA
}

// Config assembles an engine.
type Config struct {
	// Control is the hypervisor's per-VM control surface.
	Control core.VMControl
	// EM receives the decoded events. On a host fleet it is shared by many
	// VMs' forwarders; VM tells them apart.
	EM *core.Multiplexer
	// VM is the identity stamped into every decoded event, assigned by the
	// EM at attach time. Zero is the solo-machine default.
	VM core.VMID
	// Now timestamps events with the fine-grained virtual time of a vCPU.
	// Nil falls back to Control.Now.
	Now func(vcpu int) time.Duration
	// Features selects the armed algorithms.
	Features Features
}

// Stats counts the engine's decoded events by type plus arming milestones.
type Stats struct {
	Decoded      map[core.EventType]uint64
	TSSArmed     bool
	SyscallEntry arch.GVA
	TrackedPDBAs int
}

// Engine is the per-VM Event Forwarder. It is driven synchronously from the
// hypervisor's exit handler; methods other than HandleExit may be called
// from auditing goroutines and are locked accordingly.
type Engine struct {
	ctl  core.VMControl
	em   *core.Multiplexer
	vm   core.VMID
	now  func(vcpu int) time.Duration
	feat Features

	mu sync.Mutex
	// pdbaSet is Fig. 3A's PDBA_set.
	pdbaSet map[arch.GPA]struct{}
	// sawFirstCR3 latches the arming point of Fig. 3B/3C.
	sawFirstCR3 bool
	// savedTR is Fig. 3C's per-vCPU TR snapshot.
	savedTR []arch.GVA
	// tssRSP0GPA locates each vCPU's TSS.RSP0 field physically.
	tssRSP0GPA []arch.GPA
	// tssAlerted rate-limits relocation alarms per vCPU.
	tssAlerted []bool
	// syscallEntry is Fig. 3E's recorded fast-syscall entry point.
	syscallEntry arch.GVA
	// entryPending defers execute-protecting the entry page until a page
	// walk is possible (the boot WRMSR precedes the first CR3 load).
	entryPending bool
	// entryGPA is the protected entry page once armed.
	entryGPA arch.GPA
	// decoded counts events by type. EventType is a uint8, so every value
	// has a slot and counting needs neither a map write nor a bounds check.
	decoded [256]uint64
	// batch accumulates the events decoded from one exit. HandleExit hands
	// it to PublishBatch in place after unlock, so the EM lock is paid once
	// per exit and no event is copied on the way; its capacity persists, so
	// steady-state decoding allocates nothing.
	batch []core.Event
	// tap, when set, observes every decoded event just before publication —
	// the capture plane's recording point (internal/capture).
	tap core.ExitStreamTap
}

// New creates and arms an engine.
func New(cfg Config) *Engine {
	if cfg.Control == nil || cfg.EM == nil {
		panic("intercept: Config requires Control and EM")
	}
	e := &Engine{
		ctl:        cfg.Control,
		em:         cfg.EM,
		vm:         cfg.VM,
		now:        cfg.Now,
		feat:       cfg.Features,
		pdbaSet:    make(map[arch.GPA]struct{}),
		savedTR:    make([]arch.GVA, cfg.Control.NumVCPUs()),
		tssRSP0GPA: make([]arch.GPA, cfg.Control.NumVCPUs()),
		tssAlerted: make([]bool, cfg.Control.NumVCPUs()),
	}
	if e.now == nil {
		e.now = func(int) time.Duration { return e.ctl.Now() }
	}
	if e.feat.KnownGVA == 0 {
		e.feat.KnownGVA = arch.KernelBase
	}
	// Arm the VM-execution controls the features need. CR3-load exiting is
	// needed by process tracking, and transiently by thread tracking and
	// TSS integrity (to catch the arming point).
	if e.feat.ProcessSwitch || e.feat.ThreadSwitch || e.feat.TSSIntegrity {
		e.ctl.SetCR3LoadExiting(true)
	}
	if e.feat.Syscalls {
		e.ctl.SetExceptionExit(arch.VectorLinuxSyscall, true)
		e.ctl.SetExceptionExit(arch.VectorWindowsSyscall, true)
	}
	return e
}

// HandleExit is the Event Forwarder: decode, arm, publish. The hypervisor's
// exit handler calls it while the vCPU is suspended, and it reports what the
// exit cost the monitor — events published and synchronous auditor runs —
// for the hypervisor to price in guest time. Decoding runs under the engine
// lock; publication happens after unlock so that synchronous auditors may
// safely call back into the engine.
//
// The decode batch goes to PublishBatch in place, with no staging copy and
// one buffer. A second buffer would only be needed if HandleExit could be
// re-entered while its batch is being delivered, and it cannot: one VM's
// exits are raised on one goroutine by the guest kernel's vCPU operations,
// and a synchronous auditor never reaches those — it sees the VM through
// core.GuestView and the engine's query methods, which read state or set
// controls but never run guest code. TestSyncAuditorReentersEngine pins the
// callback side of that argument.
//
// The tap sees every event of the batch before it publishes, so a capture's
// record order is exactly the EM's publish order — and because publish
// batching is transparent (see core.PublishBatch), replaying that capture
// under any regrouping of the same order is byte-identical.
//
//hypertap:hotpath
func (e *Engine) HandleExit(exit *hav.Exit) (published, syncRuns int) {
	e.mu.Lock() //hypertap:allow hotpath the engine lock serializes decode against auditors' query calls; taken once per exit, uncontended on the vCPU path
	e.batch = e.batch[:0]
	// Fig. 3C: integrity check on every VM Exit.
	if e.feat.TSSIntegrity && e.sawFirstCR3 {
		if cur := exit.Guest.TR; cur != e.savedTR[exit.VCPU] && !e.tssAlerted[exit.VCPU] {
			e.tssAlerted[exit.VCPU] = true
			e.publishLocked(exit, core.EvTSSRelocated).GVA = cur
		}
	}

	q := &exit.Qual
	switch exit.Reason {
	case hav.ExitCRAccess:
		e.onCRAccess(exit)
	case hav.ExitEPTViolation:
		e.onEPTViolation(exit)
	case hav.ExitException:
		e.onException(exit)
	case hav.ExitWRMSR:
		e.onWRMSR(exit)
	case hav.ExitIOInstruction:
		if e.feat.IO {
			ev := e.publishLocked(exit, core.EvIOPort)
			ev.Port, ev.IsWrite, ev.IOValue = q.Port, q.Write, uint32(q.Value)
		}
	case hav.ExitExternalInterrupt:
		if e.feat.IO {
			e.publishLocked(exit, core.EvInterrupt).Vector = q.Vector
		}
	case hav.ExitAPICAccess:
		if e.feat.IO {
			e.publishLocked(exit, core.EvAPICAccess).IsWrite = q.Write
		}
	case hav.ExitHLT:
		e.publishLocked(exit, core.EvHalt)
	default:
		e.publishLocked(exit, core.EvRawExit)
	}
	batch, tap, em := e.batch, e.tap, e.em
	e.mu.Unlock()

	if tap != nil {
		for i := range batch {
			tap.TapEvent(&batch[i])
		}
	}
	return len(batch), em.PublishBatch(batch)
}

// SetTap installs (or, with nil, removes) the decode-time exit-stream tap.
// The tap fires on the exit hot path; implementations must be cheap and
// allocation-free (internal/capture's Recorder is the intended one).
func (e *Engine) SetTap(tap core.ExitStreamTap) {
	e.mu.Lock()
	e.tap = tap
	e.mu.Unlock()
}

// onCRAccess handles Fig. 3A plus the arming points of Fig. 3B/3C/3E.
func (e *Engine) onCRAccess(exit *hav.Exit) {
	q := &exit.Qual
	if q.Register != 3 {
		e.publishLocked(exit, core.EvRawExit)
		return
	}
	newPDBA := arch.GPA(q.Value)

	if !e.sawFirstCR3 {
		e.sawFirstCR3 = true
		e.armOnFirstCR3(newPDBA)
	}

	if e.feat.ProcessSwitch {
		e.pdbaSet[newPDBA] = struct{}{}
		e.publishLocked(exit, core.EvProcessSwitch).PDBA = newPDBA
	} else if e.sawFirstCR3 && !e.feat.TSSIntegrity {
		// Nothing needs further CR3 exits: drop the control to save exits.
		e.ctl.SetCR3LoadExiting(false)
	}
}

// armOnFirstCR3 records per-vCPU TR values, write-protects the TSS pages
// (Fig. 3B) and finishes any deferred entry-page protection (Fig. 3E). The
// new PDBA provides the first walkable address space; kernel mappings are
// shared across address spaces, so it resolves every kernel object.
func (e *Engine) armOnFirstCR3(pdba arch.GPA) {
	for i := 0; i < e.ctl.NumVCPUs(); i++ {
		tr := e.ctl.Regs(i).TR
		e.savedTR[i] = tr
		if gpa, ok := e.ctl.TranslateGVA(pdba, tr); ok {
			e.tssRSP0GPA[i] = gpa + arch.TSSOffRSP0
			if e.feat.ThreadSwitch {
				_ = e.ctl.ProtectPage(gpa, hav.PermRead|hav.PermExec)
				// A TSS that straddles a page boundary needs both pages.
				if endGPA, ok := e.ctl.TranslateGVA(pdba, tr+arch.TSSSize-1); ok &&
					arch.PageNumber(endGPA) != arch.PageNumber(gpa) {
					_ = e.ctl.ProtectPage(endGPA, hav.PermRead|hav.PermExec)
				}
			}
		}
	}
	if e.entryPending {
		e.protectEntryPage(pdba)
	}
}

// onEPTViolation decodes thread switches (Fig. 3B), fast-syscall entries
// (Fig. 3E) and fine-grained watches.
func (e *Engine) onEPTViolation(exit *hav.Exit) {
	q := &exit.Qual
	if q.Access == hav.AccessWrite && e.feat.ThreadSwitch {
		if q.GPA == e.tssRSP0GPA[exit.VCPU] {
			// [Addr] <- V where Addr == &vcpu.TR->RSP0: V is the incoming
			// thread's kernel stack base.
			ev := e.publishLocked(exit, core.EvThreadSwitch)
			ev.RSP0 = arch.GVA(q.Value)
			ev.GPA = q.GPA
			return
		}
	}
	if q.Access == hav.AccessExec && e.feat.Syscalls && e.entryGPA != 0 &&
		arch.PageNumber(q.GPA) == arch.PageNumber(e.entryGPA) {
		e.publishSyscallLocked(exit)
		return
	}
	ev := e.publishLocked(exit, core.EvMemAccess)
	ev.GPA, ev.GVA = q.GPA, q.GVA
	ev.IsWrite = q.Access == hav.AccessWrite
}

// onException decodes interrupt-based system calls (Fig. 3D).
func (e *Engine) onException(exit *hav.Exit) {
	q := &exit.Qual
	if e.feat.Syscalls && q.ExcType == hav.ExcSoftwareInt &&
		(q.Vector == arch.VectorLinuxSyscall || q.Vector == arch.VectorWindowsSyscall) {
		e.publishSyscallLocked(exit)
		return
	}
	e.publishLocked(exit, core.EvRawExit).Vector = q.Vector
}

// onWRMSR records the fast-syscall entry point (Fig. 3E).
func (e *Engine) onWRMSR(exit *hav.Exit) {
	q := &exit.Qual
	ev := e.publishLocked(exit, core.EvMSRWrite)
	ev.MSR, ev.MSRValue = q.MSR, q.Value
	if !e.feat.Syscalls || q.MSR != arch.MSRSysenterEIP {
		return
	}
	e.syscallEntry = arch.GVA(q.Value)
	// Execute-protect the page containing the entry point. Before the
	// first CR3 load there is no address space to walk; defer.
	cr3 := exit.Guest.CR3
	if cr3 == 0 {
		e.entryPending = true
		return
	}
	e.protectEntryPage(cr3)
}

// protectEntryPage resolves and execute-protects the fast-syscall entry.
func (e *Engine) protectEntryPage(cr3 arch.GPA) {
	gpa, ok := e.ctl.TranslateGVA(cr3, e.syscallEntry)
	if !ok {
		e.entryPending = true
		return
	}
	e.entryGPA = gpa
	e.entryPending = false
	_ = e.ctl.ProtectPage(gpa, hav.PermRead|hav.PermWrite)
}

// publishSyscallLocked reads the syscall number and parameters from the
// saved general-purpose registers, exactly as Fig. 3D/3E's pseudo-code does.
func (e *Engine) publishSyscallLocked(exit *hav.Exit) {
	ev := e.publishLocked(exit, core.EvSyscall)
	ev.SyscallNr = uint32(exit.Guest.GPR(arch.RAX))
	ev.SyscallArgs = [4]uint64{
		exit.Guest.GPR(arch.RBX),
		exit.Guest.GPR(arch.RCX),
		exit.Guest.GPR(arch.RDX),
		exit.Guest.GPR(arch.RSI),
	}
}

// publishLocked decodes one event into the pending batch and returns it for
// the caller to fill in its type-specific fields; the pointer is valid until
// the next publishLocked. Callers hold e.mu; HandleExit publishes the batch
// after releasing the lock so synchronous auditors never run under the
// engine's critical state.
//
//hypertap:hotpath
func (e *Engine) publishLocked(exit *hav.Exit, t core.EventType) *core.Event {
	e.decoded[t]++
	e.batch = append(e.batch, core.Event{ //hypertap:allow hotpath grows only until the largest decode batch fits; the buffer is reused across exits
		Type:       t,
		VM:         e.vm,
		VCPU:       exit.VCPU,
		Seq:        exit.Sequence,
		Span:       core.MintSpan(e.vm, exit.Sequence, uint8(len(e.batch))),
		Time:       e.now(exit.VCPU),
		Regs:       exit.Guest,
		ExitReason: exit.Reason,
	})
	return &e.batch[len(e.batch)-1]
}

// CountProcesses runs the full Fig. 3A algorithm: sweep the PDBA set,
// dropping entries whose address space no longer maps the known GVA, and
// return the number of live virtual address spaces.
func (e *Engine) CountProcesses() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for pdba := range e.pdbaSet {
		if _, ok := e.ctl.TranslateGVA(pdba, e.feat.KnownGVA); !ok {
			delete(e.pdbaSet, pdba)
		}
	}
	return len(e.pdbaSet)
}

// TrackedPDBAs returns the current (unswept) PDBA set size.
func (e *Engine) TrackedPDBAs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pdbaSet)
}

// PDBASet returns a snapshot of the tracked address-space identifiers.
func (e *Engine) PDBASet() []arch.GPA {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]arch.GPA, 0, len(e.pdbaSet))
	for p := range e.pdbaSet {
		out = append(out, p)
	}
	return out
}

// SyscallEntry returns the recorded fast-syscall entry point (Fig. 3E).
func (e *Engine) SyscallEntry() arch.GVA {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.syscallEntry
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	decoded := make(map[core.EventType]uint64)
	for t, n := range e.decoded {
		if n != 0 {
			decoded[core.EventType(t)] = n
		}
	}
	return Stats{
		Decoded:      decoded,
		TSSArmed:     e.sawFirstCR3,
		SyscallEntry: e.syscallEntry,
		TrackedPDBAs: len(e.pdbaSet),
	}
}
