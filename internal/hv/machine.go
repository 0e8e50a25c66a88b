// Package hv implements the KVM-like hypervisor of the reproduction: it
// owns the guest-physical memory, the vCPUs, the EPT and the VM-execution
// controls, drives the guest kernel in deterministic virtual-time ticks, and
// embeds HyperTap's Event Forwarder in its exit path (the <100-line KVM
// integration the paper describes).
//
// The Machine also implements core.VMControl, the helper API through which
// HyperTap's logging core and auditors read guest state — register files and
// guest memory, addressed physically or via software page walks — without
// any access to simulator internals.
package hv

import (
	"fmt"
	"time"

	"hypertap/internal/arch"
	"hypertap/internal/core"
	"hypertap/internal/core/intercept"
	"hypertap/internal/gmem"
	"hypertap/internal/guest"
	"hypertap/internal/hav"
	"hypertap/internal/telemetry"
	"hypertap/internal/vclock"
)

// CostModel prices hypervisor-side work in guest virtual time. The defaults
// are calibrated to the paper's era (Nehalem/Westmere-class VM exit costs) so
// that monitoring overhead lands in the regime Fig. 7 reports.
type CostModel struct {
	// ExitBase is the hardware exit+entry round trip plus minimal handling.
	ExitBase time.Duration
	// EventForward is the EF→EM logging cost per published event.
	EventForward time.Duration
	// SyncAudit is the cost of one synchronous (blocking) audit delivery.
	SyncAudit time.Duration
	// LoggingStacks models the paper's unified-logging ablation: 1 (the
	// default) is HyperTap's shared channel; n > 1 prices n independent
	// monitoring stacks that each take their own exit and logging cost for
	// the same guest event.
	LoggingStacks int
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		ExitBase:     800 * time.Nanosecond,
		EventForward: 150 * time.Nanosecond,
		SyncAudit:    250 * time.Nanosecond,
	}
}

// Config describes a VM to build.
type Config struct {
	// Name identifies the VM (RHC heartbeats, diagnostics).
	Name string
	// VCPUs is the virtual CPU count. Default 2 (the paper's guest).
	VCPUs int
	// MemBytes is the guest-physical memory size. Default 96 MiB. It
	// reserves the address range; pages are backed on the guest's first
	// write, so a VM costs only the pages its guest writes.
	MemBytes uint64
	// Tick is the scheduler/timer granularity. Default 1ms.
	Tick time.Duration
	// Costs prices hypervisor work; zero value selects DefaultCosts.
	Costs CostModel
	// Guest carries kernel configuration (profile, syscall mechanism,
	// preemption, timeslice, seed). Mem and VCPUs fields are overwritten.
	Guest guest.Config
	// EM, when set, attaches the machine to a shared host Event Multiplexer
	// (the paper's Fig. 2 deployment: one EM per physical host serving many
	// guest VMs). The machine registers its Name with the EM and stamps the
	// returned VMID into every forwarded event; Name must therefore be
	// unique per host. Nil keeps the pre-fleet behavior: the machine owns a
	// private EM and attaches itself as VM 0.
	EM *core.Multiplexer
	// Telemetry, when set, instruments the machine: every VM Exit is
	// counted by reason (hypertap_vm_exits_total) and, when the machine
	// owns its EM, the EM registers its publish/queue/latency metrics too.
	// With a shared EM the host is the EM's owner and enables its telemetry
	// once for the whole fleet. Registries may be shared across machines;
	// shared series aggregate.
	Telemetry *telemetry.Registry
	// Flight, when set and the machine owns its EM, is attached to that EM
	// as the tracing plane (the EM records each exit on publish and each
	// heartbeat step on its sampler feed). On a host-shared EM the host
	// attaches its own table once.
	Flight *core.FlightTable
}

func (c *Config) fillDefaults() {
	if c.Name == "" {
		c.Name = "vm0"
	}
	if c.VCPUs == 0 {
		c.VCPUs = 2
	}
	if c.MemBytes == 0 {
		c.MemBytes = 96 << 20
	}
	if c.Tick == 0 {
		c.Tick = time.Millisecond
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	if c.Costs.LoggingStacks < 1 {
		c.Costs.LoggingStacks = 1
	}
}

// Machine is one virtual machine under the hypervisor.
type Machine struct {
	name   string
	cfg    Config
	clock  *vclock.Clock
	mem    *gmem.Memory
	ctrls  *hav.Controls
	ept    *hav.EPT
	vcpus  []*hav.VCPU
	kernel *guest.Kernel
	em     *core.Multiplexer
	ownsEM bool
	vmid   core.VMID
	engine *intercept.Engine

	seq    uint64
	booted bool
	paused bool
	tap    core.ExitStreamTap

	pendingNet []pendingPacket
}

type pendingPacket struct {
	cpu     int
	port    uint16
	payload uint64
}

// New builds a machine: memory, EPT, vCPUs, kernel (unbooted) and an empty
// Event Multiplexer. Call EnableMonitoring before Boot if interception
// features are needed (the fast-syscall algorithm arms on boot-time WRMSR
// exits).
func New(cfg Config) (*Machine, error) {
	cfg.fillDefaults()
	mem, err := gmem.New(cfg.MemBytes)
	if err != nil {
		return nil, fmt.Errorf("hv: %w", err)
	}
	m := &Machine{
		name:  cfg.Name,
		cfg:   cfg,
		clock: &vclock.Clock{},
		mem:   mem,
		ctrls: &hav.Controls{},
		ept:   hav.NewEPT(mem.Pages()),
		em:    cfg.EM,
	}
	if m.em == nil {
		m.em = core.NewMultiplexer()
		m.ownsEM = true
	}
	vmid, err := m.em.AttachVM(cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("hv: %w", err)
	}
	m.vmid = vmid
	if cfg.Flight != nil && m.ownsEM {
		// Solo deployment: the machine owns the EM, so it owns attaching the
		// exit recorder too. On a shared EM the host does this once.
		m.em.SetFlight(cfg.Flight)
	}
	var handler hav.ExitHandler = hav.ExitHandlerFunc(m.handleExit)
	if cfg.Telemetry != nil {
		if m.ownsEM {
			m.em.EnableTelemetry(cfg.Telemetry)
		}
		handler = hav.NewExitCounters(cfg.Telemetry).Wrap(handler)
	}
	for i := 0; i < cfg.VCPUs; i++ {
		v := hav.NewVCPU(i, m.ctrls, m.ept, &m.seq)
		v.SetHandler(handler)
		m.vcpus = append(m.vcpus, v)
	}
	gcfg := cfg.Guest
	gcfg.Mem = mem
	gcfg.VCPUs = m.vcpus
	kernel, err := guest.New(gcfg)
	if err != nil {
		return nil, fmt.Errorf("hv: %w", err)
	}
	m.kernel = kernel
	if cfg.Telemetry != nil {
		kernel.EnableTLBTelemetry(cfg.Telemetry)
	}
	return m, nil
}

// EnableMonitoring creates the per-VM Event Forwarder with the given feature
// set. It must be called before Boot.
func (m *Machine) EnableMonitoring(feat intercept.Features) (*intercept.Engine, error) {
	if m.booted {
		return nil, fmt.Errorf("hv: EnableMonitoring must precede Boot")
	}
	if m.engine != nil {
		return nil, fmt.Errorf("hv: monitoring already enabled")
	}
	m.engine = intercept.New(intercept.Config{
		Control:  m,
		EM:       m.em,
		VM:       m.vmid,
		Now:      m.kernel.LocalNow,
		Features: feat,
	})
	if m.tap != nil {
		m.engine.SetTap(m.tap)
	}
	return m.engine, nil
}

// SetExitTap installs an exit-stream tap: the Event Forwarder reports every
// decoded event to it before publication, and the machine reports its tick
// and drain control points. Order relative to EnableMonitoring does not
// matter. Pass nil to detach.
func (m *Machine) SetExitTap(tap core.ExitStreamTap) {
	m.tap = tap
	if m.engine != nil {
		m.engine.SetTap(tap)
	}
}

// Boot boots the guest kernel.
func (m *Machine) Boot() error {
	if m.booted {
		return fmt.Errorf("hv: already booted")
	}
	if err := m.kernel.Boot(); err != nil {
		return err
	}
	m.booted = true
	return nil
}

// handleExit is the hypervisor's exit dispatcher: it charges the exit cost,
// forwards to HyperTap's engine (when monitoring is enabled) and charges the
// logging and blocking-audit costs the forwarding incurred.
func (m *Machine) handleExit(exit *hav.Exit) {
	m.kernel.ChargeExit(exit.VCPU, m.cfg.Costs.ExitBase)
	if m.engine == nil {
		return
	}
	published, syncRuns := m.engine.HandleExit(exit)
	charge := time.Duration(published)*m.cfg.Costs.EventForward +
		time.Duration(syncRuns)*m.cfg.Costs.SyncAudit
	if extra := m.cfg.Costs.LoggingStacks - 1; extra > 0 && published > 0 {
		// Separate-stacks ablation: each additional monitoring stack pays
		// its own exit round trip and logging for the same guest event.
		charge += time.Duration(extra) * (m.cfg.Costs.ExitBase +
			time.Duration(published)*m.cfg.Costs.EventForward +
			time.Duration(syncRuns)*m.cfg.Costs.SyncAudit)
	}
	if charge > 0 {
		m.kernel.ChargeExit(exit.VCPU, charge)
	}
}

// Run advances the VM by d of virtual time in tick-sized steps, draining
// async auditors between ticks.
func (m *Machine) Run(d time.Duration) {
	m.RunUntil(d, nil)
}

// RunUntil advances the VM by at most max virtual time, stopping early when
// cond (checked once per tick) returns true.
func (m *Machine) RunUntil(max time.Duration, cond func() bool) {
	if !m.booted {
		panic("hv: RunUntil before Boot")
	}
	deadline := m.clock.Now() + max
	for m.clock.Now() < deadline {
		if cond != nil && cond() {
			return
		}
		m.stepTick()
		if m.tap != nil {
			m.tap.TapBarrier(m.clock.Now())
		}
		m.em.Dispatch(0)
	}
}

// StepTick advances the VM by exactly one tick without draining the EM —
// the host fleet driver's entry point: it steps every machine of a round in
// VM order and drains the shared EM once per round, so async delivery order
// is a deterministic function of the round-robin schedule.
func (m *Machine) StepTick() {
	if !m.booted {
		panic("hv: StepTick before Boot")
	}
	m.stepTick()
}

// stepTick runs one scheduler tick (device delivery, timers, vCPU slices)
// and advances the virtual clock; async auditors are not drained here.
func (m *Machine) stepTick() {
	tick := m.cfg.Tick
	start := m.clock.Now()
	if !m.paused {
		for _, pkt := range m.pendingNet {
			m.kernel.DeliverDevice(pkt.cpu, pkt.port, pkt.payload)
		}
		m.pendingNet = m.pendingNet[:0]
		for cpu := range m.vcpus {
			m.kernel.DeliverTimer(cpu, tick)
		}
		for cpu := range m.vcpus {
			m.kernel.RunSlice(cpu, start, tick)
		}
	}
	// The tick is recorded before the clock advances so that, on replay,
	// events decoded during the slice precede the timer deliveries Advance
	// triggers — the same order the live schedule produced them in.
	if m.tap != nil {
		m.tap.TapTick(m.vmid, start+tick)
	}
	m.clock.Advance(tick)
}

// InjectNetRequest queues an inbound network packet, delivered via a device
// interrupt on vCPU 0 at the next tick.
func (m *Machine) InjectNetRequest(port uint16, payload uint64) {
	m.pendingNet = append(m.pendingNet, pendingPacket{cpu: 0, port: port, payload: payload})
}

// Accessors.

// Name returns the VM name.
func (m *Machine) Name() string { return m.name }

// VMID returns the machine's identity on its (possibly host-shared) EM.
func (m *Machine) VMID() core.VMID { return m.vmid }

// Kernel returns the guest kernel (workload setup, ground-truth checks).
func (m *Machine) Kernel() *guest.Kernel { return m.kernel }

// EM returns the VM's Event Multiplexer.
func (m *Machine) EM() *core.Multiplexer { return m.em }

// Engine returns the interception engine, or nil when monitoring is off.
func (m *Machine) Engine() *intercept.Engine { return m.engine }

// Clock returns the VM's virtual clock.
func (m *Machine) Clock() *vclock.Clock { return m.clock }

// Controls returns the VM-execution controls (tests, Table I tooling).
func (m *Machine) Controls() *hav.Controls { return m.ctrls }

// EPT returns the VM's extended page table.
func (m *Machine) EPT() *hav.EPT { return m.ept }

// VCPU returns vCPU i.
func (m *Machine) VCPU(i int) *hav.VCPU { return m.vcpus[i] }

// TotalExits sums VM exits across vCPUs.
func (m *Machine) TotalExits() uint64 {
	var n uint64
	for _, v := range m.vcpus {
		n += v.TotalExits()
	}
	return n
}

// ExitCount sums exits of one reason across vCPUs.
func (m *Machine) ExitCount(r hav.ExitReason) uint64 {
	var n uint64
	for _, v := range m.vcpus {
		n += v.ExitCount(r)
	}
	return n
}

// core.VMControl implementation.

var _ core.VMControl = (*Machine)(nil)

// NumVCPUs implements core.GuestView.
func (m *Machine) NumVCPUs() int { return len(m.vcpus) }

// Regs implements core.GuestView.
func (m *Machine) Regs(vcpu int) arch.RegisterFile {
	return m.vcpus[vcpu].Regs.Clone()
}

// ReadGPA implements core.GuestView.
func (m *Machine) ReadGPA(gpa arch.GPA, buf []byte) error {
	return m.mem.Read(gpa, buf)
}

// ReadU64GPA implements core.GuestView.
func (m *Machine) ReadU64GPA(gpa arch.GPA) (uint64, error) { return m.mem.ReadU64(gpa) }

// ReadU32GPA implements core.GuestView.
func (m *Machine) ReadU32GPA(gpa arch.GPA) (uint32, error) { return m.mem.ReadU32(gpa) }

// TranslateGVA implements core.GuestView with a software page walk.
func (m *Machine) TranslateGVA(cr3 arch.GPA, gva arch.GVA) (arch.GPA, bool) {
	return m.kernel.Translate(cr3, gva)
}

// ReadU64GVA implements core.GuestView.
func (m *Machine) ReadU64GVA(cr3 arch.GPA, gva arch.GVA) (uint64, error) {
	gpa, ok := m.TranslateGVA(cr3, gva)
	if !ok {
		return 0, fmt.Errorf("hv: unmapped GVA %#x under cr3 %#x", uint64(gva), uint64(cr3))
	}
	return m.mem.ReadU64(gpa)
}

// ReadU32GVA implements core.GuestView.
func (m *Machine) ReadU32GVA(cr3 arch.GPA, gva arch.GVA) (uint32, error) {
	gpa, ok := m.TranslateGVA(cr3, gva)
	if !ok {
		return 0, fmt.Errorf("hv: unmapped GVA %#x under cr3 %#x", uint64(gva), uint64(cr3))
	}
	return m.mem.ReadU32(gpa)
}

// ReadCStringGVA implements core.GuestView.
func (m *Machine) ReadCStringGVA(cr3 arch.GPA, gva arch.GVA, max int) (string, error) {
	gpa, ok := m.TranslateGVA(cr3, gva)
	if !ok {
		return "", fmt.Errorf("hv: unmapped GVA %#x under cr3 %#x", uint64(gva), uint64(cr3))
	}
	return m.mem.ReadCString(gpa, max)
}

// Now implements core.GuestView.
func (m *Machine) Now() time.Duration { return m.clock.Now() }

// PauseVM implements core.GuestView.
func (m *Machine) PauseVM() { m.paused = true }

// ResumeVM implements core.GuestView.
func (m *Machine) ResumeVM() { m.paused = false }

// Paused implements core.GuestView.
func (m *Machine) Paused() bool { return m.paused }

// SetCR3LoadExiting implements core.VMControl.
func (m *Machine) SetCR3LoadExiting(on bool) { m.ctrls.CR3LoadExiting = on }

// SetExceptionExit implements core.VMControl.
func (m *Machine) SetExceptionExit(vector uint8, on bool) {
	m.ctrls.SetExceptionBit(vector, on)
}

// ProtectPage implements core.VMControl.
func (m *Machine) ProtectPage(gpa arch.GPA, perm hav.Perm) error {
	return m.ept.SetPerm(gpa, perm)
}

// PagePerm implements core.VMControl.
func (m *Machine) PagePerm(gpa arch.GPA) hav.Perm { return m.ept.Perm(gpa) }
