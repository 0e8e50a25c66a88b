package core

import (
	"fmt"
	"math"
)

// Host-level VM identity (the fleet plane of the paper's Fig. 2): one Event
// Multiplexer per physical host serves many guest VMs, so every event
// carries a compact VM tag and every subscription declares which VM — or
// the whole fleet — it audits. The EM keeps the ID↔name registry itself:
// attaching a VM is a control-plane operation, and the hot path only ever
// sees the integer.

// VMID compactly identifies one VM attached to a host Event Multiplexer.
// IDs are dense, assigned by AttachVM in attach order starting at 0. A
// machine that owns a private EM (the single-VM deployment) attaches itself
// as VM 0, so the zero value is always the "solo VM" and pre-fleet wiring
// keeps working unchanged.
//
// Sparse IDs now arrive only from recorded v2 captures and incident bundles,
// whose headers name each VM's ID explicitly; replay keeps that identity, and
// with it the VM's SpanIDs and flight records. Sparse IDs enter through
// AttachVMAt; the slots below an attached ID are tombstones ("" names) that
// route like unattached VMs.
type VMID uint16

// maxVMs bounds the per-host fleet: VMIDs index the routing table and the
// per-VM published counters directly, so the ceiling is the VMID domain.
const maxVMs = math.MaxUint16 + 1

// VMScope selects which VM's events a subscription receives: one specific
// VM, or fleet-wide (every VM on the host — cross-VM auditors like the
// exit-storm detector). The zero value scopes to VM 0, which on a solo
// machine is the whole event stream.
type VMScope struct {
	fleet bool
	vm    VMID
}

// ScopeVM scopes a subscription to one VM's events.
func ScopeVM(id VMID) VMScope { return VMScope{vm: id} }

// ScopeFleet subscribes to every VM's events.
func ScopeFleet() VMScope { return VMScope{fleet: true} }

// Fleet reports whether the scope is fleet-wide.
func (s VMScope) Fleet() bool { return s.fleet }

// VM returns the scoped VM; meaningful only when !Fleet().
func (s VMScope) VM() VMID { return s.vm }

func (s VMScope) String() string {
	if s.fleet {
		return "fleet"
	}
	return fmt.Sprintf("vm%d", s.vm)
}

// VMScoped is implemented by auditors bound to one VM of a host fleet.
// RegisterAuditor consults it so per-VM auditors (GOSHD, HRKD, the Ninjas)
// carry their own scope instead of every call site restating it.
type VMScoped interface {
	// VMScope returns the scope the auditor wants its subscription to use.
	VMScope() VMScope
}

// AttachVM registers a VM with the host EM and returns its VMID. Names must
// be unique per EM (they key RHC heartbeats and telemetry labels). Attaching
// rebuilds the routing table with a slot for the new VM; when telemetry is
// enabled the VM also gets a labeled published-events series.
func (m *Multiplexer) AttachVM(name string) (VMID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.attachAtLocked(VMID(len(m.vms)), name)
}

// AttachVMAt registers a VM under a caller-chosen VMID — the replay entry
// point for a recorded v2 capture whose header names sparse IDs. Slots below
// id that no one attached become tombstones: they have no name, no telemetry
// series, and route like unattached VMs. Attaching at an occupied slot is an
// error; AttachVM is AttachVMAt at the next dense slot.
func (m *Multiplexer) AttachVMAt(id VMID, name string) (VMID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.attachAtLocked(id, name)
}

// attachAtLocked is the shared attach path. Caller holds the EM lock.
func (m *Multiplexer) attachAtLocked(id VMID, name string) (VMID, error) {
	if name == "" {
		return 0, fmt.Errorf("core: AttachVM requires a VM name")
	}
	for _, n := range m.vms {
		if n == name {
			return 0, fmt.Errorf("core: VM %q already attached", name)
		}
	}
	if len(m.vms) >= maxVMs && int(id) >= len(m.vms) {
		return 0, fmt.Errorf("core: host EM is full (%d VMs)", maxVMs)
	}
	for int(id) >= len(m.vms) {
		m.vms = append(m.vms, "")
		m.pubByVM = append(m.pubByVM, 0)
	}
	if m.vms[id] != "" {
		return 0, fmt.Errorf("core: VMID %d already attached (%q)", id, m.vms[id])
	}
	m.vms[id] = name
	m.pubByVM[id] = 0
	if m.tel != nil {
		m.registerVMSeriesLocked(id)
	}
	m.rebuildRoutesLocked()
	return id, nil
}

// VMName resolves an attached VMID to its name. Tombstoned slots (IDs below
// a sparse attach that no one occupies) resolve to nothing.
func (m *Multiplexer) VMName(id VMID) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.vms) || m.vms[id] == "" {
		return "", false
	}
	return m.vms[id], true
}

// VMs returns the attached VM names indexed by VMID; tombstoned slots hold
// the empty string.
func (m *Multiplexer) VMs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.vms))
	copy(out, m.vms)
	return out
}

// PublishedVM returns the number of events published for one VM.
func (m *Multiplexer) PublishedVM(id VMID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pubByVM) {
		return 0
	}
	return m.pubByVM[id]
}
