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
// IDs are dense, assigned by AttachVM in attach order starting at 0, and
// every other layer — capture headers, replay, flight rings, incident
// bundles — indexes by them: slot i is VMID i. A machine that owns a
// private EM (the single-VM deployment) attaches itself as VM 0, so the
// zero value is always the "solo VM" and pre-fleet wiring keeps working
// unchanged.
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

// AttachVM registers a VM with the host EM and returns its VMID, the next
// dense slot. Names must be unique per EM (they key RHC heartbeats and
// telemetry labels). Attaching rebuilds the routing table with a slot for
// the new VM and grows an attached flight table to a ring for it (a no-op
// when the table was pre-sized); when telemetry is enabled the VM also gets
// a labeled published-events series.
func (m *Multiplexer) AttachVM(name string) (VMID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == "" {
		return 0, fmt.Errorf("core: AttachVM requires a VM name")
	}
	for _, n := range m.vms {
		if n == name {
			return 0, fmt.Errorf("core: VM %q already attached", name)
		}
	}
	if len(m.vms) >= maxVMs {
		return 0, fmt.Errorf("core: host EM is full (%d VMs)", maxVMs)
	}
	id := VMID(len(m.vms))
	m.vms = append(m.vms, name)
	// The first attach takes over the bare EM's VM 0 slot, and its count.
	if len(m.vms) > len(m.pubByVM) {
		m.pubByVM = append(m.pubByVM, 0)
	}
	if m.fl != nil {
		m.fl.grow(len(m.vms))
	}
	if m.tel != nil {
		m.registerVMSeriesLocked(id)
	}
	m.rebuildRoutesLocked()
	return id, nil
}

// VMName resolves an attached VMID to its name.
func (m *Multiplexer) VMName(id VMID) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.vms) {
		return "", false
	}
	return m.vms[id], true
}

// VMs returns the attached VM names indexed by VMID.
func (m *Multiplexer) VMs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.vms))
	copy(out, m.vms)
	return out
}

// PublishedVM returns the number of events published for one VM; on a bare
// EM, VM 0's count is every event.
func (m *Multiplexer) PublishedVM(id VMID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pubByVM) {
		return 0
	}
	return m.pubByVM[id]
}
