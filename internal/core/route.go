package core

// (VMID, EventType)-indexed event routing. At AttachVM, Register,
// Unregister and EnableTelemetry time the EM precomputes, for every attached
// VM and event type, the exact sync and async subscription lists — the VM's
// own scoped auditors plus every fleet-wide subscriber, in registration
// order — so Publish delivers each VM's events only to that VM's auditors,
// touches nothing else and allocates nothing. Slot i is VMID i, and every
// VMID an event may carry has a slot: publishers stamp events only with
// VMIDs AttachVM returned.

// routeBits spans every bit an EventMask (uint32) can hold. Event types at
// or above routeBits can never match a mask — the non-constant shift in
// EventMask.Has overflows to zero — so they route to an always-empty
// sentinel slot that no subscriber is ever on.
const (
	routeBits     = 32
	routeSentinel = routeBits
	routeSlots    = routeBits + 1
)

// vmRoutes holds one VM's precomputed per-type subscription lists. Slices
// are installed wholesale by rebuild and never mutated afterwards, so
// Publish may snapshot a slot under the EM lock and iterate it after
// unlocking.
type vmRoutes struct {
	sync  [routeSlots][]*subscription
	async [routeSlots][]*subscription
	// syncBits is the OR of the sync list's actor bits per slot — the flight
	// recorder's precomputed sync-delivery mask, so recording an exit's full
	// synchronous fan-out is one array load instead of a per-subscriber walk.
	syncBits [routeSlots]uint64
}

// routeTable is the full host routing table: one vmRoutes per attached VM.
//
// A table is immutable once installed: rebuilds construct a fresh table and
// swap it into the Multiplexer's routes field under the EM lock
// (copy-on-write). Readers load the field under the same lock, and a
// publisher may keep delivering from the table it loaded after unlocking:
// nothing writes that table again, so it never sees a half-rebuilt slot.
type routeTable struct {
	perVM []vmRoutes
}

// vmFor returns VM vm's route slot. vm must be attached; PublishBatch
// checks that before it routes.
func (rt *routeTable) vmFor(vm VMID) *vmRoutes {
	return &rt.perVM[vm]
}

// routeIndex maps an event type to its table slot.
func routeIndex(t EventType) int {
	if int(t) >= routeBits {
		return routeSentinel
	}
	return int(t)
}

// matchesVM reports whether a subscription's scope covers VM vm.
func (s *subscription) matchesVM(vm VMID) bool {
	return s.scope.fleet || s.scope.vm == vm
}

// rebuild recomputes every slot from the subscription list for numVM
// attached VMs. Registration order is preserved within each slot — scoped
// and fleet-wide subscribers interleave exactly as registered — so delivery
// order is registration order. Must be called with the EM lock held.
func (rt *routeTable) rebuild(subs []*subscription, numVM int) {
	rt.perVM = make([]vmRoutes, numVM)
	for vm := range rt.perVM {
		rt.perVM[vm].fill(subs, VMID(vm))
	}
}

// fill computes VM vm's slot lists.
func (vr *vmRoutes) fill(subs []*subscription, vm VMID) {
	for t := 0; t < routeBits; t++ {
		var syncList, asyncList []*subscription
		var sbits uint64
		for _, s := range subs {
			if !s.matchesVM(vm) || !s.mask.Has(EventType(t)) {
				continue
			}
			if s.mode == DeliverSync {
				syncList = append(syncList, s)
				sbits |= s.actorBit
			} else {
				asyncList = append(asyncList, s)
			}
		}
		vr.sync[t] = syncList
		vr.async[t] = asyncList
		vr.syncBits[t] = sbits
	}
}
