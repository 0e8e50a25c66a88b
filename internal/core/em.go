package core

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"hypertap/internal/telemetry"
)

// Auditor is the auditing-phase interface: a monitor that enforces one RnS
// policy over the shared event stream. Auditors register with the Event
// Multiplexer for the event types they need; HandleEvent must treat the
// event as read-only (it may be shared with other auditors).
type Auditor interface {
	// Name identifies the auditor in statistics and alerts.
	Name() string
	// Mask selects the event types delivered to this auditor.
	Mask() EventMask
	// HandleEvent processes one event.
	HandleEvent(ev *Event)
}

// BatchAuditor is the optional batched-delivery fast path. An asynchronous
// auditor implementing it receives each Dispatch claim as contiguous slices
// instead of one HandleEvent call per event, amortizing its own per-call
// overhead (typically a mutex) across the batch. Semantics must be
// indistinguishable from calling HandleEvent once per event in slice order —
// the equivalence gates compare the two paths byte-for-byte.
//
// The slice aliases the subscriber's own queue ring: a claim that wraps the
// ring end arrives as two calls, in queue order. Rings grow with their
// traffic, so where a claim splits follows the ring's size at claim time:
// the batch boundaries of HandleBatch are not part of the contract, only
// the order of the events across calls. The slice is borrowed — valid
// only for the duration of the call, events read-only — and retaining the
// slice or any *Event into it past the call is forbidden: the EM reuses
// those slots for later events as soon as the claim is released.
type BatchAuditor interface {
	Auditor
	// HandleBatch processes evs in order.
	HandleBatch(evs []Event)
}

// DeliveryMode selects when an auditor runs relative to the suspended vCPU.
type DeliveryMode uint8

// Delivery modes.
const (
	// DeliverSync runs the auditor inside the VM Exit, before the guest
	// resumes — the blocking mode that lets a policy check *precede* the
	// audited operation (HT-Ninja's property).
	DeliverSync DeliveryMode = iota + 1
	// DeliverAsync queues the event; the auditing container drains it in
	// parallel with guest execution (the paper's default, minimizing
	// overhead).
	DeliverAsync
)

func (m DeliveryMode) String() string {
	switch m {
	case DeliverSync:
		return "sync"
	case DeliverAsync:
		return "async"
	default:
		return fmt.Sprintf("DeliveryMode(%d)", uint8(m))
	}
}

// SubscriptionStats reports per-auditor delivery accounting.
type SubscriptionStats struct {
	Auditor   string
	Mode      DeliveryMode
	Scope     VMScope
	Delivered uint64
	Queued    uint64
	Dropped   uint64
}

// subscription is one auditor's registration.
type subscription struct {
	auditor Auditor
	mode    DeliveryMode
	mask    EventMask
	scope   VMScope
	// batch is non-nil when the auditor implements BatchAuditor; the type
	// assertion is paid once at registration so Dispatch never asserts on
	// the delivery path.
	batch BatchAuditor

	// ring is the event queue for async delivery. Each event is copied in
	// once, at publish time, so auditors never alias the forwarder's
	// buffer; Dispatch then delivers claimed events in place, handing the
	// auditor slices of the ring itself. The ring starts at initialRing
	// slots (queueCap, if smaller) and doubles under the EM lock whenever a
	// publish finds it full below queueCap (see grow), so its size follows
	// the queue's high-water mark; queueCap alone decides drops.
	ring     []Event
	queueCap int
	head     int
	count    int
	// claimed is the size of the queued prefix at head that a Dispatch is
	// delivering outside the lock. Claimed slots stay counted in count until
	// the claim is released, so no publisher overwrites them mid-delivery;
	// while claimed is nonzero the subscription is busy and every other
	// Dispatch skips it, which keeps one auditor's deliveries serial and in
	// queue order.
	claimed int

	// actorBit is 1<<actor, where actor is the auditor's stable
	// flight-recorder identity (see actorLocked), precomputed so the hot
	// path ORs a register instead of shifting.
	actorBit uint64

	delivered uint64
	queued    uint64
	dropped   uint64

	// hist, when telemetry is enabled, records this auditor's HandleEvent
	// latency (sampled; see latencySampleEvery).
	hist *telemetry.Histogram
}

// Multiplexer is HyperTap's Event Multiplexer (EM): it receives every logged
// event from the Event Forwarder exactly once and fans it out to the
// registered auditors, implementing the "unified logging" the paper argues
// for — one capture, many policies.
//
// Multiplexer is safe for concurrent use: the simulator publishes from its
// single thread while auditing containers may drain asynchronously.
type Multiplexer struct {
	mu   sync.Mutex
	subs []*subscription
	// sampler, when set, receives every sampleEvery-th event (the RHC feed).
	sampler     func(ev *Event)
	sampleEvery uint64
	published   uint64

	// tel holds the EM's registered instruments; nil when telemetry is off,
	// in which case Publish pays a single predicted-taken branch.
	tel *emTelemetry
	// asyncDepth is the current total of queued-undelivered async events,
	// maintained incrementally so Publish never rescans subscriptions.
	asyncDepth int
	// rrStart rotates the subscriber Dispatch starts from, so bounded
	// drains do not perpetually favor early registrants.
	rrStart int
	// vms names the attached VMs, indexed by VMID (see vmid.go).
	vms []string
	// pubByVM counts published events per attached VM, maintained under
	// the EM lock so the per-VM telemetry series are snapshot-time
	// CounterFuncs like the host total; the hot path pays one increment.
	pubByVM []uint64
	// routes is the current immutable routing table (see route.go):
	// AttachVM/Register/Unregister/EnableTelemetry build a fresh table and
	// swap it in, and every reader loads the field, all under the EM lock.
	// A table is never mutated once installed, so PublishBatch may keep
	// delivering from the one it loaded after it unlocks.
	routes *routeTable
	// scratch is the reusable Dispatch segment list; a draining goroutine
	// detaches it under the lock so concurrent Dispatch calls never share.
	scratch []dispatchSeg
	// syncDelivered counts synchronous deliveries across all subscriptions,
	// folded once per publish batch (PublishBatch also returns each batch's
	// share to its caller).
	syncDelivered uint64
	// fl is the attached flight recorder; nil keeps the tracing plane off
	// and Publish pays one predicted-taken branch.
	fl *FlightTable
	// actorNames maps actor IDs (flight-record bitmask positions) to auditor
	// names; index 0 is the EM itself, actorOverflow the shared tail bucket.
	// actorIDs is the reverse map. IDs are sticky: re-registering a name
	// reuses its ID, so flight records stay comparable across rebuilds.
	actorNames []string
	actorIDs   map[string]uint8
}

// emTelemetry is the Multiplexer's instrument set. The published total has
// no per-event instrument: the EM already counts publishes under its lock,
// so the series is a CounterFunc over Published() — scrapes pay the lock,
// the hot path pays nothing.
type emTelemetry struct {
	reg       *telemetry.Registry
	dropped   *telemetry.Counter
	depth     *telemetry.Gauge
	highWater *telemetry.Gauge
}

// latencySampleEvery is the per-auditor latency sampling cadence: timing a
// handler costs clock reads (tens of ns each under virtualization), so only
// every n-th published event is timed. Counters remain exact; latency
// quantiles are statistical. With the routed fast path publishing in tens
// of ns, 256 keeps the amortized timing cost around a nanosecond while
// still collecting ~4k samples per million events.
const latencySampleEvery = 256

// EnableTelemetry registers the EM's instruments on reg and begins
// recording. Call it before traffic starts (it is not synchronized against
// in-flight deliveries). Exported series: hypertap_events_published_total
// (the unlabeled host total plus one {vm=...}-labeled series per attached
// VM, so per-VM rates roll up to host totals on /metrics),
// hypertap_events_dropped_total, hypertap_async_queue_depth,
// hypertap_async_queue_highwater and per-auditor
// hypertap_auditor_handle_seconds histograms.
func (m *Multiplexer) EnableTelemetry(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tel = &emTelemetry{
		reg:       reg,
		dropped:   reg.Counter("hypertap_events_dropped_total"),
		depth:     reg.Gauge("hypertap_async_queue_depth"),
		highWater: reg.Gauge("hypertap_async_queue_highwater"),
	}
	reg.CounterFunc("hypertap_events_published_total", m.Published)
	for id := range m.vms {
		m.registerVMSeriesLocked(VMID(id))
	}
	for _, s := range m.subs {
		s.hist = m.tel.reg.Histogram("hypertap_auditor_handle_seconds",
			telemetry.L("auditor", s.auditor.Name()))
	}
	m.rebuildRoutesLocked()
}

// rebuildRoutesLocked computes a fresh routing table from the current
// subscriptions and attached VMs and installs it. Caller holds the EM lock;
// the replaced table is left as it was, so a publisher still delivering
// from it keeps a consistent view.
func (m *Multiplexer) rebuildRoutesLocked() {
	rt := new(routeTable)
	rt.rebuild(m.subs, len(m.vms))
	m.routes = rt
}

// registerVMSeriesLocked registers the {vm=name} published-events series for
// one attached VM. The fn is snapshot-time only: it takes the EM lock, which
// is the documented CounterFunc pattern (scrapes pay the lock, Publish pays
// a plain array increment it already owns the lock for). A slot keeps its
// name for the EM's lifetime, so the series reads the slot directly.
func (m *Multiplexer) registerVMSeriesLocked(id VMID) {
	m.tel.reg.CounterFunc("hypertap_events_published_total", func() uint64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.pubByVM[id]
	}, telemetry.L("vm", m.vms[id]))
}

// NewMultiplexer creates an empty EM: no subscribers and no VMs. Events
// route only once their VM is attached (AttachVM).
func NewMultiplexer() *Multiplexer {
	return &Multiplexer{routes: new(routeTable)}
}

// DefaultQueueCap is the per-auditor async queue cap: how many events an
// async auditor may have queued before the EM drops further events for it.
// The cap bounds how far an auditor may fall behind; it is not allocated up
// front, because each ring grows with its traffic (see subscription.ring).
const DefaultQueueCap = 4096

// initialRing is the slot count an async ring starts with, when its cap is
// larger: enough for a light auditor never to grow, small enough that an
// idle one costs a few KiB instead of its cap.
const initialRing = 16

// Register subscribes an auditor under the scope it declares via the
// VMScoped interface, fleet-wide otherwise: per-VM auditors (GOSHD, HRKD,
// the Ninjas) carry their own VM binding, and a fleet-wide one receives
// every attached VM's events. queueCap bounds the async queue (0 means
// DefaultQueueCap); events beyond it are dropped and counted, matching the
// non-blocking forwarding design.
func (m *Multiplexer) Register(a Auditor, mode DeliveryMode, queueCap int) error {
	scope := ScopeFleet()
	if s, ok := a.(VMScoped); ok {
		scope = s.VMScope()
	}
	return m.RegisterScoped(a, scope, mode, queueCap)
}

// RegisterScoped subscribes an auditor for one VM's events (ScopeVM) or the
// whole fleet's (ScopeFleet). A VM scope must name an attached VM.
func (m *Multiplexer) RegisterScoped(a Auditor, scope VMScope, mode DeliveryMode, queueCap int) error {
	if a == nil {
		return fmt.Errorf("core: Register called with nil auditor")
	}
	if mode != DeliverSync && mode != DeliverAsync {
		return fmt.Errorf("core: invalid delivery mode %v", mode)
	}
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !scope.fleet && int(scope.vm) >= len(m.vms) {
		return fmt.Errorf("core: scope %v names an unattached VM (%d attached)", scope, len(m.vms))
	}
	for _, s := range m.subs {
		if s.auditor == a {
			return fmt.Errorf("core: auditor %q already registered", a.Name())
		}
	}
	sub := &subscription{auditor: a, mode: mode, mask: a.Mask(), scope: scope}
	sub.actorBit = 1 << m.actorLocked(a.Name())
	if mode == DeliverAsync {
		sub.queueCap = queueCap
		sub.ring = make([]Event, min(queueCap, initialRing))
		// The batched fast path only applies to drained (async) claims; sync
		// delivery stays event-major so cross-auditor ordering per event is
		// preserved exactly.
		if ba, ok := a.(BatchAuditor); ok {
			sub.batch = ba
		}
	}
	if m.tel != nil {
		sub.hist = m.tel.reg.Histogram("hypertap_auditor_handle_seconds",
			telemetry.L("auditor", a.Name()))
	}
	m.subs = append(m.subs, sub)
	m.rebuildRoutesLocked()
	return nil
}

// Unregister removes an auditor; pending queued events are discarded and
// the async depth accounting (and its gauge, when telemetry is on) shrinks
// with them. An auditor may unregister itself from inside its own handler:
// the claim being delivered completes, and nothing after it is delivered.
func (m *Multiplexer) Unregister(a Auditor) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range m.subs {
		if s.auditor == a {
			// A claim being delivered already left the depth at claim time;
			// only the unclaimed rest is discarded here.
			pending := s.count - s.claimed
			m.asyncDepth -= pending
			if m.tel != nil && pending > 0 {
				m.tel.depth.Set(float64(m.asyncDepth))
			}
			m.subs = append(m.subs[:i], m.subs[i+1:]...)
			m.rebuildRoutesLocked()
			return true
		}
	}
	return false
}

// actorOverflow is the shared actor ID handed out once the 62 dedicated IDs
// (1..62) are taken; its flight-record bit means "one of the tail auditors".
const actorOverflow = 63

// actorLocked resolves an auditor name to its stable actor ID, assigning the
// next free one on first sight. Caller holds the EM lock.
func (m *Multiplexer) actorLocked(name string) uint8 {
	if m.actorIDs == nil {
		m.actorIDs = make(map[string]uint8)
		m.actorNames = append(m.actorNames, "em")
	}
	if id, ok := m.actorIDs[name]; ok {
		return id
	}
	id := uint8(len(m.actorNames))
	if id >= actorOverflow {
		id = actorOverflow
		if len(m.actorNames) == actorOverflow {
			m.actorNames = append(m.actorNames, "overflow")
		}
	} else {
		m.actorNames = append(m.actorNames, name)
	}
	m.actorIDs[name] = id
	return id
}

// ActorNames returns the actor-ID → auditor-name table backing the flight
// records' bitmasks. Index 0 is the EM/system actor; the final slot, when
// present, is the shared overflow bucket.
func (m *Multiplexer) ActorNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.actorNames) == 0 {
		return []string{"em"}
	}
	out := make([]string, len(m.actorNames))
	copy(out, m.actorNames)
	return out
}

// ActorID resolves an auditor name to its actor ID.
func (m *Multiplexer) ActorID(name string) (uint8, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.actorIDs[name]
	return id, ok
}

// SetFlight attaches (or, with nil, detaches) a flight recorder, growing it
// to one ring per attached VM; later AttachVM calls grow it further. A table
// belongs to one EM. Like SetSampler it is safe at any time: Publish and
// Dispatch snapshot the table under the EM lock.
func (m *Multiplexer) SetFlight(fl *FlightTable) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fl != nil {
		fl.grow(len(m.vms))
	}
	m.fl = fl
}

// Flight returns the attached flight recorder, nil when tracing is off.
func (m *Multiplexer) Flight() *FlightTable {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fl
}

// FlightExits snapshots VM vm's flight ring oldest-first; nil when tracing
// is off or vm is not attached. Taking the EM lock is what makes the copy
// sound: the rings' only writer runs under it. The records' Sync masks are
// derived here from the routing table — exactly the lookup Publish used at
// delivery time — instead of being stored per event.
func (m *Multiplexer) FlightExits(vm VMID) []FlightExit {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fl == nil || int(vm) >= len(m.vms) {
		return nil
	}
	return m.fl.exitsOf(vm, m.syncBitsLocked)
}

// syncBitsLocked resolves the synchronous-delivery actor mask for a recorded
// (VM, event type) pair — the same routing-table load Publish performs, so a
// snapshot reconstructs each record's sync fan-out without the hot path ever
// storing it. Callers hold the EM lock.
func (m *Multiplexer) syncBitsLocked(vm VMID, et EventType) uint64 {
	return m.routes.vmFor(vm).syncBits[routeIndex(et)]
}

// RecordSpan appends one step to the span ring under the EM lock — the
// entry point for the cold phases (verdicts, incident capture, tests) whose
// callers do not already hold it. No-op when tracing is off.
func (m *Multiplexer) RecordSpan(span SpanID, vm VMID, phase FlightPhase, actor uint8, at time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fl.RecordSpan(span, vm, phase, actor, at)
}

// FlightSpans snapshots the span ring oldest-first. As with FlightExits, the
// EM lock is what makes the copy sound against the single writer.
func (m *Multiplexer) FlightSpans() []SpanRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fl == nil {
		return nil
	}
	return m.fl.Spans()
}

// SetSampler installs the RHC feed: fn receives every n-th published event.
// It is safe to call at any time, including while Publish and Dispatch run
// concurrently: the sampler pair is written under the EM lock and Publish
// snapshots it under the same lock before invoking it unlocked, so an
// in-flight publish uses either the old feed or the new one, never a torn
// mix of fn and cadence. (The race suite pins this with
// TestSetSamplerDuringDispatch.)
func (m *Multiplexer) SetSampler(n uint64, fn func(ev *Event)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sampler = fn
	m.sampleEvery = n
}

// Publish delivers one event: synchronous subscribers run inline (vCPU still
// suspended); asynchronous subscribers get a queued copy. It is the
// batch-of-one form of PublishBatch — the two are byte-equivalent in every
// observable (counters, rings, spans, delivery order), a property the
// equivalence suite pins.
//
//hypertap:hotpath
func (m *Multiplexer) Publish(ev *Event) {
	// One event viewed as a one-element slice: no copy, no allocation.
	m.PublishBatch(unsafe.Slice(ev, 1))
}

// syncBufCap bounds PublishBatch's stack buffer of resolved sync slot
// lists: batches up to this size (including every batch-of-one Publish)
// resolve routes once per event; larger batches re-resolve in the delivery
// loop. Kept small because the buffer is zeroed on every call.
const syncBufCap = 8

// PublishBatch delivers evs in order, amortizing the EM lock, flight
// recording, and telemetry over the whole batch, and returns the number of
// synchronous deliveries it made — the figure the hypervisor prices
// blocking audits with, handed back so the exit path needs no second EM
// lock round trip to read it. Batching is transparent: PublishBatch(evs)
// leaves every observable — published counters, async rings, flight exit
// and span rings, sync delivery order, RHC sampler feed, latency-sampling
// cadence — byte-identical to publishing each event alone, so batch
// boundaries (an EF decode run, a replay grouping) are unobservable
// downstream.
//
// Every event's VM must be attached, the rule that makes slot i VMID i in
// the routing and flight tables. An event naming any other VMID is a
// publisher bug: PublishBatch releases the EM lock and panics, leaving the
// events before it in the batch accounted but undelivered.
//
// The locked phase runs once per batch: per-event accounting — publish and
// sync-delivery counters, async queueing, exit-ring recording — with the
// depth gauges folded once at the end. Delivery then runs outside the lock,
// event-major: each event's sampler feed (if it is a sampled index) and
// synchronous handlers run before the next event's, exactly as N serial
// publishes would.
func (m *Multiplexer) PublishBatch(evs []Event) (syncRuns int) {
	if len(evs) == 0 {
		return 0
	}
	// The sync slot lists resolved in the locked phase, carried to the
	// delivery phase so routes resolve once per event, not once per phase.
	// The table slices are immutable once installed, so holding them across
	// the unlock is sound; batches larger than the stack buffer re-resolve
	// in the delivery loop instead (the snapshot is the same rt either way).
	var syncBuf [syncBufCap][]*subscription
	m.mu.Lock() //hypertap:allow hotpath the EM is the multi-producer fan-out point; one lock acquisition covers the whole batch
	rt := m.routes
	tel := m.tel
	fl := m.fl
	sampler := m.sampler
	sampleEvery := m.sampleEvery
	startPub := m.published
	queuedAny := false
	for i := range evs {
		ev := &evs[i]
		if int(ev.VM) >= len(rt.perVM) {
			m.unattachedLocked(ev.VM)
		}
		m.published++
		m.pubByVM[ev.VM]++
		// Indexed routing on (VMID, event type) against the table loaded
		// above; rebuilds swap the field under the EM lock we hold, so rt is
		// current for the entire locked phase.
		vt := rt.vmFor(ev.VM)
		slot := routeIndex(ev.Type)
		// Sync delivery accounting, counted where published is counted: at
		// publish time, under the same single lock acquisition. The delivery
		// loop below cannot fail to run (the table is immutable and the
		// handlers are plain calls), so counting here is value-identical to a
		// post-delivery fold and saves the second lock round-trip per batch.
		syncSubs := vt.sync[slot]
		if i < syncBufCap {
			syncBuf[i] = syncSubs
		}
		if len(syncSubs) != 0 {
			for _, s := range syncSubs {
				s.delivered++
			}
			syncRuns += len(syncSubs)
		}
		var queuedBits, droppedBits uint64
		for _, s := range vt.async[slot] {
			if s.count == len(s.ring) {
				if s.count == s.queueCap {
					s.dropped++
					droppedBits |= s.actorBit
					if tel != nil {
						tel.dropped.Inc()
					}
					continue
				}
				s.grow()
			}
			s.ring[s.wrap(s.head+s.count)] = *ev
			s.count++
			s.queued++
			m.asyncDepth++
			queuedBits |= s.actorBit
			queuedAny = true
		}
		// Flight recording stores only the dynamic per-event facts (the two
		// async bitmask ORs above plus span/time/digest/meta); the
		// synchronous fan-out is a routing-table function of (VM, type) and
		// is derived at snapshot time (syncBitsLocked), so the recorder
		// never walks subscribers and never stores what the table already
		// knows. The record doubles as the span's decode step — this is
		// where the forwarder's minted identity enters the pipeline.
		if fl != nil {
			fl.recordExit(ev, queuedBits, droppedBits)
		}
	}
	// The depth gauges only move when something was queued, and once per
	// batch; the published total is a snapshot-time CounterFunc, so the
	// sync-only instrumented path adds no atomics at all.
	if tel != nil && queuedAny {
		depth := float64(m.asyncDepth)
		tel.depth.Set(depth)
		tel.highWater.SetMax(depth)
	}
	m.syncDelivered += uint64(syncRuns)
	m.mu.Unlock()

	// Delivery outside the lock, event-major: auditors may call back into
	// the EM (e.g., to pause the VM through their GuestView). Event i's
	// sampler feed and synchronous handlers complete before event i+1's
	// begin — the same interleaving N serial publishes produce, which is
	// what keeps heartbeat and verdict span steps in serial order.
	feed := sampler != nil && sampleEvery > 0
	for i := range evs {
		ev := &evs[i]
		n := startPub + uint64(i) + 1
		if feed && n%sampleEvery == 0 {
			m.sampleOne(sampler, ev) //hypertap:allow lockdiscipline the sampler span step locks once per sampleEvery published events, not per event; the helper is outlined so the batch loop itself stays lock-free
		}
		var syncSubs []*subscription
		if i < syncBufCap {
			syncSubs = syncBuf[i]
		} else {
			syncSubs = rt.vmFor(ev.VM).sync[routeIndex(ev.Type)]
		}
		if len(syncSubs) == 0 {
			continue
		}
		if tel != nil && n%latencySampleEvery == 0 {
			// Chained clock reads: n+1 reads time n handlers back to back.
			prev := time.Now() //hypertap:allow wallclock latency sampling measures real handler cost (every 256th event)
			for _, s := range syncSubs {
				s.auditor.HandleEvent(ev)
				now := time.Now() //hypertap:allow wallclock latency sampling measures real handler cost (every 256th event)
				if s.hist != nil {
					s.hist.Observe(now.Sub(prev))
				}
				prev = now
			}
		} else {
			for _, s := range syncSubs {
				s.auditor.HandleEvent(ev)
			}
		}
	}
	return syncRuns
}

// unattachedLocked panics on a published VMID no one attached, after
// releasing the EM lock, so a caller that recovers — raising an incident
// bundle from the flight rings — can still use the EM. Kept out of line so the
// formatting stays off the publish path.
//
//go:noinline
func (m *Multiplexer) unattachedLocked(vm VMID) {
	n := len(m.vms)
	m.mu.Unlock()
	//hypertap:allow hotpath cold: panics on a publisher bug
	panic(fmt.Sprintf("core: published event names VM %d, but %d VMs are attached", vm, n)) //hypertap:allow allocproof same cold panic
}

// evPool recycles the sampler's scratch copies. The RHC feed runs unlocked,
// so it needs a copy the publisher's buffer cannot invalidate; drawing it
// from a pool (instead of a stack copy that escapes into the sampler
// closure) is what keeps the batched publish path at 0 allocs/op.
var evPool = sync.Pool{New: newPoolEvent}

// newPoolEvent is evPool's allocator, outlined so the heap allocation lives
// in a cold non-hot-path function allocproof never has to excuse.
func newPoolEvent() any { return new(Event) }

// sampleOne feeds one sampled event to the RHC: the event is copied into a
// pooled scratch event (the sampler must not retain it), the feed runs
// unlocked — it does real I/O — and the heartbeat span step is then recorded
// under the EM lock the span ring's single-writer contract requires. Called
// once per sampleEvery published events, so its lock acquisition amortizes
// to nothing on the batch path; this replaces serial Publish's
// unlock/sample/relock round-trip inside the locked section.
func (m *Multiplexer) sampleOne(sampler func(ev *Event), ev *Event) {
	c := evPool.Get().(*Event)
	*c = *ev
	sampler(c)
	//hypertap:allow hotpath 1-in-sampleEvery heartbeat: the span ring's single writer is the EM lock holder
	m.mu.Lock()
	m.fl.RecordSpan(c.Span, c.VM, PhaseHeartbeat, 0, c.Time)
	m.mu.Unlock()
	evPool.Put(c)
}

// grow doubles s's full ring, up to its cap, into a fresh array with the
// queue — a claimed prefix included — copied unwrapped to slot 0. Caller
// holds the EM lock, and s.count == len(s.ring) < s.queueCap. A claim being
// delivered outside the lock keeps reading the old array, which nothing
// writes again; its release then advances head over the copied prefix of
// the new one. Outlined so the allocation stays off the publish path.
//
//go:noinline
func (s *subscription) grow() {
	//hypertap:allow allocproof cold: a full async ring doubles at most log2(queueCap) times per subscription
	ring := make([]Event, min(2*len(s.ring), s.queueCap))
	n := copy(ring, s.ring[s.head:])
	copy(ring[n:], s.ring[:s.head])
	s.ring = ring
	s.head = 0
}

// wrap folds a ring index in [0, 2*len(ring)) back into the ring: one
// compare and subtract instead of an integer division per queued copy.
func (s *subscription) wrap(i int) int {
	if i >= len(s.ring) {
		i -= len(s.ring)
	}
	return i
}

// dispatchSeg is one subscriber's claim within a Dispatch pass: the n
// events queued at ring[head:], wrapping at the ring end, delivered to s in
// place outside the lock. ring is s.ring as of the claim: a publish may
// grow s.ring while the claim is delivered, so delivery reads the array the
// claim was made in. off is the claim's running index within the pass,
// which keeps the latency-sampling cadence across segments.
type dispatchSeg struct {
	s    *subscription
	ring []Event
	head int
	n    int
	off  int
}

// Dispatch drains up to max queued events per async subscriber (max <= 0
// drains everything) and returns the number of events delivered. The
// starting subscriber rotates between calls so that bounded drains (max > 0)
// do not deliver early registrants' backlogs strictly ahead of late
// registrants' every time. The hypervisor calls this between ticks; an
// auditing container goroutine may also call it.
//
// Delivery is segment-major, as it always was: each subscriber's claimed
// events are delivered contiguously in queue order, straight out of its
// ring — the copy made at publish time is the only one. A subscriber that
// implements BatchAuditor gets its claim as one HandleBatch call, or two
// when the claim wraps the ring end — same events, same order, one
// auditor-side lock instead of k.
//
// A claim holds its slots until the next lock acquisition of the same
// Dispatch releases it (the next pass's, or a bounded drain's final one),
// so a drain takes no more lock round trips than a copying one would. A
// subscription with a claim outstanding is busy: a concurrent Dispatch
// skips it, so one auditor never sees two deliveries overlap or reorder.
// A publish that grows the ring meanwhile copies the claimed prefix to the
// new ring's front and leaves the old array untouched; the claim is
// delivered from the old array, the one its segment carries, and its
// release applies to the new ring.
// All accounting — delivered counts, async depth and its gauge — happens at
// claim time. A drain records no span step: the event's exit record already
// names every auditor it was queued for, at the event's own virtual time.
//
// The segment list is retained on the Multiplexer between calls, so a
// steady-state drain loop performs no allocations; a goroutine adopting it
// detaches it first, so concurrent Dispatch calls fall back to their own
// lists instead of sharing.
func (m *Multiplexer) Dispatch(max int) int {
	total := 0
	m.mu.Lock()
	segs := m.scratch
	m.scratch = nil
	for pass := 0; ; pass++ {
		// Release the previous pass's claims: those slots are delivered, so
		// publishers may reuse them and other drains may claim again.
		for _, g := range segs {
			s := g.s
			s.head = s.wrap(s.head + g.n)
			s.count -= g.n
			s.claimed = 0
		}
		// The retained list must not keep a ring a publish has since
		// replaced alive until the next drain.
		clear(segs)
		segs = segs[:0]
		claimed := 0
		tel := m.tel
		if pass == 0 || max <= 0 {
			n := len(m.subs)
			start := 0
			if n > 0 {
				start = m.rrStart % n
				m.rrStart++
			}
			for i := 0; i < n; i++ {
				s := m.subs[(start+i)%n]
				if s.mode != DeliverAsync || s.claimed != 0 {
					continue
				}
				k := s.count
				if max > 0 && k > max {
					k = max
				}
				if k == 0 {
					continue
				}
				segs = append(segs, dispatchSeg{s: s, ring: s.ring, head: s.head, n: k, off: claimed})
				s.claimed = k
				s.delivered += uint64(k)
				m.asyncDepth -= k
				claimed += k
			}
			if tel != nil && claimed > 0 {
				tel.depth.Set(float64(m.asyncDepth))
			}
		}
		if claimed == 0 {
			if m.scratch == nil {
				m.scratch = segs
			}
			m.mu.Unlock()
			return total
		}
		m.mu.Unlock()
		for _, g := range segs {
			s := g.s
			if end := g.head + g.n; end <= len(g.ring) {
				s.deliver(g.ring[g.head:end], g.off, tel)
			} else {
				first := len(g.ring) - g.head
				s.deliver(g.ring[g.head:], g.off, tel)
				s.deliver(g.ring[:g.n-first], g.off+first, tel)
			}
		}
		total += claimed
		m.mu.Lock()
	}
}

// deliver hands evs, a run of s's own ring, to the auditor outside the EM
// lock; off is evs[0]'s running index within the Dispatch pass, the
// latency-sampling cadence.
func (s *subscription) deliver(evs []Event, off int, tel *emTelemetry) {
	if s.batch != nil {
		s.batch.HandleBatch(evs)
		return
	}
	for j := range evs {
		if tel != nil && s.hist != nil && (off+j)%latencySampleEvery == 0 {
			start := time.Now() //hypertap:allow wallclock latency sampling measures real handler cost (every 256th drain)
			s.auditor.HandleEvent(&evs[j])
			s.hist.Observe(time.Since(start)) //hypertap:allow wallclock latency sampling measures real handler cost (every 256th drain)
		} else {
			s.auditor.HandleEvent(&evs[j])
		}
	}
}

// Stats returns delivery accounting per subscription.
func (m *Multiplexer) Stats() []SubscriptionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SubscriptionStats, 0, len(m.subs))
	for _, s := range m.subs {
		out = append(out, SubscriptionStats{
			Auditor:   s.auditor.Name(),
			Mode:      s.mode,
			Scope:     s.scope,
			Delivered: s.delivered,
			Queued:    s.queued,
			Dropped:   s.dropped,
		})
	}
	return out
}

// Published returns the total number of events published.
func (m *Multiplexer) Published() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.published
}

// SyncDelivered returns the total synchronous deliveries summed across all
// subscriptions — the same figure summing Stats() would give, without the
// walk or the allocation.
func (m *Multiplexer) SyncDelivered() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncDelivered
}

// AuditorFunc adapts a function (with name and mask) to the Auditor
// interface, for lightweight policies and tests.
type AuditorFunc struct {
	AuditorName string
	EventMask   EventMask
	Fn          func(ev *Event)
}

// Name implements Auditor.
func (a *AuditorFunc) Name() string { return a.AuditorName }

// Mask implements Auditor.
func (a *AuditorFunc) Mask() EventMask { return a.EventMask }

// HandleEvent implements Auditor.
func (a *AuditorFunc) HandleEvent(ev *Event) { a.Fn(ev) }

var _ Auditor = (*AuditorFunc)(nil)
