// Package telemetry is the monitoring stack's own instrumentation: a
// zero-dependency (stdlib-only) metrics registry with atomic counters,
// gauges and log-bucketed latency histograms.
//
// HyperTap's central argument is that a monitor must itself be monitorable —
// the Remote Health Checker exists because "who monitors the monitor"
// matters. This package extends that argument from liveness to performance:
// every load-bearing path (event multiplexing, exit dispatch, auditor
// policy checks) records into a Registry whose snapshots are exported as
// JSON or Prometheus text (see telemetry/httpexport).
//
// Design constraints, in order:
//
//  1. The hot-path record is lock-free: Counter.Inc and Gauge.Set are a
//     single atomic op, Histogram.Observe is a handful, and none of them
//     allocate. Instrumenting a path that fires per VM Exit must not
//     perturb the measurement.
//  2. Metric registration (Registry.Counter etc.) takes a lock and may
//     allocate; it happens at subscription/boot time, never per event.
//  3. Snapshots are plain values: mergeable, JSON-marshalable, and safe to
//     take while writers are recording.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {auditor goshd}.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64. The zero value is ready to
// use, but counters obtained from a Registry are exported.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. A single atomic add: safe on any hot path.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
//
//hypertap:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (queue depth, heartbeat age).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. A single atomic store.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update.
func (g *Gauge) SetMax(v float64) {
	for {
		cur := g.bits.Load()
		if v <= math.Float64frombits(cur) {
			return
		}
		if g.bits.CompareAndSwap(cur, math.Float64bits(v)) {
			return
		}
	}
}

// Add increments the gauge by delta (may be negative).
//
//hypertap:hotpath
func (g *Gauge) Add(delta float64) {
	for {
		cur := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(cur) + delta)
		if g.bits.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", uint8(k))
	}
}

// entry is one registered metric.
type entry struct {
	name   string
	labels []Label
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// counterFn, when set on a kindCounter entry, is read at snapshot time
	// and added to the base counter's value; see CounterFunc.
	counterFn func() uint64
}

// Registry holds named metrics. Lookups (Counter, Gauge, Histogram) are
// get-or-create and idempotent: asking twice for the same name+labels
// returns the same instrument, so independent components can share series.
// Asking for an existing name+labels with a different kind panics — that is
// a programming error, caught at registration time, never on the hot path.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	order   []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// metricID renders the canonical identity: name plus sorted labels.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the entry for name+labels with the given kind.
func (r *Registry) lookup(name string, kind metricKind, labels []Label) *entry {
	if name == "" {
		panic("telemetry: metric name must not be empty")
	}
	// An unlabeled series keeps nil, not an empty list: the snapshot's
	// omitempty drops an empty list, so only nil survives a JSON round trip.
	var sorted []Label
	if len(labels) > 0 {
		sorted = make([]Label, len(labels))
		copy(sorted, labels)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	}
	id := metricID(name, sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as %v, requested as %v", id, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: sorted, kind: kind}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	case kindHistogram:
		e.hist = &Histogram{}
	}
	r.entries[id] = e
	r.order = append(r.order, id)
	return e
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, kindCounter, labels).counter
}

// Gauge returns the gauge registered under name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, kindGauge, labels).gauge
}

// Histogram returns the histogram registered under name+labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, kindHistogram, labels).hist
}

// CounterFunc backs the counter registered under name+labels with fn,
// evaluated at snapshot time. It is for monotonic totals a producer already
// maintains under its own lock: instead of paying an atomic add per event
// on the producer's hot path, the cost moves to the (rare) scrape, and the
// scraped value is exact rather than lagging. fn must be safe to call from
// any goroutine and is invoked without the registry lock held, so it may
// take the producer's lock. The series keeps its base Counter: Absorb and
// direct Inc/Add still accumulate there, and snapshots report the sum of
// both — a fresh fn replaces any previous one.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	if fn == nil {
		panic("telemetry: CounterFunc with nil fn")
	}
	e := r.lookup(name, kindCounter, labels)
	r.mu.Lock()
	e.counterFn = fn
	r.mu.Unlock()
}

// CounterSnapshot is one counter's point-in-time value.
type CounterSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugeSnapshot is one gauge's point-in-time value.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Snapshot is a consistent-enough copy of every registered metric: each
// individual value is read atomically; the set is read under the registry
// lock. Snapshots marshal to JSON directly, and Registry.Absorb folds
// them together.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric, in registration order. The entry set and
// any counter fns are copied under the registry lock, then values are read
// outside it: instruments are atomics, and CounterFunc fns may take their
// producer's lock — which that producer may hold while registering metrics,
// so calling fns under the registry lock would invert the lock order.
func (r *Registry) Snapshot() Snapshot {
	type plan struct {
		e  *entry
		fn func() uint64
	}
	r.mu.Lock()
	plans := make([]plan, 0, len(r.order))
	for _, id := range r.order {
		e := r.entries[id]
		plans = append(plans, plan{e: e, fn: e.counterFn})
	}
	r.mu.Unlock()

	var s Snapshot
	for _, p := range plans {
		e := p.e
		switch e.kind {
		case kindCounter:
			v := e.counter.Value()
			if p.fn != nil {
				v += p.fn()
			}
			s.Counters = append(s.Counters, CounterSnapshot{Name: e.name, Labels: e.labels, Value: v})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugeSnapshot{Name: e.name, Labels: e.labels, Value: e.gauge.Value()})
		case kindHistogram:
			hs := e.hist.Snapshot()
			hs.Name = e.name
			hs.Labels = e.labels
			s.Histograms = append(s.Histograms, hs)
		}
	}
	return s
}

// Absorb folds a snapshot into the registry's live instruments: counters
// add the snapshot's value, gauges rise to it (high-water semantics, so a
// gauge only ever folded from negative values reads 0), histograms add its
// buckets. The intended use is sharded campaigns: each work unit records
// into its own registry, and the engine absorbs the unit's snapshot — a
// pure delta, since the shard was fresh — into a live registry that an
// HTTP exporter is serving, so /metrics shows campaign totals growing while
// the run is in flight, and into the fresh registry behind the campaign's
// result.
func (r *Registry) Absorb(s Snapshot) {
	for _, c := range s.Counters {
		r.Counter(c.Name, c.Labels...).Add(c.Value)
	}
	for _, g := range s.Gauges {
		r.Gauge(g.Name, g.Labels...).SetMax(g.Value)
	}
	for _, h := range s.Histograms {
		r.Histogram(h.Name, h.Labels...).absorb(h)
	}
}
