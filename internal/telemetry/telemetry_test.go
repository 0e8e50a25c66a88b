package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("events_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("depth")
	g.Set(3.5)
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	g.SetMax(1) // below current: no-op
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge after SetMax(1) = %v, want 2", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after SetMax(9) = %v, want 9", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", L("x", "1"))
	b := reg.Counter("c", L("x", "1"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := reg.Counter("c", L("x", "2"))
	if a == other {
		t.Fatal("different labels must return a different counter")
	}
	// Label order must not matter.
	h1 := reg.Histogram("h", L("a", "1"), L("b", "2"))
	h2 := reg.Histogram("h", L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order must not change identity")
	}
}

func TestCounterFunc(t *testing.T) {
	reg := NewRegistry()
	n := uint64(0)
	reg.CounterFunc("produced_total", func() uint64 { return n })
	n = 7
	snap := reg.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Fatalf("snapshot = %+v, want produced_total=7", snap.Counters)
	}
	// The base counter still accumulates (Absorb, direct Add) and the
	// snapshot reports the sum.
	reg.Counter("produced_total").Add(3)
	if v := reg.Snapshot().Counters[0].Value; v != 10 {
		t.Fatalf("fn+base = %d, want 10", v)
	}
	// A kind collision is still caught.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering a CounterFunc over a gauge")
		}
	}()
	reg.Gauge("g")
	reg.CounterFunc("g", func() uint64 { return 0 })
}

// TestCounterFuncMayTakeProducerLock pins the lock-order contract: the fn
// runs without the registry lock held, so a producer that registers metrics
// while holding its own lock can also expose a CounterFunc that takes it.
func TestCounterFuncMayTakeProducerLock(t *testing.T) {
	reg := NewRegistry()
	var mu sync.Mutex
	count := uint64(0)
	reg.CounterFunc("locked_total", func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		return count
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			mu.Lock()
			count++
			reg.Counter("other_total").Inc() // producer lock -> registry lock
			mu.Unlock()
		}
	}()
	for i := 0; i < 100; i++ {
		reg.Snapshot() // registry lock released before fn -> producer lock
	}
	<-done
	if v := reg.Snapshot().Counters[0].Value; v != 100 {
		t.Fatalf("locked_total = %d, want 100", v)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	reg.Gauge("m")
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations spread 1..1000 µs: p50 ≈ 500µs, p99 ≈ 990µs
	// within log-bucket (2x) resolution.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Max != 1000*time.Microsecond {
		t.Fatalf("max = %v, want 1ms", s.Max)
	}
	checkWithin := func(name string, got, want time.Duration) {
		t.Helper()
		if got < want/2 || got > want*2 {
			t.Errorf("%s = %v, want within 2x of %v", name, got, want)
		}
	}
	checkWithin("p50", s.Quantile(0.5), 500*time.Microsecond)
	checkWithin("p90", s.Quantile(0.9), 900*time.Microsecond)
	checkWithin("p99", s.Quantile(0.99), 990*time.Microsecond)
	if q := s.Quantile(1.0); q > s.Max {
		t.Errorf("p100 = %v exceeds max %v", q, s.Max)
	}
	if got := s.Mean(); got < 250*time.Microsecond || got > time.Millisecond {
		t.Errorf("mean = %v, want ~500µs", got)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("zero/negative handling: count=%d sum=%v max=%v", s.Count, s.Sum, s.Max)
	}
	if q := s.Quantile(0.99); q != 0 {
		t.Fatalf("quantile of all-zero histogram = %v, want 0", q)
	}
}

// TestHistogramSnapshotMerge folds two histograms' snapshots into one
// registry through Absorb, the one merge path campaigns use.
func TestHistogramSnapshotMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(time.Microsecond)
		b.Observe(time.Millisecond)
	}
	sb := b.Snapshot()
	r := NewRegistry()
	for _, hs := range []HistogramSnapshot{a.Snapshot(), sb} {
		hs.Name = "lat"
		r.Absorb(Snapshot{Histograms: []HistogramSnapshot{hs}})
	}
	sa := r.Snapshot().Histograms[0]
	if sa.Count != 200 {
		t.Fatalf("merged count = %d, want 200", sa.Count)
	}
	if sa.Max != sb.Max {
		t.Fatalf("merged max = %v, want %v", sa.Max, sb.Max)
	}
	wantSum := 100*time.Microsecond + 100*time.Millisecond
	if sa.Sum != wantSum {
		t.Fatalf("merged sum = %v, want %v", sa.Sum, wantSum)
	}
	// Half the mass is ~1µs, half ~1ms: p90 must land in the upper mode.
	if p90 := sa.Quantile(0.9); p90 < 500*time.Microsecond || sa.P90 != sa.Quantile(0.9) {
		t.Fatalf("merged p90 = %v (field %v), want ≥ 500µs", sa.Quantile(0.9), sa.P90)
	}
}

// TestSnapshotMergeAcrossRegistries folds two registries' snapshots into a
// fresh one through Absorb: counters and histograms sum, gauges keep the
// maximum, and series unique to either registry survive.
func TestSnapshotMergeAcrossRegistries(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("shared").Add(3)
	r2.Counter("shared").Add(4)
	r2.Counter("only2").Add(7)
	r1.Gauge("hw").Set(5)
	r2.Gauge("hw").Set(2)
	r1.Histogram("lat").Observe(time.Millisecond)
	r2.Histogram("lat").Observe(3 * time.Millisecond)

	merged := NewRegistry()
	merged.Absorb(r1.Snapshot())
	merged.Absorb(r2.Snapshot())
	s := merged.Snapshot()
	byName := map[string]uint64{}
	for _, c := range s.Counters {
		byName[c.Name] = c.Value
	}
	if byName["shared"] != 7 || byName["only2"] != 7 {
		t.Fatalf("merged counters = %v", byName)
	}
	if s.Gauges[0].Value != 5 {
		t.Fatalf("merged gauge = %v, want max 5", s.Gauges[0].Value)
	}
	if s.Histograms[0].Count != 2 || s.Histograms[0].Max != 3*time.Millisecond {
		t.Fatalf("merged histogram: count=%d max=%v", s.Histograms[0].Count, s.Histograms[0].Max)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hypertap_events_published_total").Add(42)
	reg.Histogram("hypertap_auditor_handle_seconds", L("auditor", "goshd")).Observe(time.Microsecond)
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 42 {
		t.Fatalf("counters after round trip: %+v", back.Counters)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 1 {
		t.Fatalf("histograms after round trip: %+v", back.Histograms)
	}
	if back.Histograms[0].Labels[0] != L("auditor", "goshd") {
		t.Fatalf("labels after round trip: %+v", back.Histograms[0].Labels)
	}
}

func TestConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	h := reg.Histogram("lat")
	g := reg.Gauge("hw")
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(time.Duration(i%1000) * time.Nanosecond)
				g.SetMax(float64(w*per + i))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per-1 {
		t.Fatalf("high-water gauge = %v, want %d", got, workers*per-1)
	}
}
