package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of logarithmic latency buckets. Bucket 0 holds
// zero-duration observations; bucket b (b >= 1) holds durations in
// [2^(b-1), 2^b) nanoseconds. 40 buckets reach 2^39 ns ≈ 9.2 minutes,
// far beyond any handler latency this system produces; larger values clamp
// into the last bucket.
const histBuckets = 40

// Histogram is a log-bucketed latency histogram. Observe is lock-free and
// allocation-free: one atomic add on the bucket, one on the running sum,
// and a CAS loop for the max (which almost always exits on the first load).
// Precision is the price: within a bucket the distribution is assumed
// uniform, so quantile estimates carry up-to-2x bucket resolution — the
// standard trade for a fixed-size, mergeable hot-path histogram.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns uint64) int {
	b := bits.Len64(ns)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper is the exclusive upper bound of a bucket in nanoseconds.
func bucketUpper(b int) uint64 {
	if b == 0 {
		return 0
	}
	return 1 << b
}

// bucketLower is the inclusive lower bound of a bucket in nanoseconds.
func bucketLower(b int) uint64 {
	if b == 0 {
		return 0
	}
	return 1 << (b - 1)
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// absorb adds a snapshot's buckets into the live histogram (the
// Registry.Absorb path). Unlike Observe it is not a hot-path operation:
// it runs once per campaign unit, off the measured paths.
func (h *Histogram) absorb(s HistogramSnapshot) {
	for b, n := range s.Buckets {
		if b >= histBuckets {
			b = histBuckets - 1
		}
		if n > 0 {
			h.buckets[b].Add(n)
		}
	}
	h.sum.Add(uint64(s.Sum))
	v := uint64(s.Max)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Snapshot copies the histogram state. Name and Labels are filled by the
// Registry.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: make([]uint64, histBuckets),
		Sum:     time.Duration(h.sum.Load()),
		Max:     time.Duration(h.max.Load()),
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.refreshQuantiles()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram; Registry.Absorb
// folds snapshots of the same metric together. P50/P90/P99 are precomputed
// for JSON consumers; Quantile serves arbitrary q.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Labels  []Label       `json:"labels,omitempty"`
	Count   uint64        `json:"count"`
	Sum     time.Duration `json:"sum_ns"`
	Max     time.Duration `json:"max_ns"`
	P50     time.Duration `json:"p50_ns"`
	P90     time.Duration `json:"p90_ns"`
	P99     time.Duration `json:"p99_ns"`
	Buckets []uint64      `json:"buckets"`
}

// Mean returns the average observation.
func (s *HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket, clamped to the observed maximum.
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := float64(bucketLower(b)), float64(bucketUpper(b))
			if max := float64(s.Max); hi > max && max >= lo {
				hi = max
			}
			est := lo + (hi-lo)*(rank-cum)/float64(n)
			return time.Duration(est)
		}
		cum = next
	}
	return s.Max
}

func (s *HistogramSnapshot) refreshQuantiles() {
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
}
