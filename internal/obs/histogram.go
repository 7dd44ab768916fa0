package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: one bucket per exposition bound, the
// powers of four 2^10 … 2^34 ns (≈1µs to ≈17s), plus an overflow
// bucket. Bucket i holds the observations v with bound(i-1) < v ≤
// bound(i), so a cumulative sum over buckets is exactly the inclusive
// ≤ count a Prometheus le series exposes.
const (
	histMinExp  = 10
	histBounds  = 13
	histBuckets = histBounds + 1
)

// bucketBound returns bucket i's inclusive upper bound in nanoseconds.
func bucketBound(i int) int64 { return 1 << (histMinExp + 2*i) }

// bucketIndex maps a value to its bucket: the first bound ≥ v, or the
// overflow bucket past the last. Values ≤ 2^10 (negatives too) land in
// bucket 0.
func bucketIndex(v int64) int {
	if v <= 1<<histMinExp {
		return 0
	}
	// v ≤ 2^k exactly when bits.Len64(v-1) ≤ k.
	return min((bits.Len64(uint64(v-1))-histMinExp+1)/2, histBounds)
}

// Histogram is a fixed-size log-bucketed latency distribution over
// nanosecond observations. Observe is a handful of atomic adds into
// preallocated arrays: lock-free, allocation-free, safe on the search
// hot path. Readers go through Snapshot, never on the write path.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
}

// Observe records one value. Negative values clamp to zero (durations
// from a monotonic clock are never negative; a clamped zero is less
// wrong than a panic on the hot path).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets [histBuckets]uint64
}

// Snapshot copies the histogram's state into s. The copy is not a
// single atomic cut — observations landing mid-copy may be partially
// included — which is the standard, and for monitoring sufficient,
// trade for a lock-free write path.
func (h *Histogram) Snapshot(s *HistSnapshot) {
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.counts[i].Load()
	}
}

// CountAtMost returns how many observations were ≤ v, the cumulative
// count the Prometheus _bucket series expose. It is exact when v is a
// bucket bound (the exposition reads no other); between bounds it
// counts up to the largest bound ≤ v.
func (s *HistSnapshot) CountAtMost(v int64) uint64 {
	var n uint64
	for i := 0; i < histBounds && bucketBound(i) <= v; i++ {
		n += s.Buckets[i]
	}
	return n
}
