package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: 8 sub-buckets per power of two over the
// full non-negative int64 range. Bucket width is at most 1/8 of the
// bucket's lower bound, so any quantile read off the buckets is within
// ~12.5% of the exact sample quantile, without storing samples.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
	// Values 0..7 get exact buckets 0..7; above that each power of two
	// [2^e, 2^(e+1)) splits into 8, for e in [3, 62] (int64 values
	// never reach exponent 63). The last bucket's upper bound is
	// exactly MaxInt64.
	histBuckets = (63-histSubBits)*histSubBuckets + histSubBuckets
)

// bucketIndex maps a value to its bucket (negatives clamp to 0).
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSubBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // ≥ histSubBits
	return (exp-histSubBits+1)<<histSubBits + int((u>>(exp-histSubBits))&(histSubBuckets-1))
}

// bucketBounds returns the inclusive [lower, upper] value range of
// bucket i. The topmost buckets clamp to MaxInt64.
func bucketBounds(i int) (lower, upper int64) {
	if i < histSubBuckets {
		return int64(i), int64(i)
	}
	exp := i>>histSubBits + histSubBits - 1
	m := uint64(i & (histSubBuckets - 1))
	shift := uint(exp - histSubBits)
	lo := (histSubBuckets + m) << shift
	hi := lo + (uint64(1) << shift) - 1
	return int64(lo), int64(hi)
}

// unit selects how a histogram's raw int64 observations are exposed.
type unit int

const (
	// unitSeconds: observations are nanoseconds, exposed as seconds.
	unitSeconds unit = iota
	// unitCount: observations are unitless integers, exposed as-is.
	unitCount
)

// Histogram is a fixed-size log-bucketed distribution. Observe is a
// handful of atomic adds into preallocated arrays: lock-free,
// allocation-free, safe on the search hot path. Readers go through
// Snapshot, never on the write path.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	u      unit
}

func newHistogram(u unit) *Histogram { return &Histogram{u: u} }

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
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     int64
	Max     int64
	Buckets [histBuckets]uint64
}

// Snapshot copies the histogram's state into s. The copy is not a
// single atomic cut — observations landing mid-copy may be partially
// included — which is the standard, and for monitoring sufficient,
// trade for a lock-free write path.
func (h *Histogram) Snapshot(s *HistSnapshot) {
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.counts[i].Load()
	}
}

// CountAtMost returns how many observations were ≤ v — the cumulative
// count the Prometheus _bucket series expose. Exact whenever v is a
// bucket upper bound (the exposition bounds are chosen so it is).
func (s *HistSnapshot) CountAtMost(v int64) uint64 {
	var n uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		_, hi := bucketBounds(i)
		if hi <= v {
			n += c
		}
	}
	return n
}
