package obs

import (
	"math"
	"sync"
	"testing"
)

// TestBucketIndexBoundsRoundTrip: every bucket's [lower, upper] range
// maps back to that bucket, ranges tile the int64 line with no gaps,
// and widths respect the 1/8 relative-error budget.
func TestBucketIndexBoundsRoundTrip(t *testing.T) {
	prevUpper := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevUpper+1 && lo != math.MaxInt64 {
			t.Fatalf("bucket %d: lower %d leaves a gap after %d", i, lo, prevUpper)
		}
		if lo != math.MaxInt64 {
			prevUpper = hi
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lower %d) = %d, want %d", lo, got, i)
		}
		if hi != math.MaxInt64 {
			if got := bucketIndex(hi); got != i {
				t.Fatalf("bucketIndex(upper %d) = %d, want %d", hi, got, i)
			}
		}
		if lo >= histSubBuckets && hi != math.MaxInt64 {
			if width := hi - lo + 1; float64(width) > float64(lo)/float64(histSubBuckets)+1 {
				t.Fatalf("bucket %d [%d,%d] wider than lower/8", i, lo, hi)
			}
		}
	}
	if got := bucketIndex(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("MaxInt64 lands in bucket %d, want %d", got, histBuckets-1)
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("negative value lands in bucket %d, want 0", got)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines and checks nothing is lost (the atomics' whole job).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(unitSeconds)
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	var s HistSnapshot
	h.Snapshot(&s)
	if s.Count != workers*per {
		t.Fatalf("count %d, want %d", s.Count, workers*per)
	}
	var bucketSum uint64
	for _, c := range s.Buckets {
		bucketSum += c
	}
	if bucketSum != workers*per {
		t.Fatalf("bucket sum %d, want %d", bucketSum, workers*per)
	}
	if want := int64(workers*per) * (workers*per - 1) / 2; s.Sum != want {
		t.Fatalf("sum %d, want %d", s.Sum, want)
	}
}

// TestCountAtMostSingleValue: CountAtMost is exact at bucket upper
// bounds, empty and around a single value.
func TestCountAtMostSingleValue(t *testing.T) {
	h := newHistogram(unitCount)
	var s HistSnapshot
	h.Snapshot(&s)
	if s.CountAtMost(1<<40) != 0 {
		t.Fatal("empty histogram counts an observation")
	}
	h.Observe(42)
	h.Snapshot(&s)
	// 42 lives in the bucket [40, 43]; CountAtMost is exact at bucket
	// upper bounds (39 and 43 here), which is what the exposition uses.
	if s.CountAtMost(39) != 0 || s.CountAtMost(43) != 1 || s.CountAtMost(1<<40) != 1 {
		t.Fatal("CountAtMost wrong around single value")
	}
}
