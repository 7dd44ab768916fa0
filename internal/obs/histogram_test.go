package obs

import (
	"math"
	"sync"
	"testing"
)

// TestBucketIndexBoundsRoundTrip: each bound is the inclusive top of
// its bucket (bound → bucket i, bound+1 → bucket i+1, the last into
// overflow), and negatives and MaxInt64 land in the end buckets.
func TestBucketIndexBoundsRoundTrip(t *testing.T) {
	type tc struct {
		v    int64
		want int
	}
	cases := []tc{{math.MinInt64, 0}, {-5, 0}, {0, 0}, {math.MaxInt64, histBounds}}
	for i := 0; i < histBounds; i++ {
		cases = append(cases, tc{bucketBound(i), i}, tc{bucketBound(i) + 1, i + 1})
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines and checks nothing is lost (the atomics' whole job).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := new(Histogram)
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

// TestCountAtMostSingleValue: CountAtMost is exact at the bucket
// bounds, empty and around a single value.
func TestCountAtMostSingleValue(t *testing.T) {
	h := new(Histogram)
	var s HistSnapshot
	h.Snapshot(&s)
	if s.CountAtMost(1<<40) != 0 {
		t.Fatal("empty histogram counts an observation")
	}
	h.Observe(5000)
	h.Snapshot(&s)
	// 5000 lives in the bucket (2^12, 2^14]; CountAtMost is exact at
	// those bounds, which is what the exposition uses.
	if s.CountAtMost(1<<12) != 0 || s.CountAtMost(1<<14) != 1 || s.CountAtMost(1<<40) != 1 {
		t.Fatal("CountAtMost wrong around single value")
	}
}
