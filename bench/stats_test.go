package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestSegmentCount(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 1}, {49, 1}, {120, 2}, {1999, 39}, {2000, 40}, {50000, 40}} {
		if got := segmentCount(c.n); got != c.want {
			t.Errorf("segmentCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSegmentBoundsCoverEveryOpOnce(t *testing.T) {
	for _, c := range []struct{ n, s int }{{1000, 10}, {1003, 10}, {7, 3}, {5, 1}} {
		next, lo, hi := 0, c.n, 0
		for _, b := range segmentBounds(c.n, c.s) {
			if b[0] != next {
				t.Fatalf("n=%d s=%d: segment starts at %d, want %d", c.n, c.s, b[0], next)
			}
			next = b[1]
			lo, hi = min(lo, b[1]-b[0]), max(hi, b[1]-b[0])
		}
		if next != c.n || hi-lo > 1 {
			t.Errorf("n=%d s=%d: covered %d ops, segment sizes %d..%d", c.n, c.s, next, lo, hi)
		}
	}
}

// measure feeds back-to-back ops of the given latencies (milliseconds)
// through a window, the way a workload's loop does. The system under
// test burns cpuShare CPU seconds per second of op time.
func measure(t *testing.T, latMS []float64, timed func(i int) bool, segments int, cpuShare, opsPerSample float64) windowStats {
	t.Helper()
	var now int64
	// between burns a CPU second at every boundary; none of it may be
	// charged to a segment.
	var burned float64
	w := newWindow(len(latMS), segments, func() (float64, error) { return burned + cpuShare*float64(now)/1e9, nil }, func() { burned++ })
	for i, ms := range latMS {
		if err := w.begin(i); err != nil {
			t.Fatal(err)
		}
		end := now + int64(ms*1e6)
		w.add(opSample{now, end, timed(i)})
		now = end
	}
	st, err := w.finish(opsPerSample)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func always(int) bool { return true }

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

func TestWindowSteady(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 2
	}
	w := measure(t, lat, always, 10, 1.5, 32)
	if len(w.segTput) != 10 || len(w.segCPU) != 10 {
		t.Fatalf("%d segments, want 10", len(w.segTput))
	}
	if !near(w.opsPerSec, 16000) || w.p50ms != 2 || w.p90ms != 2 {
		t.Errorf("got %.1f ops/s p50 %v p90 %v, want 16000, 2, 2", w.opsPerSec, w.p50ms, w.p90ms)
	}
	// 1.5 CPU-seconds per second over 2 ms requests of 32 ops each.
	if !near(w.cpuPerKop, 1.5*0.002/32*1000) {
		t.Errorf("cpu per 1000 ops = %v, want %v", w.cpuPerKop, 1.5*0.002/32*1000)
	}
}

// A neighbour that slows nine segments in ten must not move any metric:
// the quietest segment is the program's own speed.
func TestWindowReportsTheQuietestSegment(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 1 + float64(i%7)/2 // disturbed: 1..4 ms
		if i >= 300 && i < 400 {
			lat[i] = 1 // the quiet spell
		}
	}
	w := measure(t, lat, always, 10, 1, 1)
	if !near(w.opsPerSec, 1000) || w.p50ms != 1 || w.p90ms != 1 || !near(w.cpuPerKop, 1) {
		t.Errorf("got %.1f ops/s p50 %v p90 %v cpu %v, want 1000, 1, 1, 1", w.opsPerSec, w.p50ms, w.p90ms, w.cpuPerKop)
	}
	// A slowdown of the program itself reaches every segment.
	for i := range lat {
		lat[i] *= 1.2
	}
	if w := measure(t, lat, always, 10, 1, 1); !near(w.p50ms, 1.2) || !near(w.opsPerSec, 1000/1.2) {
		t.Errorf("20%% slower program: p50 %v at %.1f ops/s, want 1.2 at %.1f", w.p50ms, w.opsPerSec, 1000/1.2)
	}
}

// write_mixed: every request counts for throughput, only the timed ones
// (upserts) for latency.
func TestWindowLatencyOverTimedOpsOnly(t *testing.T) {
	var lat []float64
	for i := 0; i < 400; i++ {
		lat = append(lat, 1, 3) // read, upsert
	}
	w := measure(t, lat, func(i int) bool { return i%2 == 1 }, 4, 1, 1)
	if w.p50ms != 3 || w.p90ms != 3 || !near(w.opsPerSec, 500) {
		t.Errorf("got p50 %v p90 %v at %.1f ops/s, want 3, 3 at 500", w.p50ms, w.p90ms, w.opsPerSec)
	}
}

// A loop that loses count of its ops or its CPU readings is an error,
// not a silently shorter window.
func TestWindowRejectsMissingSamples(t *testing.T) {
	w := newWindow(10, 2, func() (float64, error) { return 0, nil }, func() {})
	for i := 0; i < 9; i++ {
		if err := w.begin(i); err != nil {
			t.Fatal(err)
		}
		w.add(opSample{int64(i), int64(i + 1), true})
	}
	if _, err := w.finish(1); err == nil {
		t.Error("window of 9 samples for 10 ops accepted")
	}
}

// The values Python's statistics.quantiles(xs, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{2, 4, 4, 4, 5}, [3]float64{3, 4, 4.5}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 90, Parent: 0},
		{Name: "inner", Start: 55, End: 60, Parent: 2},
	}}
	if err := tr.write(t.TempDir(), "x", nil); err != nil {
		t.Fatal(err)
	}
	want := []int64{30, 30, 35, 5}
	for i, s := range tr.spans {
		if s.Self != want[i] {
			t.Errorf("span %s self %d, want %d", s.Name, s.Self, want[i])
		}
	}
	if got := tr.durations("b"); len(got) != 1 || got[0] != 40 {
		t.Errorf("durations(b) = %v, want [40]", got)
	}
}

func TestReferenceNormalize(t *testing.T) {
	slow := 2 * refNominalMS // the kernel's lower quartile on a box at half speed
	r := &reference{samples: []float64{slow * 1.5, slow, slow, slow, slow, slow, slow, slow * 2}}
	values := map[string]float64{"setup_s": 2, "lat_p50_ms": 8, "lat_p90_ms": 10, "cpu_s_per_kop": 4, "ops_per_s": 100, "rss_mb": 17, "quality": 0.98}
	raw := r.normalize(values)
	want := map[string]float64{"setup_s": 1, "lat_p50_ms": 4, "lat_p90_ms": 5, "cpu_s_per_kop": 2, "ops_per_s": 200, "rss_mb": 17, "quality": 0.98}
	for name, w := range want {
		if !near(values[name], w) {
			t.Errorf("%s = %v after scaling, want %v", name, values[name], w)
		}
	}
	if len(raw) != 5 || raw["lat_p50_ms"] != 8 || raw["ops_per_s"] != 100 {
		t.Errorf("raw values kept: %v", raw)
	}
}

func TestReferenceKernelIsDeterministicWork(t *testing.T) {
	a, b := newReference(), newReference()
	a.observe(1)
	first := refSink
	b.observe(2)
	if refSink != first || len(b.samples) != 2 || b.samples[0] <= 0 {
		t.Errorf("kernel result %v then %v, samples %v", first, refSink, b.samples)
	}
	// The chase must be one cycle through the whole array, or it would
	// run in L1.
	seen, p := 0, uint32(0)
	for {
		p = a.next[p]
		seen++
		if p == 0 || seen > refChaseLen {
			break
		}
	}
	if seen != refChaseLen {
		t.Errorf("pointer chase cycles after %d steps, want %d", seen, refChaseLen)
	}
}
