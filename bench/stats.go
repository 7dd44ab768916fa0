package main

import (
	"fmt"
	"math"
	"slices"
)

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs;
// 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value of xs, the mean of the two middle values
// when the count is even; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// minSegmentSamples is the fewest latency samples a segment may hold:
// its p90 then has five samples beyond it.
const minSegmentSamples = 50

// maxSegments caps how many equal-op segments a window is cut into. At
// 40 a segment of the contract's 15 s window lasts a third of a second.
const maxSegments = 40

// segmentCount is the number of equal-op segments a window of n latency
// samples is cut into.
func segmentCount(n int) int {
	return max(1, min(maxSegments, n/minSegmentSamples))
}

// segmentBounds returns the half-open index ranges that cut n samples
// into s contiguous segments whose sizes differ by at most one.
func segmentBounds(n, s int) [][2]int {
	out := make([][2]int, 0, s)
	for i := 0; i < s; i++ {
		out = append(out, [2]int{i * n / s, (i + 1) * n / s})
	}
	return out
}

// opSample is one timed operation of a window: when it started and ended,
// in nanoseconds since the window's clock origin, and whether its
// latency belongs to the latency metrics (write_mixed times every
// request for throughput but reports latency over upserts only).
type opSample struct {
	start, end int64
	timed      bool
}

// window collects one measured window: every op's timing, and the CPU
// time of the system under test at each segment boundary.
//
// Every time metric is computed per segment and the quietest segment's
// value is reported: the highest throughput, the lowest p50, p90 and CPU
// time per op. Interference on a shared box is one-sided — a neighbour
// can only slow a segment down — and it comes in spells of seconds to
// minutes, so a median over segments moves with it (run-to-run spread
// 13–27 % on the reference box) while the quietest segment estimates the
// program's own speed (5–12 %). A regression in the program slows every
// segment, the quietest included.
type window struct {
	bounds   [][2]int // segment → half-open range of op indices
	samples  []opSample
	cpuStart []float64 // CPU seconds of the system under test at each segment's start
	cpuEnd   []float64 // and at its end
	cpuNow   func() (float64, error)
	between  func() // runs between segments, outside both CPU readings
}

// newWindow prepares a window of ops measured operations cut into the
// given number of segments. cpuNow reads the CPU seconds the system
// under test has used so far; between runs at every segment boundary,
// where the run samples its speed reference.
func newWindow(ops, segments int, cpuNow func() (float64, error), between func()) *window {
	return &window{bounds: segmentBounds(ops, segments), samples: make([]opSample, 0, ops), cpuNow: cpuNow, between: between}
}

// begin is called before measured op i starts. At a segment boundary it
// closes the previous segment's CPU reading, lets between run, and opens
// the next segment's.
func (w *window) begin(i int) error {
	k := len(w.cpuStart)
	if k == len(w.bounds) || w.bounds[k][0] != i {
		return nil
	}
	if k > 0 {
		if err := w.readCPU(&w.cpuEnd); err != nil {
			return err
		}
	}
	w.between()
	return w.readCPU(&w.cpuStart)
}

func (w *window) readCPU(into *[]float64) error {
	c, err := w.cpuNow()
	*into = append(*into, c)
	return err
}

func (w *window) add(s opSample) { w.samples = append(w.samples, s) }

// windowStats is what a measured window yields: the quietest segment's
// value of each time metric, and every segment's for the environment
// block, where they show how much of the window was disturbed.
type windowStats struct {
	opsPerSec float64 // highest segment throughput
	p50ms     float64 // lowest per-segment p50
	p90ms     float64 // lowest per-segment p90
	cpuPerKop float64 // lowest per-segment CPU seconds per 1000 ops

	segTput, segP50, segP90, segCPU []float64
}

// finish takes the closing CPU reading and summarizes the window.
// opsPerSample is how many operations one sample stands for (32 queries
// per read_batch request, the epoch's edges for train_epoch). Segment
// throughput divides by the segment's wall time, first start to last
// end, so client think time counts.
func (w *window) finish(opsPerSample float64) (windowStats, error) {
	if err := w.readCPU(&w.cpuEnd); err != nil {
		return windowStats{}, err
	}
	if len(w.cpuEnd) != len(w.bounds) || len(w.cpuStart) != len(w.bounds) || len(w.samples) != w.bounds[len(w.bounds)-1][1] {
		return windowStats{}, fmt.Errorf("window holds %d samples and %d CPU readings for %d segments",
			len(w.samples), len(w.cpuEnd), len(w.bounds))
	}
	var st windowStats
	for k, b := range w.bounds {
		part := w.samples[b[0]:b[1]]
		ops := float64(len(part)) * opsPerSample
		wall := float64(part[len(part)-1].end-part[0].start) / 1e9
		var lat []float64
		for _, s := range part {
			if s.timed {
				lat = append(lat, float64(s.end-s.start)/1e6)
			}
		}
		st.segTput = append(st.segTput, ops/wall)
		st.segP50 = append(st.segP50, percentile(lat, 50))
		st.segP90 = append(st.segP90, percentile(lat, 90))
		st.segCPU = append(st.segCPU, (w.cpuEnd[k]-w.cpuStart[k])/ops*1000)
	}
	st.opsPerSec = slices.Max(st.segTput)
	st.p50ms = slices.Min(st.segP50)
	st.p90ms = slices.Min(st.segP90)
	st.cpuPerKop = slices.Min(st.segCPU)
	return st, nil
}
