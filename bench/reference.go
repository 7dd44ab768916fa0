package main

import (
	"math/rand"
	"time"
)

// The speed reference. A shared box runs at the speed its neighbours
// leave it: on the reference box, spells of several minutes were
// recorded in which HNSW search, a training epoch and a process exec all
// ran 35–55 % slower with under 2 % steal time, long enough to cover
// every run of a workload. No estimator inside a run sees through that.
// So every run also times a frozen kernel, at each segment boundary, and
// reports its time metrics scaled to the kernel's nominal time: what the
// run would have read on the quiet box.
//
// The kernel is half a dependent pointer chase over 512 KB (bound by L2
// latency, which a busy sibling hyperthread hardly moves: +22 % in the
// recorded spell) and half a 4-accumulator float32 dot-product scan over
// a 1.25 MB table (bound by issue slots, which it moves most: +85 %).
// Their sum moved as the workloads did: scaling by its lower quartile
// brought the spread of 30-second windows across the spell from 17–20 %
// to 3–4 % for search, training and exec alike (bench/README.md has the
// table). It touches 1.8 MB, allocates nothing and makes no system call,
// so it reads the same inside any workload's harness process.
type reference struct {
	next    []uint32  // a single cycle through all of next
	table   []float32 // refRows × refDim
	query   []float32
	samples []float64 // milliseconds
}

const (
	refChaseLen   = 1 << 17 // uint32 entries: 512 KB
	refChaseSteps = 900_000
	refRows       = 5000
	refDim        = 64
	refScans      = 35

	// refNominalMS is the lower quartile of the kernel's time inside a run
	// on the quiet reference box (2 vCPUs of a Xeon at 2.1 GHz; run back
	// to back with warm caches it takes 10.25 ms). It only fixes the
	// unit: on another machine every time metric shifts by one constant
	// factor, which no comparison of two commits on that machine sees.
	refNominalMS = 11.0

	// refQuantile is the quantile of a run's samples that stands for the
	// run: low, to pair with the quietest-segment estimators.
	refQuantile = 25
)

var refSink float32

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	r := &reference{
		next:  make([]uint32, refChaseLen),
		table: make([]float32, refRows*refDim),
		query: make([]float32, refDim),
	}
	perm := rng.Perm(refChaseLen)
	for i, p := range perm {
		r.next[p] = uint32(perm[(i+1)%refChaseLen])
	}
	for i := range r.table {
		r.table[i] = rng.Float32()
	}
	for i := range r.query {
		r.query[i] = rng.Float32()
	}
	return r
}

// observe times the kernel n times.
func (r *reference) observe(n int) {
	for ; n > 0; n-- {
		start := time.Now()
		p := uint32(0)
		for i := 0; i < refChaseSteps; i++ {
			p = r.next[p]
		}
		best := float32(p & 1)
		for s := 0; s < refScans; s++ {
			for row := 0; row < refRows; row++ {
				v := r.table[row*refDim : row*refDim+refDim]
				var a, b, c, d float32
				for j := 0; j < refDim; j += 4 {
					a += v[j] * r.query[j]
					b += v[j+1] * r.query[j+1]
					c += v[j+2] * r.query[j+2]
					d += v[j+3] * r.query[j+3]
				}
				if dot := a + b + c + d; dot > best {
					best = dot
				}
			}
		}
		refSink = best
		r.samples = append(r.samples, time.Since(start).Seconds()*1000)
	}
}

// level is the run's reference time in milliseconds.
func (r *reference) level() float64 { return percentile(r.samples, refQuantile) }

// timeMetrics are the end-to-end metrics scaled by the speed reference,
// and whether a slower box makes the raw value larger.
var timeMetrics = map[string]bool{
	"setup_s": true, "lat_p50_ms": true, "lat_p90_ms": true, "cpu_s_per_kop": true, "ops_per_s": false,
}

// normalize scales the time metrics in values to the nominal box and
// returns the raw values it replaced.
func (r *reference) normalize(values map[string]float64) map[string]float64 {
	raw := make(map[string]float64)
	slowdown := r.level() / refNominalMS
	for name, larger := range timeMetrics {
		v, ok := values[name]
		if !ok {
			continue
		}
		raw[name] = v
		if larger {
			values[name] = v / slowdown
		} else {
			values[name] = v * slowdown
		}
	}
	return raw
}
