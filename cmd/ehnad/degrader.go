package main

import (
	"log"
	"sync"
	"sync/atomic"

	"ehna/internal/ann"
)

// degradeSustain is how many consecutive admissions must observe
// in-flight occupancy past a watermark before the degrader moves
// ef-search — the hysteresis that keeps one burst from thrashing the
// dial.
const degradeSustain = 4

// degrader is the graceful-degradation controller: under sustained
// admission pressure it halves the HNSW ef-search beam (cheaper,
// slightly lower recall) down to a floor, and restores it by doubling
// once the pressure drains. Responses served below the configured beam
// are flagged degraded, so clients know recall was traded for survival.
// Handlers sample it concurrently, so sample runs under mu; readers go
// through atomics.
type degrader struct {
	graph       *ann.HNSW
	full, floor int // configured ef-search and the shrink limit
	high, low   int // occupancy watermarks

	mu         sync.Mutex
	hot, cool  int          // consecutive samples past a watermark; under mu
	cur        atomic.Int64 // ef-search currently applied
	isDegraded atomic.Bool
}

// newDegrader builds the controller over a capacity of capacity
// concurrent requests, or returns nil (degradation off) when the floor
// leaves nothing to shrink or there is no capacity to measure against.
func newDegrader(graph *ann.HNSW, full, floor, capacity int) *degrader {
	if floor <= 0 || floor >= full || capacity <= 0 {
		return nil
	}
	d := &degrader{
		graph: graph,
		full:  full,
		floor: floor,
		high:  capacity * 3 / 4,
		low:   capacity / 4,
	}
	d.cur.Store(int64(full))
	return d
}

// sample feeds one admission's occupancy observation into the
// controller, setting the graph's beam width when it moves.
func (d *degrader) sample(occupancy int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := int(d.cur.Load())
	switch {
	case occupancy >= d.high:
		d.cool = 0
		if d.hot++; d.hot >= degradeSustain && cur > d.floor {
			d.hot = 0
			if cur /= 2; cur < d.floor {
				cur = d.floor
			}
			d.cur.Store(int64(cur))
			d.graph.SetEfSearch(cur)
			d.isDegraded.Store(true)
			log.Printf("ehnad: in-flight requests %d >= %d sustained; degrading ef-search to %d (floor %d)",
				occupancy, d.high, cur, d.floor)
		}
	case occupancy <= d.low:
		d.hot = 0
		if d.cool++; d.cool >= degradeSustain && cur < d.full {
			d.cool = 0
			if cur *= 2; cur > d.full {
				cur = d.full
			}
			d.cur.Store(int64(cur))
			d.graph.SetEfSearch(cur)
			d.isDegraded.Store(cur < d.full)
			log.Printf("ehnad: admission pressure cleared; restoring ef-search to %d (full %d)", cur, d.full)
		}
	default:
		d.hot, d.cool = 0, 0
	}
}

// degradedNow reports whether searches are currently served below the
// configured beam width. Safe on nil and from any goroutine.
func (d *degrader) degradedNow() bool { return d != nil && d.isDegraded.Load() }

// efNow reports the beam width currently applied (0 when inactive).
func (d *degrader) efNow() int {
	if d == nil {
		return 0
	}
	return int(d.cur.Load())
}
