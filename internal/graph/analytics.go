package graph

import (
	"math"
	"sort"
)

// ConnectedComponents labels every node with a component id (0-based,
// ordered by first appearance) ignoring edge times. Isolated nodes get
// their own components.
func (g *Temporal) ConnectedComponents() []int {
	g.mustBuilt()
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	stack := make([]NodeID, 0, 64)
	for v := 0; v < g.n; v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = next
		stack = append(stack[:0], NodeID(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, he := range g.adj[u] {
				if comp[he.To] == -1 {
					comp[he.To] = next
					stack = append(stack, he.To)
				}
			}
		}
		next++
	}
	return comp
}

// NumComponents returns the number of connected components.
func (g *Temporal) NumComponents() int {
	comp := g.ConnectedComponents()
	max := -1
	for _, c := range comp {
		if c > max {
			max = c
		}
	}
	return max + 1
}

// TemporalStats summarizes the temporal texture of the network.
type TemporalStats struct {
	// MeanInterEvent is the average gap between consecutive events on the
	// same node, over nodes with ≥ 2 events.
	MeanInterEvent float64
	// MedianInterEvent is the median of the same gaps.
	MedianInterEvent float64
	// BurstRatio is the fraction of all edges falling in the busiest
	// tenth of the time span (≈ 0.1 for a uniform process; ≫ 0.1 for
	// bursty datasets like Tmall's shopping day).
	BurstRatio float64
	// RepeatEdgeFraction is the fraction of edges whose node pair already
	// interacted earlier.
	RepeatEdgeFraction float64
}

// ComputeTemporalStats computes TemporalStats; ok is false for graphs with
// fewer than 2 edges.
func (g *Temporal) ComputeTemporalStats() (TemporalStats, bool) {
	g.mustBuilt()
	if len(g.edges) < 2 {
		return TemporalStats{}, false
	}
	var gaps []float64
	for v := 0; v < g.n; v++ {
		adj := g.adj[v]
		for i := 1; i < len(adj); i++ {
			gaps = append(gaps, adj[i].Time-adj[i-1].Time)
		}
	}
	var st TemporalStats
	if len(gaps) > 0 {
		sort.Float64s(gaps)
		var sum float64
		for _, gp := range gaps {
			sum += gp
		}
		st.MeanInterEvent = sum / float64(len(gaps))
		st.MedianInterEvent = gaps[len(gaps)/2]
	}
	lo, hi, _ := g.TimeSpan()
	span := hi - lo
	if span == 0 {
		st.BurstRatio = 1
	} else {
		bins := make([]int, 10)
		for _, e := range g.edges {
			b := int((e.Time - lo) / span * 10)
			if b == 10 {
				b = 9
			}
			bins[b]++
		}
		busiest := 0
		for _, c := range bins {
			if c > busiest {
				busiest = c
			}
		}
		st.BurstRatio = float64(busiest) / float64(len(g.edges))
	}
	seen := make(map[uint64]bool, len(g.edges))
	repeats := 0
	for _, e := range g.edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] {
			repeats++
		}
		seen[key] = true
	}
	st.RepeatEdgeFraction = float64(repeats) / float64(len(g.edges))
	return st, true
}

// GiniDegree returns the Gini coefficient of the degree distribution, a
// scale-free-ness proxy in [0, 1).
func (g *Temporal) GiniDegree() float64 {
	g.mustBuilt()
	degs := make([]float64, g.n)
	var total float64
	for i := range g.adj {
		degs[i] = float64(len(g.adj[i]))
		total += degs[i]
	}
	if total == 0 || g.n < 2 {
		return 0
	}
	sort.Float64s(degs)
	var cum float64
	for i, d := range degs {
		cum += d * float64(2*(i+1)-g.n-1)
	}
	return math.Abs(cum) / (float64(g.n) * total)
}
