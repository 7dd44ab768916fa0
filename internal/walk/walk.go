// Package walk implements the three random-walk processes used in the
// paper: the EHNA temporal random walk over historical neighborhoods
// (Section IV-A, Eqs. 1–2), the node2vec second-order biased walk (used by
// the NODE2VEC baseline and by the EHNA-RW ablation), and the CTDNE
// forward-in-time constrained walk.
package walk

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ehna/internal/graph"
)

// Walk is one realized random walk. Nodes[0] is the source; Times[i] is the
// formation timestamp of the edge traversed between Nodes[i] and Nodes[i+1]
// (len(Times) == len(Nodes)−1).
type Walk struct {
	Nodes []graph.NodeID
	Times []float64
}

// Len returns the number of nodes in the walk.
func (w Walk) Len() int { return len(w.Nodes) }

// Scratch holds reusable walk-generation buffers: the walk slice, the
// per-walk Nodes/Times backing arrays and the transition-weight
// scratch. The training loop generates k walks per aggregation and
// immediately consumes them, so recycling the buffers removes the
// dominant allocation source of walk generation. Obtain via
// GetScratch, generate with TemporalWalker.WalksScratch, and return
// with PutScratch once the walks are no longer referenced.
type Scratch struct {
	walks   []Walk
	weights []float64
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled scratch buffer.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch recycles s. The walks most recently produced from s must
// no longer be referenced.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// slot returns walk slot i, growing the slice while keeping previously
// recycled Nodes/Times capacity.
func (s *Scratch) slot(i int) *Walk {
	for len(s.walks) <= i {
		s.walks = append(s.walks, Walk{})
	}
	return &s.walks[i]
}

// TemporalConfig parameterizes the EHNA temporal random walk.
type TemporalConfig struct {
	P        float64 // return parameter (Eq. 2); likelihood of revisiting the previous node
	Q        float64 // in-out parameter (Eq. 2); BFS (large q) vs DFS (small q) bias
	NumWalks int     // k walks per target node (paper default 10)
	WalkLen  int     // ℓ nodes per walk (paper default 10)
	Static   bool    // EHNA-RW ablation: ignore timestamps entirely (plain node2vec walk)
}

// Validate reports a descriptive error for nonsensical configurations.
func (c TemporalConfig) Validate() error {
	if c.P <= 0 || c.Q <= 0 {
		return fmt.Errorf("walk: p and q must be positive (p=%g q=%g)", c.P, c.Q)
	}
	if c.NumWalks < 1 {
		return fmt.Errorf("walk: NumWalks %d < 1", c.NumWalks)
	}
	if c.WalkLen < 1 {
		return fmt.Errorf("walk: WalkLen %d < 1", c.WalkLen)
	}
	return nil
}

// DefaultTemporalConfig returns the paper's default settings
// (k=10, ℓ=10, p=q=1).
func DefaultTemporalConfig() TemporalConfig {
	return TemporalConfig{P: 1, Q: 1, NumWalks: 10, WalkLen: 10}
}

// TemporalWalker generates temporal random walks over a temporal graph.
// It is safe for concurrent use: all state is read-only after construction
// and randomness comes from the caller's RNG.
type TemporalWalker struct {
	g   *graph.Temporal
	cfg TemporalConfig
}

// NewTemporalWalker validates cfg and returns a walker over g.
func NewTemporalWalker(g *graph.Temporal, cfg TemporalConfig) (*TemporalWalker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TemporalWalker{g: g, cfg: cfg}, nil
}

// WalksScratch generates cfg.NumWalks temporal random walks from x for
// analyzing an edge formed at time tTarget. Each walk visits only
// relevant nodes (Definition 2): traversed edges have non-increasing
// timestamps ≤ tTarget walking away from x. A walk terminates early
// when no relevant neighbor exists. Walks of length 1 (the bare source)
// are still returned so the aggregation layer always has k inputs.
//
// The returned slice and the Nodes/Times of each walk are owned by s
// and are only valid until the next WalksScratch call on s (or
// PutScratch).
func (w *TemporalWalker) WalksScratch(s *Scratch, x graph.NodeID, tTarget float64, rng *rand.Rand) []Walk {
	for i := 0; i < w.cfg.NumWalks; i++ {
		w.oneInto(s.slot(i), x, tTarget, rng, &s.weights)
	}
	return s.walks[:w.cfg.NumWalks]
}

// oneInto generates one walk into dst, reusing dst's backing arrays
// and the caller's transition-weight scratch.
func (w *TemporalWalker) oneInto(dst *Walk, x graph.NodeID, tTarget float64, rng *rand.Rand, weightsScratch *[]float64) {
	nodes := append(dst.Nodes[:0], x)
	times := dst.Times[:0]

	cur := x
	var prev graph.NodeID
	hasPrev := false
	prevTime := tTarget

	weights := *weightsScratch

	for len(nodes) < w.cfg.WalkLen {
		var cands []graph.HalfEdge
		if w.cfg.Static {
			cands = w.g.Neighbors(cur)
		} else {
			cands = w.g.NeighborsBefore(cur, prevTime)
		}
		if len(cands) == 0 {
			break // early termination: no relevant neighbor (Section IV-A)
		}
		if cap(weights) < len(cands) {
			weights = make([]float64, len(cands))
		}
		weights = weights[:len(cands)]
		var total float64
		for j, he := range cands {
			beta := 1.0
			if hasPrev {
				switch {
				case he.To == prev: // d_uw = 0: backtrack
					beta = 1 / w.cfg.P
				case w.edgeBetween(prev, he.To, tTarget): // d_uw = 1
					beta = 1
				default: // d_uw = 2
					beta = 1 / w.cfg.Q
				}
			}
			k := he.Weight
			if !w.cfg.Static {
				// Eq. 1: K = w·exp(−(t_target − t_edge)); timestamps are
				// expected to be normalized (graph.NormalizeTimes) so the
				// exponent is O(1).
				k *= math.Exp(-(tTarget - he.Time))
			}
			weights[j] = beta * k
			total += weights[j]
		}
		if total <= 0 {
			break
		}
		r := rng.Float64() * total
		pick := len(cands) - 1
		var acc float64
		for j, wt := range weights {
			acc += wt
			if r < acc {
				pick = j
				break
			}
		}
		chosen := cands[pick]
		nodes = append(nodes, chosen.To)
		times = append(times, chosen.Time)
		prev, hasPrev = cur, true
		cur = chosen.To
		if !w.cfg.Static {
			prevTime = chosen.Time
		}
	}
	*weightsScratch = weights
	dst.Nodes = nodes
	dst.Times = times
}

// edgeBetween reports whether a historical edge (≤ tTarget) connects a and
// b, defining the d_uw = 1 case of Eq. 2 on temporally visible structure.
func (w *TemporalWalker) edgeBetween(a, b graph.NodeID, tTarget float64) bool {
	if w.cfg.Static {
		return w.g.HasEdge(a, b)
	}
	return w.g.HasEdgeBefore(a, b, tTarget)
}

// Node2VecWalker generates classic second-order biased random walks
// (Grover & Leskovec) ignoring all temporal information.
type Node2VecWalker struct {
	g    *graph.Temporal
	p, q float64
}

// NewNode2VecWalker returns a walker with the given return/in-out biases.
func NewNode2VecWalker(g *graph.Temporal, p, q float64) (*Node2VecWalker, error) {
	if p <= 0 || q <= 0 {
		return nil, fmt.Errorf("walk: node2vec p and q must be positive (p=%g q=%g)", p, q)
	}
	return &Node2VecWalker{g: g, p: p, q: q}, nil
}

// Walk generates one walk of up to length nodes starting at x. The walk
// stops early at isolated dead ends.
func (w *Node2VecWalker) Walk(x graph.NodeID, length int, rng *rand.Rand) []graph.NodeID {
	nodes := make([]graph.NodeID, 1, length)
	nodes[0] = x
	cur := x
	var prev graph.NodeID
	hasPrev := false
	var weights []float64
	for len(nodes) < length {
		cands := w.g.Neighbors(cur)
		if len(cands) == 0 {
			break
		}
		if cap(weights) < len(cands) {
			weights = make([]float64, len(cands))
		}
		weights = weights[:len(cands)]
		var total float64
		for j, he := range cands {
			beta := 1.0
			if hasPrev {
				switch {
				case he.To == prev:
					beta = 1 / w.p
				case w.g.HasEdge(prev, he.To):
					beta = 1
				default:
					beta = 1 / w.q
				}
			}
			weights[j] = beta * he.Weight
			total += weights[j]
		}
		r := rng.Float64() * total
		pick := len(cands) - 1
		var acc float64
		for j, wt := range weights {
			acc += wt
			if r < acc {
				pick = j
				break
			}
		}
		prev, hasPrev = cur, true
		cur = cands[pick].To
		nodes = append(nodes, cur)
	}
	return nodes
}

// CTDNEWalker generates forward-in-time constrained walks: consecutive
// edges have non-decreasing timestamps (Nguyen et al., CTDNE). Edge and
// neighbor selection are uniform, matching the paper's experimental setup
// ("we use the uniform sampling for initial edge selections and node
// selections").
type CTDNEWalker struct {
	g *graph.Temporal
}

// NewCTDNEWalker returns a CTDNE walker over g.
func NewCTDNEWalker(g *graph.Temporal) *CTDNEWalker { return &CTDNEWalker{g: g} }

// WalkFromEdge starts a temporal walk by traversing edge e, then extends it
// with uniformly chosen edges of non-decreasing timestamp, up to length
// nodes in total.
func (w *CTDNEWalker) WalkFromEdge(e graph.Edge, length int, rng *rand.Rand) []graph.NodeID {
	nodes := make([]graph.NodeID, 0, length)
	nodes = append(nodes, e.U, e.V)
	cur := e.V
	curTime := e.Time
	for len(nodes) < length {
		adj := w.g.Neighbors(cur)
		// Candidates are edges at Time ≥ curTime: adjacency is time-sorted,
		// so they form a suffix; find its start by binary search.
		lo, hi := 0, len(adj)
		for lo < hi {
			mid := (lo + hi) / 2
			if adj[mid].Time < curTime {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(adj) {
			break
		}
		he := adj[lo+rng.Intn(len(adj)-lo)]
		nodes = append(nodes, he.To)
		cur = he.To
		curTime = he.Time
	}
	return nodes
}
