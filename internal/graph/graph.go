// Package graph implements the temporal network data structure of the EHNA
// paper (Definition 1): a graph whose every edge carries the timestamp of
// its formation. Adjacency lists are kept sorted by timestamp so historical
// neighborhoods ("edges formed before t") are binary-searchable.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// NodeID is a dense node identifier in [0, NumNodes).
type NodeID = uint32

// Edge is one temporal edge (u, v) formed at Time with weight Weight.
type Edge struct {
	U, V   NodeID
	Weight float64
	Time   float64
}

// HalfEdge is one directed adjacency entry: the neighbor, the edge weight
// and the formation timestamp.
type HalfEdge struct {
	To     NodeID
	Weight float64
	Time   float64
}

// Temporal is an undirected temporal network. Edges are stored twice (one
// HalfEdge per direction); per-node adjacency is sorted by ascending Time,
// ties broken by neighbor id for determinism.
type Temporal struct {
	n     int
	adj   [][]HalfEdge
	edges []Edge // sorted by (Time, U, V)
	built bool
}

// NewTemporal returns an empty temporal graph over n nodes.
func NewTemporal(n int) *Temporal {
	return &Temporal{n: n, adj: make([][]HalfEdge, n)}
}

// NumNodes returns the number of nodes.
func (g *Temporal) NumNodes() int { return g.n }

// NumEdges returns the number of (undirected) temporal edges.
func (g *Temporal) NumEdges() int { return len(g.edges) }

// AddEdge inserts an undirected temporal edge. Self-loops are rejected.
// Parallel edges with distinct timestamps are allowed (e.g. repeated
// co-authorships). Call Build before querying.
func (g *Temporal) AddEdge(u, v NodeID, weight, time float64) error {
	if int(u) >= g.n || int(v) >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d rejected", u)
	}
	if weight <= 0 {
		return fmt.Errorf("graph: non-positive weight %g on edge (%d,%d)", weight, u, v)
	}
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: weight, Time: time})
	g.built = false
	return nil
}

// Build finalizes the graph: sorts the edge list chronologically and the
// adjacency lists by time. Must be called after the last AddEdge and before
// any query; queries on an unbuilt graph panic.
func (g *Temporal) Build() {
	sort.Slice(g.edges, func(i, j int) bool {
		a, b := g.edges[i], g.edges[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	for _, e := range g.edges {
		g.adj[e.U] = append(g.adj[e.U], HalfEdge{To: e.V, Weight: e.Weight, Time: e.Time})
		g.adj[e.V] = append(g.adj[e.V], HalfEdge{To: e.U, Weight: e.Weight, Time: e.Time})
	}
	for i := range g.adj {
		a := g.adj[i]
		sort.Slice(a, func(x, y int) bool {
			if a[x].Time != a[y].Time {
				return a[x].Time < a[y].Time
			}
			return a[x].To < a[y].To
		})
	}
	g.built = true
}

func (g *Temporal) mustBuilt() {
	if !g.built {
		panic("graph: query before Build()")
	}
}

// Neighbors returns the full time-sorted adjacency of u (shared slice; do
// not mutate).
func (g *Temporal) Neighbors(u NodeID) []HalfEdge {
	g.mustBuilt()
	return g.adj[u]
}

// NeighborsBefore returns the adjacency entries of u with Time ≤ t
// (historical neighborhood at time t). The returned slice aliases internal
// storage.
func (g *Temporal) NeighborsBefore(u NodeID, t float64) []HalfEdge {
	g.mustBuilt()
	a := g.adj[u]
	hi := sort.Search(len(a), func(i int) bool { return a[i].Time > t })
	return a[:hi]
}

// Degree returns the number of adjacency entries of u.
func (g *Temporal) Degree(u NodeID) int {
	g.mustBuilt()
	return len(g.adj[u])
}

// DegreeBefore returns the number of adjacency entries of u with Time ≤ t.
func (g *Temporal) DegreeBefore(u NodeID, t float64) int {
	return len(g.NeighborsBefore(u, t))
}

// HasEdge reports whether any temporal edge connects u and v.
func (g *Temporal) HasEdge(u, v NodeID) bool {
	g.mustBuilt()
	a, target := g.adj[u], v
	if len(g.adj[v]) < len(a) {
		a, target = g.adj[v], u
	}
	for _, he := range a {
		if he.To == target {
			return true
		}
	}
	return false
}

// HasEdgeBefore reports whether an edge between u and v exists with Time ≤ t.
func (g *Temporal) HasEdgeBefore(u, v NodeID, t float64) bool {
	for _, he := range g.NeighborsBefore(u, t) {
		if he.To == v {
			return true
		}
	}
	return false
}

// Edges returns the chronologically sorted edge list (shared slice; do not
// mutate).
func (g *Temporal) Edges() []Edge {
	g.mustBuilt()
	return g.edges
}

// TimeSpan returns the earliest and latest edge timestamps. ok is false for
// an empty graph.
func (g *Temporal) TimeSpan() (minT, maxT float64, ok bool) {
	g.mustBuilt()
	if len(g.edges) == 0 {
		return 0, 0, false
	}
	return g.edges[0].Time, g.edges[len(g.edges)-1].Time, true
}

// NormalizeTimes rescales all timestamps linearly onto [0, 1]. The temporal
// random walk's exponential decay kernel exp(−(t_target − t_edge)) is only
// meaningful on a bounded scale; the paper's datasets span years while e.g.
// UNIX timestamps span ~1e9 seconds, so a common rescaling is required.
func (g *Temporal) NormalizeTimes() {
	g.mustBuilt()
	lo, hi, ok := g.TimeSpan()
	if !ok || hi == lo {
		return
	}
	span := hi - lo
	for i := range g.edges {
		g.edges[i].Time = (g.edges[i].Time - lo) / span
	}
	for _, a := range g.adj {
		for i := range a {
			a[i].Time = (a[i].Time - lo) / span
		}
	}
}

// SplitByTime partitions the chronologically sorted edges into a training
// graph holding the earliest (1−testFrac) fraction and the held-out most
// recent edges — the link-prediction protocol of Section V-E ("we remove
// 20% of the most recent edges in a graph, and use them for prediction").
// The training graph is built; held-out edges are returned chronologically.
func (g *Temporal) SplitByTime(testFrac float64) (train *Temporal, heldOut []Edge, err error) {
	g.mustBuilt()
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("graph: testFrac %g outside (0,1)", testFrac)
	}
	cut := int(float64(len(g.edges)) * (1 - testFrac))
	if cut == 0 || cut == len(g.edges) {
		return nil, nil, fmt.Errorf("graph: split leaves an empty side (%d edges, frac %g)", len(g.edges), testFrac)
	}
	train = NewTemporal(g.n)
	train.edges = append([]Edge(nil), g.edges[:cut]...)
	train.Build()
	heldOut = append([]Edge(nil), g.edges[cut:]...)
	return train, heldOut, nil
}

// WriteTSV writes the edge list as "u\tv\tweight\ttime" lines.
func (g *Temporal) WriteTSV(w io.Writer) error {
	g.mustBuilt()
	bw := bufio.NewWriter(w)
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%g\t%g\n", e.U, e.V, e.Weight, e.Time); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses an edge list of "u\tv\tweight\ttime" (or "u\tv\ttime",
// weight defaulting to 1) lines. Node ids must be dense; the graph is sized
// by the largest id seen. Blank lines and lines starting with '#' are
// skipped. The returned graph is built.
func ReadTSV(r io.Reader) (*Temporal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	type rawEdge struct {
		u, v NodeID
		w, t float64
	}
	var raw []rawEdge
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("graph: line %d: want 3 or 4 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target id %q: %v", lineNo, fields[1], err)
		}
		w := 1.0
		ti := 2
		if len(fields) == 4 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
			ti = 3
		}
		t, err := strconv.ParseFloat(fields[ti], 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad timestamp %q: %v", lineNo, fields[ti], err)
		}
		raw = append(raw, rawEdge{u: NodeID(u), v: NodeID(v), w: w, t: t})
		if int(u) > maxID {
			maxID = int(u)
		}
		if int(v) > maxID {
			maxID = int(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %v", err)
	}
	g := NewTemporal(maxID + 1)
	for i, e := range raw {
		if err := g.AddEdge(e.u, e.v, e.w, e.t); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %v", i, err)
		}
	}
	g.Build()
	return g, nil
}

// Stats summarizes a temporal graph for logging.
type Stats struct {
	Nodes, Edges     int
	MinTime, MaxTime float64
	MaxDegree        int
	MeanDegree       float64
}

// ComputeStats returns summary statistics of g.
func (g *Temporal) ComputeStats() Stats {
	g.mustBuilt()
	s := Stats{Nodes: g.n, Edges: len(g.edges)}
	s.MinTime, s.MaxTime, _ = g.TimeSpan()
	total := 0
	for i := range g.adj {
		d := len(g.adj[i])
		total += d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if g.n > 0 {
		s.MeanDegree = float64(total) / float64(g.n)
	}
	return s
}

// FilterEdges returns a new built graph over the same node universe
// containing only the edges for which keep returns true. This supports
// networks with edge removal (e.g. routing tables) and sliding-window
// truncation of old history.
func (g *Temporal) FilterEdges(keep func(Edge) bool) *Temporal {
	g.mustBuilt()
	out := NewTemporal(g.n)
	for _, e := range g.edges {
		if keep(e) {
			out.edges = append(out.edges, e)
		}
	}
	out.Build()
	return out
}
