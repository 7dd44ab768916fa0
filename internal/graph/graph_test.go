package graph

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// tiny builds the 8-node co-author network of the paper's Figure 1.
func tiny(t *testing.T) *Temporal {
	t.Helper()
	g := NewTemporal(9) // ids 0..8; node 0 unused so ids match the figure
	edges := []struct {
		u, v NodeID
		t    float64
	}{
		{1, 2, 2011}, {1, 3, 2011}, {2, 3, 2012}, {1, 3, 2012},
		{1, 4, 2013}, {4, 5, 2014}, {1, 5, 2015}, {5, 8, 2016},
		{1, 6, 2016}, {6, 7, 2017}, {8, 7, 2017}, {1, 7, 2018},
	}
	for _, e := range edges {
		if err := g.AddEdge(e.u, e.v, 1, e.t); err != nil {
			t.Fatal(err)
		}
	}
	g.Build()
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewTemporal(3)
	if err := g.AddEdge(0, 3, 1, 0); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(1, 1, 1, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 1, 0, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := g.AddEdge(0, 1, -1, 0); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.AddEdge(0, 1, 1, 5); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
}

func TestQueryBeforeBuildPanics(t *testing.T) {
	g := NewTemporal(2)
	_ = g.AddEdge(0, 1, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Neighbors(0)
}

func TestEdgesSortedChronologically(t *testing.T) {
	g := tiny(t)
	es := g.Edges()
	if !sort.SliceIsSorted(es, func(i, j int) bool { return es[i].Time < es[j].Time }) {
		t.Fatal("edges not time-sorted")
	}
	if es[0].Time != 2011 || es[len(es)-1].Time != 2018 {
		t.Fatalf("span %g..%g", es[0].Time, es[len(es)-1].Time)
	}
}

func TestAdjacencySortedAndComplete(t *testing.T) {
	g := tiny(t)
	adj := g.Neighbors(1)
	if len(adj) != 7 { // node 1 has 7 incident temporal edges
		t.Fatalf("node 1 degree %d want 7", len(adj))
	}
	for i := 1; i < len(adj); i++ {
		if adj[i].Time < adj[i-1].Time {
			t.Fatal("adjacency not time-sorted")
		}
	}
}

func TestNeighborsBefore(t *testing.T) {
	g := tiny(t)
	// At time 2012, node 1 had interacted with nodes 2 and 3 only.
	hist := g.NeighborsBefore(1, 2012)
	seen := map[NodeID]bool{}
	for _, he := range hist {
		seen[he.To] = true
		if he.Time > 2012 {
			t.Fatalf("edge at %g leaked into history", he.Time)
		}
	}
	if !seen[2] || !seen[3] || len(seen) != 2 {
		t.Fatalf("history at 2012: %v", seen)
	}
	// Boundary inclusivity: time == t is included.
	if g.DegreeBefore(1, 2011) != 2 {
		t.Fatalf("DegreeBefore(1,2011) = %d want 2", g.DegreeBefore(1, 2011))
	}
	if g.DegreeBefore(1, 2010) != 0 {
		t.Fatal("no history expected before 2011")
	}
}

func TestHasEdge(t *testing.T) {
	g := tiny(t)
	cases := []struct {
		u, v NodeID
		want bool
	}{
		{1, 2, true}, {2, 1, true}, {1, 8, false}, {5, 8, true}, {3, 7, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Fatalf("HasEdge(%d,%d) = %v want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestHasEdgeBefore(t *testing.T) {
	g := tiny(t)
	if g.HasEdgeBefore(1, 7, 2017) {
		t.Fatal("edge (1,7) formed in 2018")
	}
	if !g.HasEdgeBefore(1, 7, 2018) {
		t.Fatal("edge (1,7) exists at 2018")
	}
}

func TestParallelEdgesKept(t *testing.T) {
	g := tiny(t)
	// (1,3) appears at 2011 and 2012.
	count := 0
	for _, he := range g.Neighbors(1) {
		if he.To == 3 {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("parallel (1,3) edges: %d want 2", count)
	}
}

func TestTimeSpanAndStats(t *testing.T) {
	g := tiny(t)
	lo, hi, ok := g.TimeSpan()
	if !ok || lo != 2011 || hi != 2018 {
		t.Fatalf("TimeSpan %g..%g ok=%v", lo, hi, ok)
	}
	s := g.ComputeStats()
	if s.Nodes != 9 || s.Edges != 12 || s.MaxDegree != 7 {
		t.Fatalf("stats %+v", s)
	}
	empty := NewTemporal(3)
	empty.Build()
	if _, _, ok := empty.TimeSpan(); ok {
		t.Fatal("empty graph must report no span")
	}
}

func TestNormalizeTimes(t *testing.T) {
	g := tiny(t)
	g.NormalizeTimes()
	lo, hi, _ := g.TimeSpan()
	if lo != 0 || hi != 1 {
		t.Fatalf("normalized span %g..%g", lo, hi)
	}
	// Adjacency must be rescaled consistently with the edge list.
	for _, he := range g.Neighbors(1) {
		if he.Time < 0 || he.Time > 1 {
			t.Fatalf("adjacency time %g outside [0,1]", he.Time)
		}
	}
	// Relative order preserved.
	es := g.Edges()
	if !sort.SliceIsSorted(es, func(i, j int) bool { return es[i].Time < es[j].Time }) {
		t.Fatal("order broken by normalization")
	}
}

func TestSplitByTime(t *testing.T) {
	g := tiny(t)
	train, held, err := g.SplitByTime(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumEdges() != 9 || len(held) != 3 {
		t.Fatalf("split sizes: train %d held %d", train.NumEdges(), len(held))
	}
	// Every held-out edge must be at least as recent as every training edge.
	maxTrain := train.Edges()[train.NumEdges()-1].Time
	for _, e := range held {
		if e.Time < maxTrain {
			t.Fatalf("held-out edge at %g predates training max %g", e.Time, maxTrain)
		}
	}
}

func TestSplitByTimeErrors(t *testing.T) {
	g := tiny(t)
	for _, frac := range []float64{0, 1, -0.5, 1.5} {
		if _, _, err := g.SplitByTime(frac); err == nil {
			t.Fatalf("frac %g accepted", frac)
		}
	}
	small := NewTemporal(2)
	_ = small.AddEdge(0, 1, 1, 0)
	small.Build()
	if _, _, err := small.SplitByTime(0.0001); err == nil {
		t.Fatal("degenerate split accepted")
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g := tiny(t)
	var buf bytes.Buffer
	if err := g.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip edges %d want %d", g2.NumEdges(), g.NumEdges())
	}
	for i, e := range g2.Edges() {
		o := g.Edges()[i]
		if e != o {
			t.Fatalf("edge %d: %+v != %+v", i, e, o)
		}
	}
}

func TestReadTSVThreeColumn(t *testing.T) {
	g, err := ReadTSV(strings.NewReader("0 1 5.5\n# comment\n\n1 2 6.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.NumNodes() != 3 {
		t.Fatalf("%d edges %d nodes", g.NumEdges(), g.NumNodes())
	}
	if g.Edges()[0].Weight != 1 {
		t.Fatal("default weight must be 1")
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []string{
		"0\n",         // too few fields
		"0 1 2 3 4\n", // too many fields
		"x 1 2\n",     // bad source
		"0 y 2\n",     // bad target
		"0 1 z\n",     // bad time
		"0 1 bad 2\n", // bad weight
		"0 0 1 2\n",   // self loop
		"0 1 -1 2\n",  // negative weight
	}
	for _, c := range cases {
		if _, err := ReadTSV(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q accepted", c)
		}
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("disk on fire") }

func TestReadTSVIOError(t *testing.T) {
	if _, err := ReadTSV(io.Reader(failingReader{})); err == nil {
		t.Fatal("reader error swallowed")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("quota exceeded") }

func TestWriteTSVIOError(t *testing.T) {
	g := tiny(t)
	if err := g.WriteTSV(failingWriter{}); err == nil {
		t.Fatal("writer error swallowed")
	}
}

// Property: for random graphs, NeighborsBefore(u, t) returns exactly the
// adjacency entries with Time ≤ t, and degree equals edge incidence.
func TestPropertyNeighborsBefore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := NewTemporal(n)
		m := rng.Intn(60)
		type key struct {
			u, v NodeID
			t    float64
		}
		all := make([]key, 0, m)
		for i := 0; i < m; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			tm := rng.Float64() * 100
			if err := g.AddEdge(u, v, 1, tm); err != nil {
				return false
			}
			all = append(all, key{u, v, tm})
		}
		g.Build()
		cut := rng.Float64() * 100
		for node := 0; node < n; node++ {
			want := 0
			for _, k := range all {
				if (k.u == NodeID(node) || k.v == NodeID(node)) && k.t <= cut {
					want++
				}
			}
			if got := g.DegreeBefore(NodeID(node), cut); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SplitByTime partitions edges without loss or duplication.
func TestPropertySplitPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		g := NewTemporal(n)
		for i := 0; i < 30; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			_ = g.AddEdge(u, v, 1, rng.Float64())
		}
		g.Build()
		if g.NumEdges() < 4 {
			return true
		}
		train, held, err := g.SplitByTime(0.3)
		if err != nil {
			return false
		}
		return train.NumEdges()+len(held) == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNeighborsBefore(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	g := NewTemporal(n)
	for i := 0; i < 20000; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		_ = g.AddEdge(u, v, 1, rng.Float64())
	}
	g.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NeighborsBefore(NodeID(i%n), 0.5)
	}
}
