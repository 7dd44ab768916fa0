package walk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ehna/internal/graph"
)

// Config returns the walker's configuration.
func (w *TemporalWalker) Config() TemporalConfig { return w.cfg }

// chain builds 0-1-2-3-4 with strictly increasing edge times 1,2,3,4.
func chain(t *testing.T) *graph.Temporal {
	t.Helper()
	g := graph.NewTemporal(5)
	for i := 0; i < 4; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g.Build()
	return g
}

// clique builds a complete graph over n nodes, all edges at time 1.
func clique(t *testing.T, n int) *graph.Temporal {
	t.Helper()
	g := graph.NewTemporal(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(graph.NodeID(i), graph.NodeID(j), 1, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Build()
	return g
}

// Walks returns walks the caller owns: WalksScratch into a fresh Scratch.
func (w *TemporalWalker) Walks(x graph.NodeID, tTarget float64, rng *rand.Rand) []Walk {
	return w.WalksScratch(new(Scratch), x, tTarget, rng)
}

func TestTemporalConfigValidate(t *testing.T) {
	bad := []TemporalConfig{
		{P: 0, Q: 1, NumWalks: 1, WalkLen: 1},
		{P: 1, Q: -1, NumWalks: 1, WalkLen: 1},
		{P: 1, Q: 1, NumWalks: 0, WalkLen: 1},
		{P: 1, Q: 1, NumWalks: 1, WalkLen: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if err := DefaultTemporalConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	g := chain(t)
	if _, err := NewTemporalWalker(g, TemporalConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestTemporalWalkRelevanceConstraint(t *testing.T) {
	// Walking from node 4 at target time 5: edge times must be
	// non-increasing along the walk (Definition 2) and ≤ tTarget.
	g := chain(t)
	w, err := NewTemporalWalker(g, TemporalConfig{P: 1, Q: 1, NumWalks: 20, WalkLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, wk := range w.Walks(4, 5, rng) {
		if wk.Nodes[0] != 4 {
			t.Fatal("walk must start at source")
		}
		if len(wk.Times) != len(wk.Nodes)-1 {
			t.Fatal("times length mismatch")
		}
		prev := 5.0
		for _, tm := range wk.Times {
			if tm > prev {
				t.Fatalf("timestamps increased along walk: %v", wk.Times)
			}
			prev = tm
		}
	}
}

func TestTemporalWalkRespectsTargetTime(t *testing.T) {
	// Target time 2 from node 2: edges at times 3,4 are in the future and
	// must never be traversed. Only 0-1-2 side is reachable.
	g := chain(t)
	w, _ := NewTemporalWalker(g, TemporalConfig{P: 1, Q: 1, NumWalks: 50, WalkLen: 5})
	rng := rand.New(rand.NewSource(2))
	for _, wk := range w.Walks(2, 2, rng) {
		for _, n := range wk.Nodes {
			if n == 3 || n == 4 {
				t.Fatalf("future node %d visited: %v", n, wk.Nodes)
			}
		}
	}
}

func TestTemporalWalkEarlyTermination(t *testing.T) {
	// From node 0 at time 1 the only edge is (0,1,t=1). After moving to 1,
	// the only continuations are backtracking (0, t=1) or (1,2,t=2) which
	// violates non-increasing time — so walks are confined to {0,1}.
	g := chain(t)
	w, _ := NewTemporalWalker(g, TemporalConfig{P: 1, Q: 1, NumWalks: 30, WalkLen: 6})
	rng := rand.New(rand.NewSource(3))
	for _, wk := range w.Walks(0, 1, rng) {
		for _, n := range wk.Nodes {
			if n != 0 && n != 1 {
				t.Fatalf("node %d beyond temporal horizon: %v", n, wk.Nodes)
			}
		}
	}
	// A node with no history at all yields bare single-node walks.
	for _, wk := range w.Walks(4, 0.5, rng) {
		if wk.Len() != 1 {
			t.Fatalf("expected bare walk, got %v", wk.Nodes)
		}
	}
}

func TestTemporalWalkCount(t *testing.T) {
	g := clique(t, 6)
	cfg := TemporalConfig{P: 1, Q: 1, NumWalks: 7, WalkLen: 4}
	w, _ := NewTemporalWalker(g, cfg)
	if w.Config() != cfg {
		t.Fatal("Config roundtrip")
	}
	rng := rand.New(rand.NewSource(4))
	walks := w.Walks(0, 2, rng)
	if len(walks) != 7 {
		t.Fatalf("got %d walks want 7", len(walks))
	}
	for _, wk := range walks {
		if wk.Len() != 4 {
			t.Fatalf("clique walk stopped early: %v", wk.Nodes)
		}
	}
}

func TestTemporalWalkSmallPBacktracks(t *testing.T) {
	// On a clique with uniform times, p ≪ 1 strongly favors returning to
	// the previous node; p ≫ 1 avoids it.
	g := clique(t, 8)
	count := func(p float64, seed int64) int {
		w, _ := NewTemporalWalker(g, TemporalConfig{P: p, Q: 1, NumWalks: 200, WalkLen: 6})
		rng := rand.New(rand.NewSource(seed))
		back := 0
		for _, wk := range w.Walks(0, 2, rng) {
			for i := 2; i < len(wk.Nodes); i++ {
				if wk.Nodes[i] == wk.Nodes[i-2] {
					back++
				}
			}
		}
		return back
	}
	lo := count(0.05, 5)
	hi := count(20, 5)
	if lo <= hi*2 {
		t.Fatalf("backtracking not controlled by p: p=0.05 → %d, p=20 → %d", lo, hi)
	}
}

func TestTemporalWalkQBiasesBFS(t *testing.T) {
	// Wheel with spokes: hub 0 joined to ring 1-2-3; each ring node also
	// has a private outer leaf (4,5,6) NOT adjacent to the hub. After
	// stepping 0→i, the next hop chooses between ring neighbors (distance 1
	// from the hub, β=1) and the outer leaf (distance 2, β=1/q), so large q
	// (BFS) keeps the walk near the hub while small q (DFS) pushes outward.
	g := graph.NewTemporal(7)
	for i := 1; i <= 3; i++ {
		_ = g.AddEdge(0, graph.NodeID(i), 1, 1)
	}
	_ = g.AddEdge(1, 2, 1, 1)
	_ = g.AddEdge(2, 3, 1, 1)
	_ = g.AddEdge(3, 1, 1, 1)
	_ = g.AddEdge(1, 4, 1, 1)
	_ = g.AddEdge(2, 5, 1, 1)
	_ = g.AddEdge(3, 6, 1, 1)
	g.Build()

	frac := func(q float64) float64 {
		w, _ := NewTemporalWalker(g, TemporalConfig{P: 1000, Q: q, NumWalks: 400, WalkLen: 3})
		rng := rand.New(rand.NewSource(6))
		local, total := 0, 0
		for _, wk := range w.Walks(0, 2, rng) {
			if wk.Len() < 3 {
				continue
			}
			total++
			// Step 2 lands on a node adjacent to the start (d=1) or not (d=2).
			if g.HasEdge(0, wk.Nodes[2]) && wk.Nodes[2] != 0 {
				local++
			}
		}
		if total == 0 {
			t.Fatal("no full walks")
		}
		return float64(local) / float64(total)
	}
	if bfs, dfs := frac(10), frac(0.1); bfs <= dfs {
		t.Fatalf("q bias inverted: frac(q=10)=%g ≤ frac(q=0.1)=%g", bfs, dfs)
	}
}

func TestTemporalWalkStaticIgnoresTime(t *testing.T) {
	// Static mode (EHNA-RW ablation) can traverse future edges.
	g := chain(t)
	w, _ := NewTemporalWalker(g, TemporalConfig{P: 1, Q: 1, NumWalks: 100, WalkLen: 5, Static: true})
	rng := rand.New(rand.NewSource(7))
	sawFuture := false
	for _, wk := range w.Walks(0, 1, rng) {
		for _, n := range wk.Nodes {
			if n > 1 {
				sawFuture = true
			}
		}
	}
	if !sawFuture {
		t.Fatal("static walk never escaped the temporal horizon")
	}
}

func TestTemporalWalkDecayPrefersRecent(t *testing.T) {
	// Node 0 has two neighbors: node 1 (old edge, t=0) and node 2 (recent,
	// t≈1). With the decay kernel, first steps should prefer node 2.
	g := graph.NewTemporal(3)
	_ = g.AddEdge(0, 1, 1, 0)
	_ = g.AddEdge(0, 2, 1, 0.99)
	g.Build()
	w, _ := NewTemporalWalker(g, TemporalConfig{P: 1, Q: 1, NumWalks: 2000, WalkLen: 2})
	rng := rand.New(rand.NewSource(8))
	recent := 0
	for _, wk := range w.Walks(0, 1, rng) {
		if wk.Len() > 1 && wk.Nodes[1] == 2 {
			recent++
		}
	}
	// exp(-0.01)/(exp(-0.01)+exp(-1)) ≈ 0.73
	fr := float64(recent) / 2000
	if fr < 0.68 || fr > 0.78 {
		t.Fatalf("recency preference %g, want ≈0.73", fr)
	}
}

// Property: every temporal walk satisfies Definition 2 on random graphs.
func TestPropertyTemporalWalkRelevance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := graph.NewTemporal(n)
		for i := 0; i < 3*n; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			_ = g.AddEdge(u, v, 0.5+rng.Float64(), rng.Float64())
		}
		g.Build()
		w, err := NewTemporalWalker(g, TemporalConfig{P: 0.5, Q: 2, NumWalks: 3, WalkLen: 6})
		if err != nil {
			return false
		}
		src := graph.NodeID(rng.Intn(n))
		tTarget := rng.Float64()
		for _, wk := range w.Walks(src, tTarget, rng) {
			if wk.Nodes[0] != src || len(wk.Times) != len(wk.Nodes)-1 {
				return false
			}
			prev := tTarget
			for i, tm := range wk.Times {
				if tm > prev {
					return false
				}
				// The traversed edge must actually exist at that time.
				if !g.HasEdgeBefore(wk.Nodes[i], wk.Nodes[i+1], tm) {
					return false
				}
				prev = tm
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNode2VecWalkerValidation(t *testing.T) {
	g := chain(t)
	if _, err := NewNode2VecWalker(g, 0, 1); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewNode2VecWalker(g, 1, 0); err == nil {
		t.Fatal("q=0 accepted")
	}
}

func TestNode2VecWalkLengthAndConnectivity(t *testing.T) {
	g := clique(t, 5)
	w, _ := NewNode2VecWalker(g, 1, 1)
	rng := rand.New(rand.NewSource(9))
	nodes := w.Walk(0, 10, rng)
	if len(nodes) != 10 {
		t.Fatalf("walk length %d want 10", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if !g.HasEdge(nodes[i-1], nodes[i]) {
			t.Fatal("walk traversed a non-edge")
		}
	}
}

func TestNode2VecWalkDeadEnd(t *testing.T) {
	g := graph.NewTemporal(3)
	_ = g.AddEdge(0, 1, 1, 1)
	g.Build()
	w, _ := NewNode2VecWalker(g, 1, 1)
	rng := rand.New(rand.NewSource(10))
	nodes := w.Walk(2, 5, rng) // isolated node
	if len(nodes) != 1 {
		t.Fatalf("isolated start should yield length-1 walk, got %v", nodes)
	}
}

func TestCTDNEWalkNonDecreasingTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.NewTemporal(20)
	for i := 0; i < 80; i++ {
		u, v := graph.NodeID(rng.Intn(20)), graph.NodeID(rng.Intn(20))
		if u == v {
			continue
		}
		_ = g.AddEdge(u, v, 1, rng.Float64())
	}
	g.Build()
	w := NewCTDNEWalker(g)
	for _, e := range g.Edges() {
		nodes := w.WalkFromEdge(e, 8, rng)
		if nodes[0] != e.U || nodes[1] != e.V {
			t.Fatal("walk must start by traversing the seed edge")
		}
		// Verify each hop exists with a time ≥ the previous hop by
		// replaying reachability: every consecutive pair must share an edge.
		for i := 2; i < len(nodes); i++ {
			if !g.HasEdge(nodes[i-1], nodes[i]) {
				t.Fatal("CTDNE traversed a non-edge")
			}
		}
	}
}

func TestCTDNEWalkStopsAtTemporalDeadEnd(t *testing.T) {
	g := chain(t)
	w := NewCTDNEWalker(g)
	rng := rand.New(rand.NewSource(12))
	// Seed with the last edge (3,4,t=4): node 4 has no later edges, so the
	// walk can only continue via (4,3,t=4) ... which then allows (3,4,t=4)
	// again; lengths are capped by the length argument regardless.
	nodes := w.WalkFromEdge(graph.Edge{U: 3, V: 4, Weight: 1, Time: 4}, 4, rng)
	if len(nodes) > 4 {
		t.Fatalf("walk exceeded cap: %v", nodes)
	}
}

func BenchmarkTemporalWalks(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	g := graph.NewTemporal(n)
	for i := 0; i < 20000; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		_ = g.AddEdge(u, v, 1, rng.Float64())
	}
	g.Build()
	w, _ := NewTemporalWalker(g, DefaultTemporalConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Walks(graph.NodeID(i%n), 0.9, rng)
	}
}
