package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConnectedComponents(t *testing.T) {
	g := NewTemporal(6)
	_ = g.AddEdge(0, 1, 1, 1)
	_ = g.AddEdge(1, 2, 1, 2)
	_ = g.AddEdge(3, 4, 1, 3)
	g.Build() // components: {0,1,2}, {3,4}, {5}
	comp := g.ConnectedComponents()
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("first component split: %v", comp)
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Fatalf("second component wrong: %v", comp)
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatalf("isolated node merged: %v", comp)
	}
	if g.NumComponents() != 3 {
		t.Fatalf("NumComponents %d want 3", g.NumComponents())
	}
}

func TestComputeTemporalStats(t *testing.T) {
	g := tiny(t)
	st, ok := g.ComputeTemporalStats()
	if !ok {
		t.Fatal("stats unavailable")
	}
	if st.MeanInterEvent <= 0 || st.MedianInterEvent < 0 {
		t.Fatalf("inter-event stats %+v", st)
	}
	// (1,3) repeats once among 12 edges.
	if math.Abs(st.RepeatEdgeFraction-1.0/12) > 1e-12 {
		t.Fatalf("repeat fraction %g", st.RepeatEdgeFraction)
	}
	if st.BurstRatio <= 0 || st.BurstRatio > 1 {
		t.Fatalf("burst ratio %g", st.BurstRatio)
	}
	small := NewTemporal(2)
	_ = small.AddEdge(0, 1, 1, 1)
	small.Build()
	if _, ok := small.ComputeTemporalStats(); ok {
		t.Fatal("single-edge graph must report not-ok")
	}
}

func TestBurstRatioDetectsBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mk := func(burst bool) *Temporal {
		g := NewTemporal(50)
		for i := 0; i < 500; i++ {
			u, v := NodeID(rng.Intn(50)), NodeID(rng.Intn(50))
			if u == v {
				continue
			}
			tm := rng.Float64()
			if burst && rng.Float64() < 0.6 {
				tm = 0.9 + 0.1*rng.Float64()
			}
			_ = g.AddEdge(u, v, 1, tm)
		}
		g.Build()
		return g
	}
	su, _ := mk(false).ComputeTemporalStats()
	sb, _ := mk(true).ComputeTemporalStats()
	if sb.BurstRatio < 2*su.BurstRatio {
		t.Fatalf("burst %g vs uniform %g", sb.BurstRatio, su.BurstRatio)
	}
}

func TestGiniDegree(t *testing.T) {
	// Regular ring: perfectly equal degrees → Gini 0.
	ring := NewTemporal(10)
	for i := 0; i < 10; i++ {
		_ = ring.AddEdge(NodeID(i), NodeID((i+1)%10), 1, float64(i))
	}
	ring.Build()
	if gi := ring.GiniDegree(); math.Abs(gi) > 1e-12 {
		t.Fatalf("ring Gini %g", gi)
	}
	// Star: one hub, many leaves → high inequality.
	star := NewTemporal(20)
	for i := 1; i < 20; i++ {
		_ = star.AddEdge(0, NodeID(i), 1, float64(i))
	}
	star.Build()
	if gi := star.GiniDegree(); gi < 0.4 {
		t.Fatalf("star Gini %g too low", gi)
	}
	empty := NewTemporal(3)
	empty.Build()
	if empty.GiniDegree() != 0 {
		t.Fatal("empty Gini must be 0")
	}
}

// Property: component labels are consistent with edge connectivity.
func TestPropertyComponentsRespectEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		g := NewTemporal(n)
		for i := 0; i < 20; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			_ = g.AddEdge(u, v, 1, rng.Float64())
		}
		g.Build()
		comp := g.ConnectedComponents()
		for _, e := range g.Edges() {
			if comp[e.U] != comp[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterEdgesAndWindow(t *testing.T) {
	g := tiny(t)
	// Drop everything involving node 1.
	filtered := g.FilterEdges(func(e Edge) bool { return e.U != 1 && e.V != 1 })
	if filtered.NumNodes() != g.NumNodes() {
		t.Fatal("node universe must be preserved")
	}
	for _, e := range filtered.Edges() {
		if e.U == 1 || e.V == 1 {
			t.Fatal("filtered edge survived")
		}
	}
	if filtered.Degree(1) != 0 {
		t.Fatal("node 1 should be isolated after filtering")
	}
	// A time window keeps only mid-range years.
	win := g.FilterEdges(func(e Edge) bool { return e.Time >= 2013 && e.Time <= 2016 })
	for _, e := range win.Edges() {
		if e.Time < 2013 || e.Time > 2016 {
			t.Fatalf("edge at %g escaped window", e.Time)
		}
	}
	if win.NumEdges() != 5 {
		t.Fatalf("window edges %d want 5", win.NumEdges())
	}
}
