package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ehna/internal/graph"
)

// MustAlias is NewAlias that panics on error; for weights known valid.
func MustAlias(weights []float64) *Alias {
	a, err := NewAlias(weights)
	if err != nil {
		panic(err)
	}
	return a
}

func TestNewAliasValidation(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewAlias([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := NewAlias([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("Inf weight accepted")
	}
}

func TestMustAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustAlias(nil)
}

func TestAliasMatchesDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := MustAlias(weights)
	if a.Len() != 4 {
		t.Fatal("Len")
	}
	rng := rand.New(rand.NewSource(1))
	const draws = 200000
	counts := make([]int, 4)
	for i := 0; i < draws; i++ {
		counts[a.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("index %d: empirical %g want %g", i, got, want)
		}
	}
}

func TestAliasDegenerateSingle(t *testing.T) {
	a := MustAlias([]float64{5})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		if a.Draw(rng) != 0 {
			t.Fatal("single-element table must always return 0")
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a := MustAlias([]float64{1, 0, 1})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if a.Draw(rng) == 1 {
			t.Fatal("zero-weight index drawn")
		}
	}
}

// Property: alias tables over random weights stay within statistical
// tolerance of the target distribution.
func TestAliasProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		w := make([]float64, n)
		var sum float64
		for i := range w {
			w[i] = rng.Float64() + 0.05
			sum += w[i]
		}
		a := MustAlias(w)
		const draws = 30000
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[a.Draw(rng)]++
		}
		for i := range w {
			want := w[i] / sum
			got := float64(counts[i]) / draws
			if math.Abs(got-want) > 0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func starGraph(t *testing.T) *graph.Temporal {
	t.Helper()
	// Node 0 is a hub of degree 5; leaves have degree 1; node 6 isolated.
	g := graph.NewTemporal(7)
	for i := 1; i <= 5; i++ {
		if err := g.AddEdge(0, graph.NodeID(i), 1, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g.Build()
	return g
}

func TestNegativeSamplerDistribution(t *testing.T) {
	g := starGraph(t)
	s, err := NewNegative(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const draws = 100000
	counts := make(map[graph.NodeID]int)
	for i := 0; i < draws; i++ {
		counts[s.Draw(rng)]++
	}
	if counts[6] != 0 {
		t.Fatal("isolated node sampled")
	}
	// Hub: 5^0.75, each leaf: 1; P(hub) = 5^0.75/(5^0.75+5).
	wHub := math.Pow(5, 0.75)
	wantHub := wHub / (wHub + 5)
	gotHub := float64(counts[0]) / draws
	if math.Abs(gotHub-wantHub) > 0.01 {
		t.Fatalf("hub probability %g want %g", gotHub, wantHub)
	}
}

func TestNegativeSamplerExcludes(t *testing.T) {
	g := starGraph(t)
	s, err := NewNegative(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		v := s.Draw(rng, 0)
		if v == 0 {
			t.Fatal("excluded hub sampled")
		}
	}
}

func TestNegativeSamplerAllIsolated(t *testing.T) {
	g := graph.NewTemporal(3)
	g.Build()
	if _, err := NewNegative(g); err == nil {
		t.Fatal("sampler over isolated-only graph accepted")
	}
}

func TestNegativeSamplerBoundedRejection(t *testing.T) {
	// Excluding every node must still terminate (returns some node).
	g := graph.NewTemporal(2)
	_ = g.AddEdge(0, 1, 1, 0)
	g.Build()
	s, err := NewNegative(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	_ = s.Draw(rng, 0, 1) // must not hang
}

func BenchmarkAliasDraw(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, 10000)
	for i := range w {
		w[i] = rng.Float64()
	}
	a := MustAlias(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Draw(rng)
	}
}
