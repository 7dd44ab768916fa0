package skipgram

import (
	"math/rand"
	"testing"

	"ehna/internal/graph"
	"ehna/internal/sample"
	"ehna/internal/tensor"
)

// uniformNoise is a negative-sampling distribution over n equally
// likely nodes.
func uniformNoise(tb testing.TB, n int) *sample.Alias {
	tb.Helper()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	a, err := sample.NewAlias(w)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Dim: 0, Window: 1, Negatives: 1, LR: 0.1, Epochs: 1},
		{Dim: 8, Window: 0, Negatives: 1, LR: 0.1, Epochs: 1},
		{Dim: 8, Window: 1, Negatives: 0, LR: 0.1, Epochs: 1},
		{Dim: 8, Window: 1, Negatives: 1, LR: 0, Epochs: 1},
		{Dim: 8, Window: 1, Negatives: 1, LR: 0.1, Epochs: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if err := (Config{Dim: 128, Window: 10, Negatives: 5, LR: 0.025, Epochs: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainInputValidation(t *testing.T) {
	noise := uniformNoise(t, 2)
	cfg := Config{Dim: 4, Window: 2, Negatives: 2, LR: 0.1, Epochs: 1}
	if _, err := Train(nil, 2, noise, cfg, 1); err == nil {
		t.Fatal("empty sequences accepted")
	}
	if _, err := Train([][]graph.NodeID{{0, 1}}, 2, nil, cfg, 1); err == nil {
		t.Fatal("nil noise accepted")
	}
	if _, err := Train([][]graph.NodeID{{0, 1}}, 2, noise, Config{}, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestNewModelInit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewModel(5, 8, rng)
	if m.Emb.Rows != 5 || m.Emb.Cols != 8 || m.Ctx.Rows != 5 {
		t.Fatal("model shapes")
	}
	if tensor.L2NormVec(m.Ctx.Data) != 0 {
		t.Fatal("context matrix must start at zero")
	}
	for _, v := range m.Emb.Data {
		if v < -0.5/8 || v >= 0.5/8 {
			t.Fatalf("init value %g outside word2vec range", v)
		}
	}
}

// twoCliqueSequences emits walks confined to two disjoint cliques
// {0,1,2} and {3,4,5}; SGNS must place same-clique nodes closer.
func twoCliqueSequences(rng *rand.Rand, n int) [][]graph.NodeID {
	var seqs [][]graph.NodeID
	groups := [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}}
	for i := 0; i < n; i++ {
		grp := groups[i%2]
		seq := make([]graph.NodeID, 12)
		for j := range seq {
			seq[j] = grp[rng.Intn(len(grp))]
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

func TestTrainSeparatesCommunities(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seqs := twoCliqueSequences(rng, 400)
	noise := uniformNoise(t, 6)
	cfg := Config{Dim: 16, Window: 4, Negatives: 5, LR: 0.08, Epochs: 15, Workers: 1}
	m, err := Train(seqs, 6, noise, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// SGNS converges to a shifted-PMI equilibrium: the discriminative
	// signal lives in the emb·ctx scores (used for prediction), which must
	// be far higher for co-occurring (intra-clique) pairs than for
	// never-co-occurring (inter-clique) pairs.
	score := func(a, b int) float64 {
		return tensor.DotVec(m.Emb.Row(a), m.Ctx.Row(b))
	}
	intra := (score(0, 1) + score(1, 2) + score(3, 4) + score(4, 5)) / 4
	inter := (score(0, 3) + score(1, 4) + score(2, 5)) / 3
	if intra <= inter+2 {
		t.Fatalf("communities not separated in score space: intra %g inter %g", intra, inter)
	}
	// The input embeddings themselves must also order correctly, if less
	// dramatically at this tiny vocabulary size.
	cos := func(a, b int) float64 {
		va, vb := m.Emb.Row(a), m.Emb.Row(b)
		return tensor.DotVec(va, vb) / (tensor.L2NormVec(va)*tensor.L2NormVec(vb) + 1e-12)
	}
	intraCos := (cos(0, 1) + cos(1, 2) + cos(3, 4) + cos(4, 5)) / 4
	interCos := (cos(0, 3) + cos(1, 4) + cos(2, 5)) / 3
	if intraCos <= interCos {
		t.Fatalf("embedding cosine ordering inverted: intra %g inter %g", intraCos, interCos)
	}
}

func TestTrainDeterministicSingleWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seqs := twoCliqueSequences(rng, 50)
	noise := uniformNoise(t, 6)
	cfg := Config{Dim: 8, Window: 3, Negatives: 3, LR: 0.05, Epochs: 1, Workers: 1}
	m1, err := Train(seqs, 6, noise, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(seqs, 6, noise, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(m1.Emb, m2.Emb, 0) {
		t.Fatal("single-worker training must be deterministic for a fixed seed")
	}
}

func TestDegreeNoise(t *testing.T) {
	g := graph.NewTemporal(4)
	_ = g.AddEdge(0, 1, 1, 1)
	_ = g.AddEdge(0, 2, 1, 2)
	_ = g.AddEdge(0, 3, 1, 3)
	g.Build()
	noise, err := DegreeNoise(g)
	if err != nil {
		t.Fatal(err)
	}
	if noise.Len() != 4 {
		t.Fatal("noise support size")
	}
	// Node 0 (degree 3) must be drawn more often than the leaves.
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 4)
	for i := 0; i < 20000; i++ {
		counts[noise.Draw(rng)]++
	}
	if counts[0] <= counts[1] {
		t.Fatalf("hub not preferred: %v", counts)
	}
	empty := graph.NewTemporal(2)
	empty.Build()
	if _, err := DegreeNoise(empty); err == nil {
		t.Fatal("edgeless graph accepted")
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seqs := twoCliqueSequences(rng, 200)
	noise := uniformNoise(b, 6)
	cfg := Config{Dim: 64, Window: 5, Negatives: 5, LR: 0.025, Epochs: 1, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(seqs, 6, noise, cfg, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPairLoopZeroAlloc asserts the SGNS inner loop — the hogwild hot
// path every worker spins on — performs no allocations per sequence
// once the per-worker grad scratch exists.
func TestPairLoopZeroAlloc(t *testing.T) {
	cfg := Config{Dim: 32, Window: 4, Negatives: 5, LR: 0.025, Epochs: 1}
	rng := rand.New(rand.NewSource(1))
	m := NewModel(50, cfg.Dim, rng)
	noise, err := sample.NewAlias(make50Weights())
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]graph.NodeID, 20)
	for i := range seq {
		seq[i] = graph.NodeID(rng.Intn(50))
	}
	grad := make([]float64, cfg.Dim)
	allocs := testing.AllocsPerRun(50, func() {
		m.trainSequence(seq, noise, cfg, cfg.LR, rng, grad)
	})
	if allocs != 0 {
		t.Fatalf("SGNS pair loop allocated %v times per sequence", allocs)
	}
}

func make50Weights() []float64 {
	w := make([]float64, 50)
	for i := range w {
		w[i] = float64(i%7) + 1
	}
	return w
}
