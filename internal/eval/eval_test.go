package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/testutil"
)

func TestOperatorString(t *testing.T) {
	names := map[Operator]string{
		Mean: "Mean", Hadamard: "Hadamard", WeightedL1: "Weighted-L1", WeightedL2: "Weighted-L2",
	}
	for op, want := range names {
		if op.String() != want {
			t.Fatalf("%v", op)
		}
	}
	if len(Operators) != 4 {
		t.Fatal("Operators must list all four")
	}
}

func TestOperatorApply(t *testing.T) {
	ex := []float64{1, -2, 3}
	ey := []float64{3, 2, -1}
	dst := make([]float64, 3)
	Mean.Apply(dst, ex, ey)
	if dst[0] != 2 || dst[1] != 0 || dst[2] != 1 {
		t.Fatalf("mean %v", dst)
	}
	Hadamard.Apply(dst, ex, ey)
	if dst[0] != 3 || dst[1] != -4 || dst[2] != -3 {
		t.Fatalf("hadamard %v", dst)
	}
	WeightedL1.Apply(dst, ex, ey)
	if dst[0] != 2 || dst[1] != 4 || dst[2] != 4 {
		t.Fatalf("l1 %v", dst)
	}
	WeightedL2.Apply(dst, ex, ey)
	if dst[0] != 4 || dst[1] != 16 || dst[2] != 16 {
		t.Fatalf("l2 %v", dst)
	}
}

func TestOperatorApplyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mean.Apply(make([]float64, 2), make([]float64, 3), make([]float64, 3))
}

func TestEdgeFeatures(t *testing.T) {
	emb := tensor.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	pairs := []NodePair{{0, 1}, {1, 2}}
	X := EdgeFeatures(emb, pairs, Mean)
	if X.Rows != 2 || X.Cols != 2 {
		t.Fatal("shape")
	}
	if X.At(0, 0) != 2 || X.At(1, 1) != 5 {
		t.Fatalf("values %v", X.Data)
	}
}

func TestAUCPerfectAndInverted(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 1, 0, 0}
	auc, err := AUC(scores, labels)
	if err != nil || auc != 1 {
		t.Fatalf("perfect AUC %g err %v", auc, err)
	}
	auc, err = AUC(scores, []int{0, 0, 1, 1})
	if err != nil || auc != 0 {
		t.Fatalf("inverted AUC %g err %v", auc, err)
	}
}

func TestAUCTiesGiveHalf(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []int{1, 0, 1, 0}
	auc, err := AUC(scores, labels)
	if err != nil || math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("tied AUC %g err %v", auc, err)
	}
}

func TestAUCErrors(t *testing.T) {
	if _, err := AUC([]float64{1}, []int{1, 0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := AUC([]float64{1, 2}, []int{1, 1}); err == nil {
		t.Fatal("single-class accepted")
	}
	if _, err := AUC([]float64{1, 2}, []int{1, 5}); err == nil {
		t.Fatal("non-binary label accepted")
	}
}

func TestAUCMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		scores := make([]float64, n)
		labels := make([]int, n)
		nPos := 0
		for i := range scores {
			scores[i] = math.Round(rng.Float64()*10) / 10 // force ties
			labels[i] = rng.Intn(2)
			nPos += labels[i]
		}
		if nPos == 0 || nPos == n {
			return true
		}
		got, err := AUC(scores, labels)
		if err != nil {
			return false
		}
		// Brute force: P(score_pos > score_neg) + 0.5 P(equal).
		var num, den float64
		for i := range scores {
			if labels[i] != 1 {
				continue
			}
			for j := range scores {
				if labels[j] != 0 {
					continue
				}
				den++
				if scores[i] > scores[j] {
					num++
				} else if scores[i] == scores[j] {
					num += 0.5
				}
			}
		}
		return math.Abs(got-num/den) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionMetrics(t *testing.T) {
	pred := []int{1, 1, 0, 0, 1}
	labels := []int{1, 0, 0, 1, 1}
	c, err := Confuse(pred, labels)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 2 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("%+v", c)
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Fatal("precision")
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-12 {
		t.Fatal("recall")
	}
	if math.Abs(c.F1()-2.0/3) > 1e-12 {
		t.Fatal("f1")
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty confusion must yield zeros")
	}
	if _, err := Confuse([]int{1}, []int{1, 0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestErrorReduction(t *testing.T) {
	// them 0.9 → error 0.1; us 0.95 → error 0.05; reduction 50%.
	if got := ErrorReduction(0.9, 0.95); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("got %g", got)
	}
	// Worse performance yields negative reduction.
	if got := ErrorReduction(0.9, 0.8); got >= 0 {
		t.Fatalf("got %g", got)
	}
	if got := ErrorReduction(1.0, 0.9); got != 0 {
		t.Fatalf("degenerate them=1: got %g", got)
	}
}

func TestSampleNegativePairs(t *testing.T) {
	g := testutil.TwoCommunities(5, 0.6, 1)
	rng := rand.New(rand.NewSource(2))
	pairs, err := SampleNegativePairs(g, 20, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 20 {
		t.Fatalf("%d pairs", len(pairs))
	}
	for _, p := range pairs {
		if g.HasEdge(p.U, p.V) {
			t.Fatal("negative pair is an edge")
		}
		if p.U > p.V {
			t.Fatal("pair not canonical")
		}
	}
}

func TestSampleNegativePairsRespectsForbidden(t *testing.T) {
	// Tiny graph where only one non-edge exists; forbidding it must fail.
	g := graph.NewTemporal(3)
	_ = g.AddEdge(0, 1, 1, 1)
	_ = g.AddEdge(1, 2, 1, 2)
	g.Build()
	forbidden := map[NodePair]bool{{U: 0, V: 2}: true}
	rng := rand.New(rand.NewSource(3))
	if _, err := SampleNegativePairs(g, 1, forbidden, rng); err == nil {
		t.Fatal("expected exhaustion error")
	}
	pairs, err := SampleNegativePairs(g, 1, nil, rng)
	if err != nil || pairs[0] != (NodePair{U: 0, V: 2}) {
		t.Fatalf("pairs %v err %v", pairs, err)
	}
}

func TestPrecisionAtPPerfectEmbedding(t *testing.T) {
	// Embed two cliques at two distant points: reconstruction should be
	// perfect until P exceeds the number of true edges among samples.
	g := testutil.TwoCommunities(4, 1.0, 4) // two 4-cliques + bridge
	emb := tensor.New(8, 2)
	for i := 0; i < 8; i++ {
		if i < 4 {
			emb.SetRow(i, []float64{1, 0})
		} else {
			emb.SetRow(i, []float64{0, 1})
		}
	}
	nodes := make([]graph.NodeID, 8)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	// 12 intra-pairs are all true edges (plus 1 bridge among inter pairs).
	ps, err := PrecisionAtP(g, emb, nodes, []int{6, 12})
	if err != nil {
		t.Fatal(err)
	}
	if ps[0] != 1 || ps[1] != 1 {
		t.Fatalf("precision %v, want perfect", ps)
	}
	// At P=28 (all pairs) precision = 13/28.
	ps, err = PrecisionAtP(g, emb, nodes, []int{28})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ps[0]-13.0/28) > 1e-12 {
		t.Fatalf("precision@28 = %g want %g", ps[0], 13.0/28)
	}
}

func TestPrecisionAtPErrors(t *testing.T) {
	g := testutil.TwoCommunities(3, 1, 5)
	emb := tensor.New(6, 2)
	nodes := []graph.NodeID{0, 1, 2}
	if _, err := PrecisionAtP(g, emb, nodes, nil); err == nil {
		t.Fatal("no Ps accepted")
	}
	if _, err := PrecisionAtP(g, emb, nodes, []int{2, 2}); err == nil {
		t.Fatal("non-ascending Ps accepted")
	}
	if _, err := PrecisionAtP(g, emb, nodes, []int{100}); err == nil {
		t.Fatal("P beyond pair count accepted")
	}
	if _, err := PrecisionAtP(g, emb, []graph.NodeID{0}, []int{1}); err == nil {
		t.Fatal("single sample node accepted")
	}
}

func TestBuildLinkPredDataBalanced(t *testing.T) {
	g := testutil.TwoCommunities(6, 0.7, 6)
	_, held, err := g.SplitByTime(0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	d, err := BuildLinkPredData(g, held, rng)
	if err != nil {
		t.Fatal(err)
	}
	pos, neg := 0, 0
	for _, l := range d.Labels {
		if l == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos != neg || pos == 0 {
		t.Fatalf("unbalanced: %d pos %d neg", pos, neg)
	}
	if _, err := BuildLinkPredData(g, nil, rng); err == nil {
		t.Fatal("empty held-out accepted")
	}
}

func TestLinkPredSplit(t *testing.T) {
	g := testutil.TwoCommunities(6, 0.7, 8)
	_, held, err := g.SplitByTime(0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	d, err := BuildLinkPredData(g, held, rng)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := d.Split(0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Pairs)+len(test.Pairs) != len(d.Pairs) {
		t.Fatal("split lost examples")
	}
	if _, _, err := d.Split(0, rng); err == nil {
		t.Fatal("frac 0 accepted")
	}
	if _, _, err := d.Split(1, rng); err == nil {
		t.Fatal("frac 1 accepted")
	}
}

func TestCombinedFeatures(t *testing.T) {
	emb := tensor.FromRows([][]float64{{1, 2}, {3, 4}})
	pairs := []NodePair{{0, 1}}
	X, err := CombinedFeatures(emb, pairs, []Operator{Mean, Hadamard})
	if err != nil {
		t.Fatal(err)
	}
	if X.Rows != 1 || X.Cols != 4 {
		t.Fatalf("shape %dx%d", X.Rows, X.Cols)
	}
	want := []float64{2, 3, 3, 8} // mean then hadamard
	for i, v := range want {
		if X.At(0, i) != v {
			t.Fatalf("X %v want %v", X.Data, want)
		}
	}
	if _, err := CombinedFeatures(emb, pairs, nil); err == nil {
		t.Fatal("empty operator list accepted")
	}
}

func TestRecallAtK(t *testing.T) {
	exact := []graph.NodeID{1, 2, 3, 4}
	cases := []struct {
		name   string
		approx []graph.NodeID
		want   float64
	}{
		{"perfect", []graph.NodeID{4, 3, 2, 1}, 1},
		{"half", []graph.NodeID{1, 2, 9, 8}, 0.5},
		{"miss", []graph.NodeID{7, 8, 9, 10}, 0},
		{"short approx", []graph.NodeID{1}, 0.25},
		{"duplicate approx counted once", []graph.NodeID{1, 1, 1, 1}, 0.25},
		{"extra hits ignored", []graph.NodeID{1, 2, 3, 4, 5, 6}, 1},
	}
	for _, c := range cases {
		got, err := RecallAtK(c.approx, exact)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Fatalf("%s: recall = %g, want %g", c.name, got, c.want)
		}
	}
	if _, err := RecallAtK(nil, nil); err == nil {
		t.Fatal("empty exact set accepted")
	}
	if _, err := RecallAtK(nil, []graph.NodeID{1, 1}); err == nil {
		t.Fatal("duplicated exact set accepted")
	}
}

func TestMeanRecallAtK(t *testing.T) {
	approx := [][]graph.NodeID{{1, 2}, {5, 6}}
	exact := [][]graph.NodeID{{1, 2}, {5, 7}}
	got, err := MeanRecallAtK(approx, exact)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.75 {
		t.Fatalf("mean recall = %g, want 0.75", got)
	}
	if _, err := MeanRecallAtK(approx, exact[:1]); err == nil {
		t.Fatal("misaligned sets accepted")
	}
	if _, err := MeanRecallAtK(nil, nil); err == nil {
		t.Fatal("zero queries accepted")
	}
}
