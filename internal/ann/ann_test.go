package ann

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

func randomStore(t testing.TB, n, dim int, seed int64) *embstore.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := embstore.FromMatrix(tensor.Randn(n, dim, 1, rng), 8)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// score is the full-precision float64 similarity the brute-force oracle
// ranks by, independent of the precision-dispatched kernels under test.
func (m Metric) score(q, v []float64, qNorm, vNorm float64) float64 {
	if m == DotProduct {
		return vecmath.Dot(q, v)
	}
	return vecmath.CosineWithNorms(q, v, qNorm, vNorm)
}

// bruteForce recomputes top-k by full sort, independently of the heap
// implementation under test.
func bruteForce(s *embstore.Store, q []float64, k int, m Metric) []Result {
	qNorm := tensor.L2NormVec(q)
	var all []Result
	for _, id := range s.IDs() {
		v, _ := s.Get(id)
		all = append(all, Result{ID: id, Score: m.score(q, v, qNorm, tensor.L2NormVec(v))})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if worse(all[i], all[j]) {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Abs(a[i].Score-b[i].Score) > 1e-12 {
			return false
		}
	}
	return true
}

func TestExactMatchesBruteForce(t *testing.T) {
	for _, metric := range []Metric{Cosine, DotProduct} {
		s := randomStore(t, 200, 8, 1)
		e := NewExact(s, metric)
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, 8)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			got, err := e.Search(q, 7)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(s, q, 7, metric)
			if !sameResults(got, want) {
				t.Fatalf("%v: exact search %v != brute force %v", metric, got, want)
			}
		}
	}
}

func TestExactSearchBatchMatchesSearch(t *testing.T) {
	s := randomStore(t, 150, 6, 3)
	e := NewExact(s, Cosine)
	rng := rand.New(rand.NewSource(4))
	qs := make([][]float64, 9)
	for i := range qs {
		qs[i] = make([]float64, 6)
		for j := range qs[i] {
			qs[i][j] = rng.NormFloat64()
		}
	}
	counted := annQueriesExact.Load()
	batch, err := e.SearchBatch(context.Background(), qs, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Batch queries are on /metrics like single ones.
	if moved := annQueriesExact.Load() - counted; moved != uint64(len(qs)) {
		t.Fatalf("a batch of %d moved ehnad_ann_queries_total{index=\"exact\"} by %d", len(qs), moved)
	}
	for i, q := range qs {
		single, err := e.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(batch[i], single) {
			t.Fatalf("query %d: batch %v != single %v", i, batch[i], single)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	s := randomStore(t, 10, 4, 5)
	for _, idx := range []Index{NewExact(s, Cosine), mustHNSW(t, s, DefaultHNSWConfig())} {
		if _, err := idx.Search([]float64{1, 2}, 3); err == nil {
			t.Fatal("wrong-dim query accepted")
		}
		if _, err := idx.Search([]float64{1, 2, 3, 4}, 0); err == nil {
			t.Fatal("k=0 accepted")
		}
	}
}

func TestKLargerThanStore(t *testing.T) {
	s := randomStore(t, 5, 4, 6)
	for _, idx := range []Index{NewExact(s, Cosine), mustHNSW(t, s, DefaultHNSWConfig())} {
		got, err := idx.Search([]float64{1, 0, 0, 0}, 50)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("got %d results, want all 5", len(got))
		}
	}
}

func ids(rs []Result) []graph.NodeID {
	out := make([]graph.NodeID, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func TestParseMetric(t *testing.T) {
	if m, err := ParseMetric("cosine"); err != nil || m != Cosine {
		t.Fatalf("cosine: %v %v", m, err)
	}
	if m, err := ParseMetric("dot"); err != nil || m != DotProduct {
		t.Fatalf("dot: %v %v", m, err)
	}
	if _, err := ParseMetric("euclid"); err == nil {
		t.Fatal("bad metric accepted")
	}
}
