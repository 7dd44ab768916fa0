package ann

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

func randomStore(t testing.TB, n, dim int, seed int64) *embstore.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := embstore.FromMatrix(tensor.Randn(n, dim, 1, rng), embstore.F32)
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
	if qNorm == 0 || vNorm == 0 {
		return 0
	}
	return vecmath.Dot(q, v) / (qNorm * vNorm)
}

// bruteTopK is the one float64 brute force every test's ground truth
// comes from: it scores vec(i), under ids[i], against q and ranks by
// full sort — no heap, no slab, no narrowed kernel.
func bruteTopK(ids []graph.NodeID, vec func(i int) []float64, q []float64, k int, m Metric) []Result {
	qNorm := tensor.L2NormVec(q)
	all := make([]Result, len(ids))
	for i, id := range ids {
		v := vec(i)
		all[i] = Result{ID: id, Score: m.score(q, v, qNorm, tensor.L2NormVec(v))}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// bruteForce ranks what s holds — its rows as stored, dequantized —
// for tests of the scan and heap machinery on top of the slabs.
func bruteForce(s *embstore.Store, q []float64, k int, m Metric) []Result {
	ids := s.IDs()
	return bruteTopK(ids, func(i int) []float64 { v, _ := s.Get(ids[i]); return v }, q, k, m)
}

// truthTopK ranks the source matrix the stores were loaded from (row i
// is node i): the full-precision truth recall is measured against, so
// every stored precision is charged for what it lost.
func truthTopK(src *tensor.Matrix, q []float64, k int, m Metric) []graph.NodeID {
	rows := make([]graph.NodeID, src.Rows)
	for i := range rows {
		rows[i] = graph.NodeID(i)
	}
	return ids(bruteTopK(rows, src.Row, q, k, m))
}

// closeResults reports whether a and b rank the same ids with scores
// within tol.
func closeResults(a, b []Result, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Abs(a[i].Score-b[i].Score) > tol {
			return false
		}
	}
	return true
}

func sameResults(a, b []Result) bool { return closeResults(a, b, 1e-12) }

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
			// The f32 kernels accumulate in float32: ~1e-7 of the operands'
			// magnitude against the float64 reference.
			want := bruteForce(s, q, 7, metric)
			if !closeResults(got, want, 1e-5) {
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
		if _, err := idx.SearchInto(context.Background(), nil, []float64{1, 2}, 3); err == nil {
			t.Fatal("wrong-dim query accepted")
		}
		if _, err := idx.SearchInto(context.Background(), nil, []float64{1, 2, 3, 4}, 0); err == nil {
			t.Fatal("k=0 accepted")
		}
	}
}

func TestKLargerThanStore(t *testing.T) {
	s := randomStore(t, 5, 4, 6)
	for _, idx := range []Index{NewExact(s, Cosine), mustHNSW(t, s, DefaultHNSWConfig())} {
		got, err := idx.SearchInto(context.Background(), nil, []float64{1, 0, 0, 0}, 50)
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
