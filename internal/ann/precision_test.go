package ann

import (
	"context"
	"math/rand"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/graph"
	"ehna/internal/tensor"
)

// recallVsF64 loads an embedding matrix into a store at prec, runs nq
// of its rows as queries through the index mk builds over that store,
// and returns mean recall@10 against the float64 brute force over the
// matrix itself.
func recallVsF64(t *testing.T, n, dim, nq int, prec embstore.Precision,
	mk func(*embstore.Store) (Index, error)) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	emb := tensor.Randn(n, dim, 1, rng)
	compressed, err := embstore.FromMatrix(emb, prec)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := mk(compressed)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	var approx, exact [][]graph.NodeID
	for qi := 0; qi < nq; qi++ {
		q := emb.Row(qi * (n / nq) % n)
		ar, err := idx.SearchInto(context.Background(), nil, q, k)
		if err != nil {
			t.Fatal(err)
		}
		exact = append(exact, truthTopK(emb, q, k, Cosine))
		approx = append(approx, ids(ar))
	}
	recall, err := eval.MeanRecallAtK(approx, exact)
	if err != nil {
		t.Fatal(err)
	}
	return recall
}

// TestSQ8Recall gates the quantized plane end to end: every index type
// searching an sq8 store must keep recall@10 ≥ 0.95 against exact
// full-precision search on isotropic Gaussian vectors (the hardest
// case — real embeddings cluster and recall rises). This is the CI
// quantization smoke (go test -run TestSQ8Recall -short).
func TestSQ8Recall(t *testing.T) {
	const n, dim, nq = 3000, 32, 40
	for name, mk := range map[string]func(*embstore.Store) (Index, error){
		"exact": func(s *embstore.Store) (Index, error) { return NewExact(s, Cosine), nil },
		"hnsw": func(s *embstore.Store) (Index, error) {
			h, err := BuildHNSW(s, DefaultHNSWConfig())
			return beamOf{h}, err
		},
	} {
		recall := recallVsF64(t, n, dim, nq, embstore.SQ8, mk)
		t.Logf("sq8 %s recall@10 = %.3f", name, recall)
		if recall < 0.95 {
			t.Errorf("sq8 %s recall@10 = %.3f, want ≥ 0.95", name, recall)
		}
	}
}

// TestF32Recall: the float32 plane must be visually indistinguishable
// from full precision (the acceptance bar is within 2 points of f64;
// at this scale exact f32 search should be essentially perfect).
func TestF32Recall(t *testing.T) {
	recall := recallVsF64(t, 3000, 32, 40, embstore.F32, func(s *embstore.Store) (Index, error) {
		return NewExact(s, Cosine), nil
	})
	t.Logf("f32 exact recall@10 = %.3f", recall)
	if recall < 0.98 {
		t.Errorf("f32 exact recall@10 = %.3f, want ≥ 0.98", recall)
	}
}

// TestPrecisionMutability: upsert/delete churn through the Index
// interface works at every precision (the compressed plane is not
// read-only), and searches keep answering through it.
func TestPrecisionMutability(t *testing.T) {
	for _, prec := range allPrecisions {
		store := buildStoreAt(t, 300, 16, prec)
		hnsw, err := BuildHNSW(store, DefaultHNSWConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(33))
		for name, idx := range map[string]Index{"exact": NewExact(store, Cosine), "hnsw": hnsw} {
			for i := 0; i < 50; i++ {
				id := graph.NodeID(rng.Intn(400))
				vec := make([]float64, 16)
				for j := range vec {
					vec[j] = rng.NormFloat64()
				}
				switch rng.Intn(3) {
				case 0:
					if err := idx.Add(id, vec); err != nil {
						t.Fatalf("%s/%s add: %v", name, prec, err)
					}
				case 1:
					idx.Remove(id)
				default:
					rs, err := idx.SearchInto(context.Background(), nil, vec, 5)
					if err != nil {
						t.Fatalf("%s/%s search: %v", name, prec, err)
					}
					if len(rs) == 0 {
						t.Fatalf("%s/%s search returned nothing over a populated store", name, prec)
					}
				}
			}
		}
	}
}
