package ann

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
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
		ar, err := idx.Search(q, k)
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
					rs, err := idx.Search(vec, 5)
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

// TestSlabBytesPerVector: a graph slab row is the store's record, so a
// built, a loaded and a live-added graph each hold
// Precision.BytesPerVector(dim) slab bytes per slot, at both
// precisions — the figure /healthz reports as
// graph.slab_bytes_per_vector.
func TestSlabBytesPerVector(t *testing.T) {
	const n, dim = 300, 24
	for _, prec := range allPrecisions {
		built := mustHNSW(t, buildStoreAt(t, n, dim, prec), DefaultHNSWConfig())
		var buf bytes.Buffer
		if err := built.SaveGraph(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadHNSWGraph(bytes.NewReader(buf.Bytes()), built.store)
		if err != nil {
			t.Fatal(err)
		}
		added, err := NewHNSW(buildStoreAt(t, 0, dim, prec), DefaultHNSWConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			if err := added.Add(graph.NodeID(i), randVec(rng, make([]float64, dim))); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range []struct {
			name string
			h    *HNSW
		}{{"built", built}, {"loaded", loaded}, {"added", added}} {
			h := g.h
			h.mu.RLock()
			got := len(h.vecs32)*int(unsafe.Sizeof(float32(0))) + len(h.norms)*int(unsafe.Sizeof(float64(0))) +
				len(h.codes) + len(h.side)*int(unsafe.Sizeof(vecmath.SQ8Sidecar{}))
			slots := len(h.nodes)
			h.mu.RUnlock()
			if want := prec.BytesPerVector(dim) * slots; got != want {
				t.Errorf("%v %s graph: %d slab bytes over %d slots, want %d (%d per slot)", prec, g.name, got, slots, want, prec.BytesPerVector(dim))
			}
		}
	}
}
