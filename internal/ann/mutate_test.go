package ann

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/tensor"
)

// checkGraphInvariants asserts the structural contract every mutation
// must leave behind, at every layer: degree within the cap, no
// self-link, no duplicate, every link inside the slot table, the entry
// alive and on the top layer, and slotOf a bijection onto the alive
// slots.
func checkGraphInvariants(t *testing.T, h *HNSW) {
	t.Helper()
	h.mu.RLock()
	defer h.mu.RUnlock()
	alive := 0
	for s := range h.nodes {
		n := &h.nodes[s]
		if n.alive != h.aliveBit(uint32(s)) {
			t.Fatalf("slot %d: alive %v but bitmap says %v", s, n.alive, !n.alive)
		}
		if !n.alive {
			continue
		}
		alive++
		if got, ok := h.slotOf[n.id]; !ok || int(got) != s {
			t.Fatalf("slot %d: alive with id %d but slotOf = %d, %v", s, n.id, got, ok)
		}
		if len(n.links) == 0 {
			t.Fatalf("slot %d: alive without layers", s)
		}
		for layer, links := range n.links {
			if len(links) > h.maxConn(layer) {
				t.Fatalf("slot %d layer %d: degree %d over cap %d", s, layer, len(links), h.maxConn(layer))
			}
			seen := make(map[uint32]bool, len(links))
			for _, nb := range links {
				switch {
				case int(nb) >= len(h.nodes):
					t.Fatalf("slot %d layer %d: link %d outside %d slots", s, layer, nb, len(h.nodes))
				case int(nb) == s:
					t.Fatalf("slot %d layer %d: self-link", s, layer)
				case seen[nb]:
					t.Fatalf("slot %d layer %d: duplicate link %d", s, layer, nb)
				case h.nodes[nb].alive && len(h.nodes[nb].links) <= layer:
					t.Fatalf("slot %d layer %d: link %d does not occupy the layer", s, layer, nb)
				}
				seen[nb] = true
			}
		}
	}
	if alive != h.alive || alive != len(h.slotOf) {
		t.Fatalf("%d alive slots, h.alive %d, %d slotOf entries", alive, h.alive, len(h.slotOf))
	}
	if alive == 0 {
		if h.entry != -1 || h.maxLevel != -1 {
			t.Fatalf("empty graph with entry %d at level %d", h.entry, h.maxLevel)
		}
		return
	}
	if h.entry < 0 || !h.nodes[h.entry].alive || len(h.nodes[h.entry].links) != h.maxLevel+1 {
		t.Fatalf("entry %d (max level %d) is not an alive top-layer node", h.entry, h.maxLevel)
	}
}

// TestHNSWOverwriteChurn is the gate on cheap overwrites: after every
// stored id has been overwritten three times over with fresh random
// vectors (the write_mixed shape: 5000×64 sq8 searched at ef 192), the
// bounded detach repair must have left a graph that is structurally
// sound and as good as one freshly built over the same final store.
// Recall is against the float64 ranking of the final vectors, so both
// graphs' numbers include what sq8 loses (~0.006 at this shape).
func TestHNSWOverwriteChurn(t *testing.T) {
	n, nq := 5000, 1000
	if raceEnabled || testing.Short() {
		n, nq = 500, 200
	}
	const dim, k = 64, 10
	store := buildStoreAt(t, n, dim, embstore.SQ8)
	cfg := DefaultHNSWConfig()
	cfg.EfSearch = 192
	h := mustHNSW(t, store, cfg)
	rng := rand.New(rand.NewSource(51))
	final := sourceMatrix(n, dim) // row i: the last vector written for node i
	for i := 0; i < 3*n; i++ {
		id := rng.Intn(n)
		if err := h.Add(graph.NodeID(id), randVec(rng, final.Row(id))); err != nil {
			t.Fatal(err)
		}
	}
	checkGraphInvariants(t, h)
	if alive, tombs, _ := h.Stats(); alive != n || store.Len() != n || tombs == 0 {
		t.Fatalf("after churn: %d alive, %d in store, %d tombstones; want %d, %d, > 0", alive, store.Len(), tombs, n, n)
	}

	queries := tensor.Randn(nq, dim, 1, rng)
	churned := recallVsExact(t, final, h, queries, nq, k)
	fresh := recallVsExact(t, final, mustHNSW(t, store, cfg), queries, nq, k)
	t.Logf("recall@%d over %d queries after %d overwrites of %d nodes: %.4f (fresh build %.4f)", k, nq, 3*n, n, churned, fresh)
	if churned < 0.985 {
		t.Errorf("recall@%d after overwrite churn = %.4f < 0.985", k, churned)
	}
	if churned < fresh-0.005 {
		t.Errorf("recall@%d after overwrite churn = %.4f, more than 0.005 under a fresh build's %.4f", k, churned, fresh)
	}
}

// TestDetachDropsDeadLinks: a link to a node that did not link back
// outlives that node's removal (nothing rewrote the list), so lists
// carry tombstoned slots. Repair must drop them in the rewrite it does
// anyway — deleting a node's whole neighborhood rewrites its list many
// times, and after each rewrite the list may hold no tombstone and
// stays within the cap.
func TestDetachDropsDeadLinks(t *testing.T) {
	h := mustHNSW(t, randomStore(t, 1000, 16, 52), DefaultHNSWConfig())
	oneWay := 0
	for _, center := range []uint32{3, 400, 777} {
		for _, victim := range slices.Clone(h.nodes[center].links[0]) {
			if !h.nodes[victim].alive {
				continue
			}
			// The lists this removal rewrites: the victim's alive
			// out-neighbors, per layer.
			links := make([][]uint32, len(h.nodes[victim].links))
			for layer, l := range h.nodes[victim].links {
				links[layer] = slices.Clone(l)
			}
			if !slices.Contains(links[0], center) {
				oneWay++ // center keeps a dead link until its next rewrite
			}
			if !h.Remove(h.nodes[victim].id) {
				t.Fatalf("Remove(slot %d) = false", victim)
			}
			for layer, l := range links {
				for _, u := range l {
					if !h.nodes[u].alive || len(h.nodes[u].links) <= layer {
						continue
					}
					for _, nb := range h.nodes[u].links[layer] {
						if !h.nodes[nb].alive {
							t.Fatalf("slot %d layer %d was rewritten by the removal of %d but still links tombstone %d",
								u, layer, victim, nb)
						}
					}
				}
			}
		}
	}
	if oneWay == 0 {
		t.Fatal("no one-way link among the removed neighborhoods: the test exercised nothing")
	}
	checkGraphInvariants(t, h)
}

// TestPairScoreMatchesReference pins pairScore, at every slab precision
// and metric, to a plain float64 loop over the same slab rows — the
// backend-independent answer, so the default, -tags noasm and
// EHNA_NOSIMD=1 runs of this test hold the SIMD and scalar kernels to
// one value. sq8 rows (whose integer core is exact) agree to 1e-9 of
// the operands' magnitude; f32 kernels accumulate in float32, which
// bounds them at ~1e-6.
func TestPairScoreMatchesReference(t *testing.T) {
	const n, dim = 40, 64
	for _, tc := range []struct {
		prec embstore.Precision
		tol  float64
	}{{embstore.F32, 1e-5}, {embstore.SQ8, 1e-9}} {
		for _, metric := range []Metric{Cosine, DotProduct} {
			cfg := DefaultHNSWConfig()
			cfg.Metric = metric
			h := mustHNSW(t, buildStoreAt(t, n, dim, tc.prec), cfg)
			rows, norms := make([][]float64, n), make([]float64, n)
			for s := range rows {
				var v embstore.VecView
				h.slabView(uint32(s), &v)
				rows[s], norms[s] = make([]float64, dim), v.Norm
				v.DequantizeInto(rows[s])
			}
			for a := uint32(0); a < n; a++ {
				for b := a; b < n; b++ {
					want := 0.0
					for i, x := range rows[a] {
						want += x * rows[b][i]
					}
					scale := norms[a] * norms[b]
					if metric == Cosine {
						want, scale = want/scale, 1
					}
					if got := h.pairScore(a, b); math.Abs(got-want) > tc.tol*scale {
						t.Fatalf("%v/%v pairScore(%d,%d) = %.12g, reference %.12g", tc.prec, metric, a, b, got, want)
					}
				}
			}
		}
	}
}
