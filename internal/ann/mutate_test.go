package ann

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// checkGraphInvariants asserts the structural contract every mutation
// must leave behind, at every layer: degree within the cap, no
// self-link, no duplicate, every link inside the slot table, the entry
// alive and on the top layer, slotOf a bijection onto the alive slots,
// the free list exactly the dead slots and upper exactly the live ones
// above layer 0. Above layer 0 every link leads to a live node on the
// layer; on layer 0 a one-way link no repair rewrote may still name a
// tombstone.
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
				case layer > 0 && !h.occupies(nb, layer):
					t.Fatalf("slot %d layer %d: link %d is dead or does not occupy the layer", s, layer, nb)
				}
				seen[nb] = true
			}
		}
	}
	if alive != h.alive || alive != len(h.slotOf) {
		t.Fatalf("%d alive slots, h.alive %d, %d slotOf entries", alive, h.alive, len(h.slotOf))
	}
	freed := make(map[uint32]bool, len(h.free))
	for _, s := range h.free {
		if h.nodes[s].alive || freed[s] {
			t.Fatalf("free list holds slot %d twice or alive", s)
		}
		freed[s] = true
	}
	if len(freed) != len(h.nodes)-alive {
		t.Fatalf("%d slots on the free list, %d dead", len(freed), len(h.nodes)-alive)
	}
	upper := 0
	for _, s := range h.upper {
		if !h.occupies(s, 1) {
			t.Fatalf("upper holds slot %d, not a live node above layer 0", s)
		}
	}
	for s := range h.nodes {
		if h.occupies(uint32(s), 1) {
			upper++
		}
	}
	if upper != len(h.upper) {
		t.Fatalf("upper holds %d slots, %d live nodes sit above layer 0", len(h.upper), upper)
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

// TestHNSWOverwriteChurn is the gate on cheap overwrites and slot
// reuse: every stored id is overwritten three times over with fresh
// random vectors (the write_mixed shape: 5000×64 sq8 searched at ef
// 192), then a fifth of the ids are deleted and as many new ids added.
// Each insert takes over a freed slot, so the graph never holds more
// slots than its peak live count, and the bounded detach repair must
// leave a graph that is structurally sound and as good as one freshly
// built over the same final store. Recall is against the float64
// ranking of the final vectors, so both graphs' numbers include what
// sq8 loses (~0.006 at this shape). Before every tenth reuse it counts
// the links into the slot that no repair will rewrite (stranded
// in-links): those on layer 0 carry over to the slot's next occupant,
// those above it are cut at the detach.
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
	deletes := n / 5
	final := sourceMatrix(n+deletes, dim) // row i: the last vector written for node i
	var reuses, sampled, stranded, strandedUpper int
	add := func(id graph.NodeID) {
		t.Helper()
		h.mu.RLock()
		slot, ok := h.slotOf[id]
		if !ok && len(h.free) > 0 {
			slot, ok = h.free[len(h.free)-1], true
		}
		if ok && reuses%10 == 0 {
			all, upper := strandedInLinks(h, slot)
			sampled, stranded, strandedUpper = sampled+1, stranded+all, strandedUpper+upper
		}
		if ok {
			reuses++
		}
		h.mu.RUnlock()
		if err := h.Add(id, randVec(rng, final.Row(int(id)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*n; i++ {
		add(graph.NodeID(rng.Intn(n)))
	}
	checkGraphInvariants(t, h)
	if alive, tombs, _ := h.Stats(); alive != n || store.Len() != n || tombs != 0 || len(h.nodes) != n {
		t.Fatalf("after overwrite churn: %d alive, %d in store, %d tombstones, %d slots; want %d, %d, 0, %d",
			alive, store.Len(), tombs, len(h.nodes), n, n, n)
	}

	live := make([]graph.NodeID, 0, n)
	for i, id := range rng.Perm(n) {
		if i < deletes {
			if !h.Remove(graph.NodeID(id)) {
				t.Fatalf("Remove(%d) = false", id)
			}
		} else {
			live = append(live, graph.NodeID(id))
		}
	}
	for id := n; id < n+deletes; id++ {
		add(graph.NodeID(id))
		live = append(live, graph.NodeID(id))
	}
	checkGraphInvariants(t, h)
	if alive, tombs, _ := h.Stats(); alive != n || store.Len() != n || tombs != 0 || len(h.nodes) > n {
		t.Fatalf("after deletes and adds: %d alive, %d in store, %d tombstones, %d slots; want %d, %d, 0, at most the peak live count %d",
			alive, store.Len(), tombs, len(h.nodes), n, n, n)
	}
	t.Logf("%d slot reuses; %d sampled met %d stranded in-links (%.2f per reuse), %d of them above layer 0",
		reuses, sampled, stranded, float64(stranded)/float64(sampled), strandedUpper)

	queries := tensor.Randn(nq, dim, 1, rng)
	recall := func(idx Index) float64 {
		var approx, truth [][]graph.NodeID
		for qi := 0; qi < nq; qi++ {
			q := queries.Row(qi)
			got, err := idx.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			approx = append(approx, ids(got))
			truth = append(truth, ids(bruteTopK(live, func(i int) []float64 { return final.Row(int(live[i])) }, q, k, cfg.Metric)))
		}
		r, err := eval.MeanRecallAtK(approx, truth)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	churned, fresh := recall(h), recall(mustHNSW(t, store, cfg))
	t.Logf("recall@%d over %d queries after %d overwrites of %d nodes, %d deletes and %d adds: %.4f (fresh build %.4f)",
		k, nq, 3*n, n, deletes, deletes, churned, fresh)
	if churned < 0.985 {
		t.Errorf("recall@%d after churn = %.4f < 0.985", k, churned)
	}
	if churned < fresh-0.005 {
		t.Errorf("recall@%d after churn = %.4f, more than 0.005 under a fresh build's %.4f", k, churned, fresh)
	}
}

// strandedInLinks counts the links to slot that its detach will leave
// behind — every link to it from a list it does not link back to, which
// repair never rewrites — and how many of them sit above layer 0.
// Caller holds h.mu.
func strandedInLinks(h *HNSW, slot uint32) (all, upper int) {
	own := h.nodes[slot].links
	for u := range h.nodes {
		if u == int(slot) || !h.nodes[u].alive {
			continue
		}
		for layer, l := range h.nodes[u].links {
			if slices.Contains(l, slot) && (layer >= len(own) || !slices.Contains(own[layer], uint32(u))) {
				all++
				if layer > 0 {
					upper++
				}
			}
		}
	}
	return all, upper
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
		if !h.nodes[center].alive {
			continue // an earlier center's neighbor: the parallel build decides
		}
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

// exactDiscovery is the oracle for an insert's swept layer-0 discovery:
// selectNeighbors over every alive slot below limit but slot, scored by
// pairScore against it, fully sorted and cut to the top efConstruction
// (cands). short reports that the narrow first pool (its top
// insertPool) would not have settled the selection, so the sweep had to
// widen.
func exactDiscovery(h *HNSW, slot uint32, limit int) (sel []uint32, cands []scoredNode, short bool) {
	for s := 0; s < limit; s++ {
		if s := uint32(s); s != slot && h.aliveBit(s) {
			cands = append(cands, scoredNode{slot: s, score: h.pairScore(slot, s)})
		}
	}
	slices.SortFunc(cands, scoredCmp)
	cands = cands[:min(len(cands), h.cfg.EfConstruction)]
	sc := new(hnswScratch)
	sel = h.selectNeighbors(sc, cands, nil, h.cfg.M)
	if len(cands) > insertPool {
		short = len(h.selectDiverse(sc, cands[:insertPool], nil, h.cfg.M)) < h.cfg.M
	}
	return sel, cands, short
}

// sweptPools is sweepPool's answer at width for one lane per pivot, each
// seeing the rows below its limit.
func sweptPools(h *HNSW, pivots []uint32, limits []int, width int) [][]scoredNode {
	sc := new(hnswScratch)
	lanes := sc.lanes[:len(pivots)]
	for j := range lanes {
		lanes[j].slot, lanes[j].limit = pivots[j], limits[j]
	}
	h.sweepPool(sc, lanes, width)
	pools := make([][]scoredNode, len(lanes))
	for j := range lanes {
		pools[j] = lanes[j].pool
	}
	return pools
}

// checkSweptPools fails unless every lane's pool of a sweep over pivots
// is, at both widths the insert sweep uses, exactly the top of
// exactDiscovery's candidates for that pivot and limit. Caller holds
// h.mu.
func checkSweptPools(t *testing.T, label string, h *HNSW, pivots []uint32, limits []int) {
	t.Helper()
	for _, width := range []int{insertPool, h.cfg.EfConstruction} {
		for j, pool := range sweptPools(h, pivots, limits, width) {
			_, cands, _ := exactDiscovery(h, pivots[j], limits[j])
			if !slices.Equal(pool, cands[:min(width, len(cands))]) {
				t.Errorf("%s: %d-lane sweep, lane %d (slot %d, limit %d): the width-%d pool is not the exact top %d",
					label, len(pivots), j, pivots[j], limits[j], width, width)
				return
			}
		}
	}
}

// TestSweepDiscoveryIsExact: under the insert plan, every Add's layer-0
// links are exactly exactDiscovery's, and the sweep pools — one lane,
// and four lanes with limits of their own — are exactly its top
// candidates, ties in slot order. The adds run through tombstones
// (removes and overwrites), exact score ties (the same vector written
// under several ids), nodes that also occupy upper layers, inserts
// whose narrow pool falls short and is widened, and the rows that test
// the sweep's filter margin: zero vectors, constant vectors (sq8 scale
// 0), and vectors of magnitude 1e-6 and 1e6.
func TestSweepDiscoveryIsExact(t *testing.T) {
	needScan(t)
	for _, metric := range []Metric{Cosine, DotProduct} {
		const n, adds, dim = 1500, 540, 16
		cfg := DefaultHNSWConfig()
		cfg.Metric = metric
		h := mustHNSW(t, buildStoreAt(t, n, dim, embstore.SQ8), cfg)
		rng := rand.New(rand.NewSource(61))
		twin := randVec(rng, make([]float64, dim))
		var upper, short, tied int
		for i := 0; i < adds; i++ {
			id, vec := graph.NodeID(n+i), randVec(rng, make([]float64, dim))
			switch i % 9 {
			case 1:
				h.Remove(graph.NodeID(rng.Intn(n + i)))
			case 2:
				id = graph.NodeID(rng.Intn(n + i)) // overwrite: tombstones the old slot
			case 3:
				copy(vec, twin) // a bit-identical row under a new id
			case 4:
				clear(vec)
			case 5:
				for j := range vec {
					vec[j] = twin[0]
				}
			case 6, 7:
				scale := 1e-6
				if i%9 == 7 {
					scale = 1e6
				}
				for j := range vec {
					vec[j] *= scale
				}
			}
			if err := h.Add(id, vec); err != nil {
				t.Fatal(err)
			}
			h.mu.RLock()
			slot := h.slotOf[id]
			if !insertPlan(h.prec, true, len(h.nodes), cfg.EfConstruction, cfg.M) {
				t.Fatalf("%d slots: the insert plan no longer sweeps", len(h.nodes))
			}
			all := len(h.nodes)
			want, _, sh := exactDiscovery(h, slot, all)
			got := h.nodes[slot].links[0]
			label := fmt.Sprintf("%v: add %d (slot %d)", metric, i, slot)
			checkSweptPools(t, label, h, []uint32{slot}, []int{all})
			// Four lanes: this row, the previous add's (the families rotate),
			// and two random slots, seeing every row, all but the newest,
			// and two random prefixes of the slab.
			checkSweptPools(t, label, h,
				[]uint32{slot, slot - 1, uint32(rng.Intn(all)), uint32(rng.Intn(all))},
				[]int{all, all - 1, 1 + rng.Intn(all), 1 + rng.Intn(all)})
			if t.Failed() {
				h.mu.RUnlock()
				t.FailNow()
			}
			if len(h.nodes[slot].links) > 1 {
				upper++
			}
			if sh {
				short++
			}
			for j := 1; j < len(want); j++ {
				if h.pairScore(slot, want[j]) == h.pairScore(slot, want[j-1]) {
					tied++
					break
				}
			}
			h.mu.RUnlock()
			if !slices.Equal(got, want) {
				t.Fatalf("%v: add %d (slot %d): layer-0 links %v, exact discovery %v", metric, i, slot, got, want)
			}
		}
		// Every short prefix of the slab, where the pool fills up and its
		// floor is first set: one lane per prefix length, then four.
		h.mu.RLock()
		pivot := uint32(len(h.nodes) - 1)
		for limit := 1; limit <= 3*insertPool; limit++ {
			checkSweptPools(t, fmt.Sprintf("%v: prefix %d", metric, limit), h, []uint32{pivot}, []int{limit})
			checkSweptPools(t, fmt.Sprintf("%v: prefixes from %d", metric, limit), h,
				[]uint32{pivot, pivot - 1, uint32(limit), 0}, []int{limit, limit + 1, limit + 2, limit + 3})
		}
		// A lane that sees just over a pool's width of rows is where the
		// floor is first set; across many pivots, the row that arrives as
		// the pool fills is sometimes the worst so far and must still make
		// the pool.
		for i := 0; i < 100; i++ {
			pivots := make([]uint32, scanGroup)
			for j := range pivots {
				pivots[j] = uint32(rng.Intn(len(h.nodes)))
			}
			checkSweptPools(t, fmt.Sprintf("%v: pool-width prefixes %d", metric, i), h, pivots,
				[]int{insertPool, insertPool + 1, insertPool + 1, insertPool + 2})
		}
		h.mu.RUnlock()
		t.Logf("%v: %d adds, %d above layer 0, %d widened past the narrow pool, %d with tied links", metric, adds, upper, short, tied)
		if upper == 0 || short == 0 || tied == 0 {
			t.Fatalf("%v: %d upper-layer, %d widened, %d tied inserts: a case went unexercised", metric, upper, short, tied)
		}
		checkGraphInvariants(t, h)
	}
}

// TestFilterMarginBoundsRounding pins filterMargin to what it claims:
// for every pivot and row, the sweep's filter score lies within the
// margin of pairScore. The rows are the families where the two
// arithmetics differ most — scaled copies of one vector (the same codes
// under other sidecars), zero and constant vectors, magnitudes 1e-6 and
// 1e6 — next to plain Gaussian rows, under both metrics. The largest
// error seen is logged as a fraction of the margin.
func TestFilterMarginBoundsRounding(t *testing.T) {
	const dim = 64
	rng := rand.New(rand.NewSource(137))
	base := randVec(rng, make([]float64, dim))
	var vecs [][]float64
	for i := 0; i < 120; i++ {
		v := randVec(rng, make([]float64, dim))
		switch i % 6 {
		case 0:
			for j := range v {
				v[j] = base[j] * (0.5 + float64(i)/7)
			}
		case 1:
			clear(v)
		case 2:
			for j := range v {
				v[j] = base[i%dim]
			}
		case 3:
			for j := range v {
				v[j] *= 1e-6
			}
		case 4:
			for j := range v {
				v[j] *= 1e6
			}
		}
		vecs = append(vecs, v)
	}
	for _, metric := range []Metric{Cosine, DotProduct} {
		cfg := DefaultHNSWConfig()
		cfg.Metric = metric
		h, err := NewHNSW(buildStoreAt(t, 0, dim, embstore.SQ8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vecs {
			if err := h.Add(graph.NodeID(i), v); err != nil {
				t.Fatal(err)
			}
		}
		cosine := metric != DotProduct
		n := len(h.nodes)
		rowOff, rowScale, rowSum := make([]float64, n), make([]float64, n), make([]float64, n)
		sq8RowFactors(h.side, cosine, rowOff, rowScale, rowSum)
		maxOff, maxScale := 0.0, 0.0
		for r := range rowOff {
			maxOff, maxScale = max(maxOff, math.Abs(rowOff[r])), max(maxScale, math.Abs(rowScale[r]))
		}
		worst := 0.0
		for p := uint32(0); p < uint32(n); p++ {
			sd := &h.side[p]
			a, b, c, errA, errB := sq8Factors(dim, float64(sd.scale), float64(sd.offset), sd.codeSum, float64(sd.norm), cosine)
			margin := filterMargin * (maxOff*errA + maxScale*errB)
			for r := uint32(0); r < uint32(n); r++ {
				dot := vecmath.DotSQ8SymCodes(h.codes[int(p)*dim:int(p+1)*dim], h.codes[int(r)*dim:int(r+1)*dim])
				diff := math.Abs(filterScore(rowOff[r], rowSum[r], rowScale[r], a, b, c, dot) - h.pairScore(p, r))
				if diff > margin {
					t.Fatalf("%v: pivot %d, row %d: the filter score is %g off pairScore, past the margin %g", metric, p, r, diff, margin)
				}
				if margin > 0 {
					worst = max(worst, diff/margin)
				}
			}
		}
		t.Logf("%v: largest filter error %.3g of the margin", metric, worst)
	}
}

// TestBuildMatchesSerialInserts: on one CPU, Build — placing four nodes
// at a time and sweeping for all four at once — writes byte for byte
// the graph file that inserting the store's ids one at a time writes:
// at both precisions and metrics, with a partial last group, and in a
// small config whose build moves from
// swept to beamed layer-0 discovery midway, inside a group.
func TestBuildMatchesSerialInserts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const dim = 32
	// 3·efConstruction·M = 54 slots: not a multiple of four, so one group
	// straddles the insert plan's threshold, and a beam this narrow finds
	// other links than the sweep.
	small := HNSWConfig{M: 3, EfConstruction: 6, EfSearch: 16, Seed: 3}
	for _, tc := range []struct {
		name   string
		prec   embstore.Precision
		metric Metric
		n      int
		cfg    HNSWConfig
	}{
		{"sq8/cosine", embstore.SQ8, Cosine, 1203, DefaultHNSWConfig()},
		{"sq8/dot", embstore.SQ8, DotProduct, 1202, DefaultHNSWConfig()},
		{"f32/cosine", embstore.F32, Cosine, 601, DefaultHNSWConfig()},
		{"f32/dot", embstore.F32, DotProduct, 603, DefaultHNSWConfig()},
		{"sq8/small config across the insert plan", embstore.SQ8, Cosine, 401, small},
	} {
		cfg := tc.cfg
		cfg.Metric = tc.metric
		store := buildStoreAt(t, tc.n, dim, tc.prec)
		serial, err := NewHNSW(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc, vec := new(hnswScratch), make([]float64, dim)
		for _, id := range store.IDs() {
			store.With(id, func(v *embstore.VecView) { v.DequantizeInto(vec) })
			if err := serial.insert(id, vec, sc, false); err != nil {
				t.Fatal(err)
			}
		}
		var want, got bytes.Buffer
		if err := serial.SaveGraph(&want); err != nil {
			t.Fatal(err)
		}
		if err := mustHNSW(t, store, cfg).SaveGraph(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: the grouped build's graph file (%d bytes) differs from the serial inserts' (%d bytes)", tc.name, got.Len(), want.Len())
		}
	}
}

// TestConcurrentAddReachability races Adds (fresh ids and overwrites)
// against Removes. A sweep can select a slot whose own insert has not
// wired it yet, so that insert's wiring must keep the back-links it
// finds instead of overwriting them; afterwards every list is within
// its cap, free of duplicates and self-links, and every alive node is
// reachable from the entry on layer 0.
func TestConcurrentAddReachability(t *testing.T) {
	n, workers := 3000, 8
	if raceEnabled || testing.Short() {
		n = 1000
	}
	const dim = 16
	store, err := embstore.New(dim, embstore.DefaultShards, embstore.SQ8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHNSW(store, DefaultHNSWConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(70 + w)))
			for i := w; i < n; i += workers {
				id := graph.NodeID(i)
				if i%7 == 3 {
					id = graph.NodeID(rng.Intn(i + 1)) // overwrite, maybe of a racing insert
				}
				if err := h.Add(id, randVec(rng, make([]float64, dim))); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 9 {
					h.Remove(graph.NodeID(rng.Intn(i + 1)))
				}
			}
		}(w)
	}
	wg.Wait()
	checkGraphInvariants(t, h)

	h.mu.RLock()
	defer h.mu.RUnlock()
	seen := make([]bool, len(h.nodes))
	seen[h.entry] = true
	queue, reached := []uint32{uint32(h.entry)}, 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range h.nodes[u].links[0] {
			if !seen[v] && h.aliveBit(v) {
				seen[v] = true
				reached++
				queue = append(queue, v)
			}
		}
	}
	if reached != h.alive {
		t.Fatalf("%d of %d alive nodes reachable from the entry on layer 0", reached, h.alive)
	}
}

// TestWiringKeepsEarlierBackLinks replays the interleaving only a sweep
// makes possible: B is placed and discovers its links; A, B's twin, is
// placed and its sweep selects B, which nothing links to yet; A is
// wired, giving B a back-link; then B is wired. B's wiring must keep
// that back-link — overwriting B's list with its own selection would
// leave A → B one-way.
func TestWiringKeepsEarlierBackLinks(t *testing.T) {
	needScan(t)
	const n, dim = 300, 16
	h := mustHNSW(t, buildStoreAt(t, n, dim, embstore.SQ8), DefaultHNSWConfig())
	vec := randVec(rand.New(rand.NewSource(81)), make([]float64, dim))
	sa, sb := new(hnswScratch), new(hnswScratch)
	h.mu.Lock()
	defer h.mu.Unlock()
	b, lb, err := h.placeLocked(n, vec, sb, true)
	if err != nil {
		t.Fatal(err)
	}
	topB := h.discoverLocked(sb, b, lb, vec, true)
	a, la, err := h.placeLocked(n+1, vec, sa, true)
	if err != nil {
		t.Fatal(err)
	}
	topA := h.discoverLocked(sa, a, la, vec, true)
	if !slices.Contains(sa.selected[0], b) {
		t.Fatalf("A's sweep did not select its unwired twin B: %v", sa.selected[0])
	}
	h.wireLocked(sa, a, h.gen[a], la, topA)
	h.wireLocked(sb, b, h.gen[b], lb, topB)
	if !slices.Contains(h.nodes[b].links[0], a) {
		t.Fatalf("B's wiring dropped the back-link A's gave it: A → B is one-way (B links %v)", h.nodes[b].links[0])
	}
}

// TestWireSkipsReusedSlot replays the interleaving the generation
// check in wireLocked exists for. X is placed above layer 0 and
// discovers its links; a Remove frees X's slot; an Add places another
// id — or X again — into that slot at a lower level; then X's stale
// wiring runs. It must write nothing: not X's selection into the new
// occupant's lists (too short for it), nor a back-link to the slot.
func TestWireSkipsReusedSlot(t *testing.T) {
	const n, dim = 300, 16
	for _, again := range []bool{false, true} {
		h := mustHNSW(t, buildStoreAt(t, n, dim, embstore.SQ8), DefaultHNSWConfig())
		rng := rand.New(rand.NewSource(91))
		sx, so := new(hnswScratch), new(hnswScratch)
		x, occupant := graph.NodeID(n), graph.NodeID(n+1)
		if again {
			occupant = x
		}
		h.mu.Lock()
		// Phase 1: place X until it draws a level above 0 (each retry
		// overwrites X into the slot its previous draw just freed), then
		// discover its links.
		vec := randVec(rng, make([]float64, dim))
		var slot uint32
		var level int
		for level == 0 {
			var err error
			if slot, level, err = h.placeLocked(x, vec, sx, true); err != nil {
				t.Fatal(err)
			}
		}
		gen := h.gen[slot]
		top := h.discoverLocked(sx, slot, level, vec, false)
		if top < 1 {
			t.Fatalf("X discovered links up to layer %d only: nothing above the occupant's layers to overrun", top)
		}
		// Phase 2: a Remove of X frees the slot.
		h.detachLocked(slot, sx)
		// Phase 3: the occupant takes the slot over, below X's level.
		for occLevel := level; occLevel >= level; {
			s, l, err := h.placeLocked(occupant, randVec(rng, make([]float64, dim)), so, true)
			if err != nil {
				t.Fatal(err)
			}
			if s != slot {
				t.Fatalf("the occupant took slot %d, not the freed slot %d", s, slot)
			}
			occLevel = l
		}
		before := make([][][]uint32, len(h.nodes))
		for s := range h.nodes {
			for _, l := range h.nodes[s].links {
				before[s] = append(before[s], slices.Clone(l))
			}
		}
		// Phase 4: X's stale wiring.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("again=%v: X's stale wiring panicked: %v", again, r)
				}
			}()
			h.wireLocked(sx, slot, gen, level, top)
		}()
		for s := range h.nodes {
			for layer, l := range h.nodes[s].links {
				if !slices.Equal(l, before[s][layer]) {
					t.Fatalf("again=%v: X's stale wiring rewrote slot %d layer %d: %v, was %v", again, s, layer, l, before[s][layer])
				}
			}
		}
		h.mu.Unlock()
		checkGraphInvariants(t, h)
	}
}

// TestSweepDiscoveryZeroAlloc: once its scratch is warm, an insert's
// swept discovery — the narrow pool, the widened one, the selection —
// allocates nothing, and neither does Build's four-lane discovery.
func TestSweepDiscoveryZeroAlloc(t *testing.T) {
	needScan(t)
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	h := mustHNSW(t, buildStoreAt(t, 2000, 32, embstore.SQ8), DefaultHNSWConfig())
	sc := new(hnswScratch)
	h.mu.RLock()
	defer h.mu.RUnlock()
	slot := uint32(0)
	discover := func() {
		h.discoverLocked(sc, slot, 0, nil, true)
		slot = (slot + 97) % uint32(len(h.nodes))
	}
	grouped := func() {
		for j := range sc.lanes {
			s := (slot + uint32(j)) % uint32(len(h.nodes))
			sc.lanes[j].slot, sc.lanes[j].limit = s, int(s)
		}
		h.sweepSelect(sc, sc.lanes[:])
		slot = (slot + 97) % uint32(len(h.nodes))
	}
	for name, fn := range map[string]func(){"swept discovery": discover, "four-lane discovery": grouped} {
		for i := 0; i < 50; i++ {
			fn()
		}
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocated %v times per call", name, allocs)
		}
	}
}

// TestIncrementalPruneMatchesFull: a prune that reuses its list's
// previous verdicts (pruneLocked) must leave what a prune from scratch
// leaves. The same build and the same mix of inserts, overwrites and
// removes run on two graphs; the reference loses its prune records
// before every operation, so each of its prunes starts from scratch.
// Both precisions, both metrics, and a small config whose lists
// overflow constantly, compared as graph files after the build and
// after the churn.
func TestIncrementalPruneMatchesFull(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, dim = 1200, 16
	for _, tc := range []struct {
		name   string
		prec   embstore.Precision
		metric Metric
		cfg    HNSWConfig
	}{
		{"sq8/cosine", embstore.SQ8, Cosine, DefaultHNSWConfig()},
		{"sq8/dot", embstore.SQ8, DotProduct, DefaultHNSWConfig()},
		{"f32/cosine", embstore.F32, Cosine, DefaultHNSWConfig()},
		{"sq8/M=4", embstore.SQ8, Cosine, HNSWConfig{M: 4, EfConstruction: 24, EfSearch: 16, Seed: 5}},
	} {
		cfg := tc.cfg
		cfg.Metric = tc.metric
		fresh := func(h *HNSW) {
			h.mu.Lock()
			clear(h.pruned)
			h.mu.Unlock()
		}
		reuse := mustHNSW(t, buildStoreAt(t, n, dim, tc.prec), cfg)
		ref, err := NewHNSW(buildStoreAt(t, n, dim, tc.prec), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc, vec := new(hnswScratch), make([]float64, dim)
		for _, id := range ref.store.IDs() {
			ref.store.With(id, func(v *embstore.VecView) { v.DequantizeInto(vec) })
			fresh(ref)
			if err := ref.insert(id, vec, sc, false); err != nil {
				t.Fatal(err)
			}
		}
		same := func(when string) {
			t.Helper()
			var a, b bytes.Buffer
			if err := reuse.SaveGraph(&a); err != nil {
				t.Fatal(err)
			}
			if err := ref.SaveGraph(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("%s %s: the graph with reused prune verdicts differs from the one pruned from scratch", tc.name, when)
			}
		}
		same("after the build")
		rng := rand.New(rand.NewSource(131))
		for i := 0; i < 600; i++ {
			id, op := graph.NodeID(rng.Intn(n+i)), rng.Intn(4)
			randVec(rng, vec)
			for _, h := range []*HNSW{reuse, ref} {
				if h == ref {
					fresh(h)
				}
				var err error
				switch op {
				case 0:
					h.Remove(id)
				case 1:
					err = h.Add(id, vec) // an overwrite, or a re-add
				default:
					err = h.Add(graph.NodeID(n+i), vec)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		same("after 600 mixed writes")
		checkGraphInvariants(t, reuse)
	}
}

// TestSortScored holds the short-list insertion sort to scoredCmp's
// order, exact score ties included, on both sides of its cut-over to
// the generic sort.
func TestSortScored(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 300; trial++ {
		s := make([]scoredNode, rng.Intn(100))
		for i, slot := range rng.Perm(len(s)) {
			s[i] = scoredNode{slot: uint32(slot), score: float64(rng.Intn(1 + trial%10))}
		}
		want := slices.Clone(s)
		slices.SortFunc(want, scoredCmp)
		if sortScored(s); !slices.Equal(s, want) {
			t.Fatalf("trial %d: sortScored gave %v, want %v", trial, s, want)
		}
	}
}
