package ann

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ehna/internal/graph"
)

// The layer search keeps one sorted beam (searchLayer, hnswScratch.push).
// The oracle here is the two-heap form of HNSW's layer search it
// replaced — an expansion frontier max-heap and a result min-heap, both
// ordered by score alone — kept verbatim apart from scoring candidates
// one at a time through scoreSlot.

// oracleHeap is the replaced binary heap over scoredNode: a min-heap
// (root = worst, evicted first) for results, a max-heap (root = most
// promising) for the frontier.
type oracleHeap struct {
	min bool
	a   []scoredNode
}

func (hp *oracleHeap) before(a, b scoredNode) bool {
	if hp.min {
		return a.score < b.score
	}
	return a.score > b.score
}

func (hp *oracleHeap) push(n scoredNode) {
	hp.a = append(hp.a, n)
	i := len(hp.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !hp.before(hp.a[i], hp.a[p]) {
			break
		}
		hp.a[i], hp.a[p] = hp.a[p], hp.a[i]
		i = p
	}
}

func (hp *oracleHeap) pop() scoredNode {
	root := hp.a[0]
	last := len(hp.a) - 1
	hp.a[0] = hp.a[last]
	hp.a = hp.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(hp.a) && hp.before(hp.a[l], hp.a[best]) {
			best = l
		}
		if r < len(hp.a) && hp.before(hp.a[r], hp.a[best]) {
			best = r
		}
		if best == i {
			return root
		}
		hp.a[i], hp.a[best] = hp.a[best], hp.a[i]
		i = best
	}
}

// oracleBeam is the replaced pair of heaps.
type oracleBeam struct {
	cand oracleHeap // expansion frontier (max-heap)
	res  oracleHeap // beam results (min-heap, capped at ef)
}

func newOracleBeam() *oracleBeam { return &oracleBeam{res: oracleHeap{min: true}} }

// push is the replaced beamPush: grow the beam until it holds ef
// results, then displace its worst; both heaps receive every admitted
// node.
func (o *oracleBeam) push(n scoredNode, ef int) {
	if len(o.res.a) < ef {
		o.cand.push(n)
		o.res.push(n)
	} else if n.score > o.res.a[0].score {
		o.cand.push(n)
		o.res.push(n)
		o.res.pop()
	}
}

// sorted is the result heap in scoredCmp order.
func (o *oracleBeam) sorted() []scoredNode {
	out := slices.Clone(o.res.a)
	slices.SortFunc(out, scoredCmp)
	return out
}

// oracleSearchLayer is the replaced two-heap searchLayer, returning its
// beam in scoredCmp order.
func oracleSearchLayer(h *HNSW, sc *hnswScratch, ep scoredNode, ef, layer int) []scoredNode {
	o := newOracleBeam()
	sc.bumpEpoch(len(h.nodes))
	sc.visited[ep.slot] = sc.epoch
	o.cand.push(ep)
	o.res.push(ep)
	for len(o.cand.a) > 0 {
		c := o.cand.pop()
		if len(o.res.a) >= ef && c.score < o.res.a[0].score {
			break // every remaining candidate is worse than the beam's worst
		}
		for _, nb := range h.nodes[c.slot].links[layer] {
			if sc.visited[nb] == sc.epoch {
				continue
			}
			sc.visited[nb] = sc.epoch
			if h.aliveBit(nb) {
				o.push(scoredNode{slot: nb, score: h.scoreSlot(&sc.ctx, nb)}, ef)
			}
		}
	}
	return o.sorted()
}

// beamTies reports whether two live slots score the same against the
// query in sc.ctx: the two forms order equal scores differently, so the
// oracle comparison needs tie-free queries. Caller holds h.mu.
func beamTies(h *HNSW, sc *hnswScratch) bool {
	var scores []float64
	for s := range h.nodes {
		if h.aliveBit(uint32(s)) {
			scores = append(scores, h.scoreSlot(&sc.ctx, uint32(s)))
		}
	}
	slices.Sort(scores)
	for i := 1; i < len(scores); i++ {
		if scores[i] == scores[i-1] {
			return true
		}
	}
	return false
}

// checkBeamAgainstOracle runs every tie-free query through searchLayer
// and the oracle at every ef in efs on every layer, top down, each
// layer starting from the best node of the one above, and fails on the
// first beam that differs in a slot or a score bit.
func checkBeamAgainstOracle(t *testing.T, label string, h *HNSW, queries [][]float64, efs []int) {
	t.Helper()
	h.mu.RLock()
	defer h.mu.RUnlock()
	sc := new(hnswScratch)
	searches, skipped := 0, 0
	for qi, q := range queries {
		sc.ctx.init(h.store, h.cfg.Metric, q)
		if beamTies(h, sc) {
			skipped++
			continue
		}
		for _, ef := range efs {
			ep := scoredNode{slot: uint32(h.entry), score: h.scoreSlot(&sc.ctx, uint32(h.entry))}
			for layer := h.maxLevel; layer >= 0; layer-- {
				want := oracleSearchLayer(h, sc, ep, ef, layer)
				best := h.searchLayer(sc, ep, ef, layer)
				if len(sc.beam) != len(want) {
					t.Fatalf("%s: query %d ef %d layer %d: beam of %d, oracle %d", label, qi, ef, layer, len(sc.beam), len(want))
				}
				for i, w := range want {
					if g := sc.beam[i]; g.slot != w.slot || g.score != w.score {
						t.Fatalf("%s: query %d ef %d layer %d: entry %d is slot %d score %v, oracle slot %d score %v",
							label, qi, ef, layer, i, g.slot, g.score, w.slot, w.score)
					}
				}
				if best != want[0] {
					t.Fatalf("%s: query %d ef %d layer %d: returned %v, oracle best %v", label, qi, ef, layer, best, want[0])
				}
				searches++
				ep = best
			}
		}
	}
	if skipped > len(queries)/4 {
		t.Fatalf("%s: %d of %d queries had tied scores", label, skipped, len(queries))
	}
	t.Logf("%s: %d layer searches equal to the oracle (%d of %d queries skipped for ties)", label, searches, skipped, len(queries))
}

// TestBeamMatchesTwoHeapOracle holds the sorted beam to the two-heap
// search: the same slots with the same scores, in order, at ef 1 (the
// descent), 16, 64, 192 and efConstruction, over sq8 and f32 slabs under
// both metrics, on a fresh graph and on one that churn left with
// tombstones and reused slots. A quarter of the queries are stored rows.
func TestBeamMatchesTwoHeapOracle(t *testing.T) {
	n, dim := 1200, 24
	if raceEnabled {
		n = 400
	}
	efs := []int{1, 16, 64, 192, DefaultHNSWConfig().EfConstruction}
	for _, prec := range allPrecisions {
		for _, metric := range []Metric{Cosine, DotProduct} {
			t.Run(fmt.Sprintf("%v/%v", prec, metric), func(t *testing.T) {
				cfg := DefaultHNSWConfig()
				cfg.Metric = metric
				store := buildStoreAt(t, n, dim, prec)
				h := mustHNSW(t, store, cfg)
				rng := rand.New(rand.NewSource(int64(61 + 2*int(prec) + int(metric))))
				src := sourceMatrix(n, dim)
				var queries [][]float64
				for i := 0; i < 24; i++ {
					queries = append(queries, randVec(rng, make([]float64, dim)))
				}
				for i := 0; i < 8; i++ {
					queries = append(queries, src.Row(rng.Intn(n)))
				}
				checkBeamAgainstOracle(t, "fresh", h, queries, efs)

				for i := 0; i < n/4; i++ { // overwrites: each reuses its own slot
					if err := h.Add(graph.NodeID(rng.Intn(n)), randVec(rng, make([]float64, dim))); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range rng.Perm(n)[:n/5] {
					h.Remove(graph.NodeID(id))
				}
				for id := n; id < n+n/10; id++ { // new ids take freed slots
					if err := h.Add(graph.NodeID(id), randVec(rng, make([]float64, dim))); err != nil {
						t.Fatal(err)
					}
				}
				checkGraphInvariants(t, h)
				if _, tombs, _ := h.Stats(); tombs == 0 {
					t.Fatal("churn left no tombstones")
				}
				checkBeamAgainstOracle(t, "churned", h, queries, efs)
			})
		}
	}
}

// TestBeamPushMatchesTwoHeapOracle feeds one push sequence to the beam
// and to the two-heap update, with expansions interleaved. A third of
// the pushes into a full beam tie its worst score, which both must turn
// away; every other score is fresh, so the oracle's beam is never
// ambiguous. After every step the beams hold the same slots in
// scoredCmp order, and next is the best unexpanded entry.
func TestBeamPushMatchesTwoHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 300; trial++ {
		ef := 1 + rng.Intn(24)
		sc := new(hnswScratch)
		o := newOracleBeam()
		used := map[float64]bool{}
		for step, slot := range rng.Perm(200) {
			score := rng.Float64()
			if len(o.res.a) == ef && rng.Intn(3) == 0 {
				score = o.res.a[0].score
			} else {
				for used[score] {
					score = rng.Float64()
				}
			}
			used[score] = true
			o.push(scoredNode{slot: uint32(slot), score: score}, ef)
			sc.push(uint32(slot), score, ef)
			if rng.Intn(3) == 0 && sc.next < len(sc.beam) { // expand the best unexpanded entry
				sc.beam[sc.next].expanded = true
				for sc.next < len(sc.beam) && sc.beam[sc.next].expanded {
					sc.next++
				}
			}

			want := o.sorted()
			if len(sc.beam) != len(want) {
				t.Fatalf("trial %d step %d (ef %d): beam of %d, oracle %d", trial, step, ef, len(sc.beam), len(want))
			}
			for i, w := range want {
				if g := sc.beam[i]; g.slot != w.slot || g.score != w.score {
					t.Fatalf("trial %d step %d (ef %d): entry %d is slot %d score %v, oracle slot %d score %v",
						trial, step, ef, i, g.slot, g.score, w.slot, w.score)
				}
			}
			first := slices.IndexFunc(sc.beam, func(b beamNode) bool { return !b.expanded })
			if first < 0 {
				first = len(sc.beam)
			}
			if sc.next != first {
				t.Fatalf("trial %d step %d (ef %d): next = %d, best unexpanded entry %d", trial, step, ef, sc.next, first)
			}
		}
	}
}
