// Hierarchical Navigable Small World (HNSW, Malkov & Yashunin): a
// multi-layer proximity graph over the embstore. Every vector gets a
// geometrically-distributed top level; upper layers form progressively
// sparser graphs that greedy descent crosses in a few hops, and layer 0
// holds the dense graph a beam search (width efSearch) scans for the
// final candidates. Queries therefore touch O(log n)-ish nodes instead
// of the whole store (Exact) — the sublinear query path for 100k+ node
// stores.
//
// The search hot path holds the PR 2 bar: all per-query state (the
// epoch-stamped visited array, the beam — one best-first list with an
// expanded mark per entry — and the narrowed/quantized query context)
// lives in a pooled scratch, the query norm is computed once per query,
// and candidate vectors are read straight out of the store by row (a
// node's slot is its store row: no id lookup, no store lock), so
// SearchInto is allocation-free in steady state. Over sq8 stores the
// beam widens to at least rerank·k; on SIMD backends it scores
// candidates with the symmetric int8×int8 kernel, by the scanner's own
// first-stage score (filterScore; the query is quantized and factored
// once per search), and the beam's survivors are re-ranked
// asymmetrically, while on scalar backends every candidate is scored
// with the asymmetric LUT kernel directly (see queryCtx.init for why
// that is the scalar optimum).
// Reads have a second plan for small sq8 stores (scanPlan, scan.go):
// SearchInto answers a single query, and SearchBatch four queries at a
// time, by one blocked scan of the store instead of a beam each.
//
// Mutability: Add inserts online (discovery under the read lock, link
// mutation under the write lock, so concurrent searches keep running
// through an insert's expensive phase). Discovery on layer 0 of a small
// sq8 graph is a sweep of the store's rows rather than a beam
// (insertPlan, scan.go), and yields exactly the links an exact
// top-efConstruction search would. A sweep can pick a slot whose own
// insert has not wired it yet, so wiring merges into the links a node
// already holds instead of replacing them. Remove tombstones the slot
// and repairs the hole by offering the victim's neighbors to one
// another (see detachLocked — work proportional to the links removed),
// falling back to a fresh entry point when the entry node itself is
// removed. The store frees the row, and hands it to its next new id (an
// overwrite keeps its row), so under churn the slot count stays at the
// store's peak live count. Links into the slot that no repair rewrote
// are cut above layer 0, where its next occupant might not sit; on
// layer 0 they carry over to that occupant. Neighbor selection and
// repair score store rows against each other at the store's own
// precision (pairScore); nothing is dequantized, and on sq8 stores it
// is the scanner's own score (filterScore). A
// layer-0 prune keeps the previous prune's verdicts on the links that
// are still there and judges only what changed (pruneLocked), with the
// same result as a prune from scratch.
// Build inserts a whole store snapshot in row order, in groups of four
// (insertGroup: one four-lane sweep serves the group's layer-0
// discovery), the groups in parallel with per-worker scratch; on one
// CPU it builds byte for byte the graph of inserting the rows one at a
// time.
// SaveGraph/LoadHNSWGraph write and read the graph structure as
// one flat, CRC32C-checked file (graphfile.go) so a daemon can boot
// without paying the build again.
package ann

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"time"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
)

// HNSWConfig parameterizes the graph. Recall grows with M (graph
// degree), EfConstruction (build-time beam width) and EfSearch
// (query-time beam width); query cost grows with M and EfSearch, build
// cost with M and EfConstruction.
type HNSWConfig struct {
	// M is the target out-degree per node on layers ≥ 1; layer 0 allows
	// 2M. Default 16. Must be at least 2.
	M int
	// EfConstruction is the candidate pool an insert selects its links
	// from (default 200): the beam width, or the exact pool a sweep
	// draws on. Wider pools find better neighbors and raise recall.
	EfConstruction int
	// EfSearch is the layer-0 beam width at query time (default 64);
	// queries run at max(EfSearch, k). The recall/latency dial.
	EfSearch int
	// Seed fixes the level draws for reproducible builds.
	Seed int64
	// Metric is the similarity the graph is built and searched under
	// (default Cosine).
	Metric Metric
}

// DefaultHNSWConfig returns the configuration used by cmd/ehnad unless
// overridden: M=16, efConstruction=200, efSearch=64 measures recall@10
// ≥ 0.95 against exact search at 100k isotropic Gaussian vectors (the
// hardest case — real embeddings cluster and recall rises).
func DefaultHNSWConfig() HNSWConfig {
	return HNSWConfig{M: 16, EfConstruction: 200, EfSearch: 64, Seed: 1, Metric: Cosine}
}

func (c *HNSWConfig) fill() error {
	if c.M == 0 {
		c.M = 16
	}
	if c.M < 2 || c.M > 128 {
		return fmt.Errorf("ann: hnsw M %d outside [2,128]", c.M)
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	return nil
}

// hnswMaxLevel caps the geometric level draw; with M ≥ 2 the chance of
// a legitimate draw this high is ≈ 2^-32.
const hnswMaxLevel = 32

// hnswNode is one graph vertex. Its slot is its store row, which it
// keeps while it lives, so link lists can store bare slot numbers.
// Tombstoned slots (alive=false) keep id for bookkeeping but drop their
// links, and wait for the store to hand the row to a new id.
type hnswNode struct {
	id    graph.NodeID
	alive bool
	links [][]uint32 // layer → neighbor slots; len(links) == level+1
}

// HNSW is the graph index over an embstore, which holds the only copy of
// the vectors; slot s of the graph is the node in store row s. Beam
// expansions score straight out of the store by row (Store.Rows), under
// the graph lock they already hold: no id lookup and no store lock per
// expansion (profiling showed those costing more than the kernels).
//
// Safe for concurrent use: searches share the read lock, mutations
// take the write lock, and Add holds the write lock only for its cheap
// bookkeeping and link-wiring phases — neighbor discovery (the
// expensive part) runs under the read lock alongside queries. While a
// graph indexes a store, a store row is written, freed, reused or
// renumbered only under the graph's write lock (Add and Remove in their
// bookkeeping, Remap), so under the read lock every slot's row is stable.
type HNSW struct {
	store    *embstore.Store
	levelMul float64 // 1/ln(M): geometric level distribution parameter
	fallback *Exact
	prec     embstore.Precision
	dim      int

	mu  sync.RWMutex
	cfg HNSWConfig // EfSearch mutable via SetEfSearch
	// nodes[s] is the node in store row s. It reaches the highest row the
	// graph has placed (a loaded graph: every row), and a row it does not
	// index is a dead slot.
	nodes    []hnswNode
	entry    int // entry-point slot; -1 when empty
	maxLevel int // level of entry; -1 when empty
	alive    int
	rng      *rand.Rand // level draws; guarded by mu

	// upper holds the live slots above layer 0, in no order: the lists
	// detachLocked cuts a freed slot out of.
	upper []uint32

	// aliveBits mirrors nodes[s].alive as a dense bitmap. The beam's
	// neighbor loop checks liveness for every unvisited neighbor, and
	// reading it out of the ~48-byte node structs costs a random cache
	// miss per check (the node array is megabytes at serving scale);
	// the bitmap is 1/384th the size and stays L1-resident. Mutated
	// only where nodes[s].alive is (Add, detachLocked, graph load).
	aliveBits []uint64

	// pruned[s] records slot s's last layer-0 prune, so the next one can
	// reuse its verdicts (pruneLocked). Slots past its end have none.
	pruned []pruneRecord

	// gen[s] is the placement count at slot s's latest placement, so it
	// changes whenever the slot changes hands. insert records it at
	// placement and wires only if it still matches: between the two, a
	// Remove and an Add can hand the slot to another node, or to the same
	// id at another level. A prune record compares it to its own stamp to
	// spot links whose slot changed hands since. Kept beside pruned rather
	// than in hnswNode, which it would grow from 32 to 40 bytes.
	gen        []uint32
	placements uint32
}

// pruneRecord is one slot's last layer-0 prune: the length of the list
// it left, how many of those it kept as diverse, and the placement count
// when it ran. Valid while later writes only append to the list; the
// zero value is no record.
type pruneRecord struct {
	size, kept uint16
	at         uint32
}

// NewHNSW returns an empty graph over store. Call Build to index the
// vectors already in the store, or Add them incrementally.
func NewHNSW(store *embstore.Store, cfg HNSWConfig) (*HNSW, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &HNSW{
		store:    store,
		cfg:      cfg,
		levelMul: 1 / math.Log(float64(cfg.M)),
		fallback: NewExact(store, cfg.Metric),
		prec:     store.Precision(),
		dim:      store.Dim(),
		entry:    -1,
		maxLevel: -1,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// BuildHNSW is NewHNSW followed by Build: the one-call path from a
// loaded store to a queryable graph.
func BuildHNSW(store *embstore.Store, cfg HNSWConfig) (*HNSW, error) {
	h, err := NewHNSW(store, cfg)
	if err != nil {
		return nil, err
	}
	if err := h.Build(); err != nil {
		return nil, err
	}
	return h, nil
}

// Config returns the (filled-in) configuration.
func (h *HNSW) Config() HNSWConfig {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.cfg
}

// SetEfSearch adjusts the query-time beam width (ignored if ef ≤ 0) —
// the recall/latency dial, safe to turn on a live index.
func (h *HNSW) SetEfSearch(ef int) {
	if ef <= 0 {
		return
	}
	h.mu.Lock()
	h.cfg.EfSearch = ef
	h.mu.Unlock()
}

// Metric reports the similarity metric.
func (h *HNSW) Metric() Metric { return h.cfg.Metric }

// Len reports the number of live (searchable) nodes in the graph.
func (h *HNSW) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.alive
}

// Stats reports graph shape: live nodes, tombstoned slots awaiting
// reuse, and the top layer of the hierarchy.
func (h *HNSW) Stats() (alive, tombstones, maxLevel int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.alive, len(h.nodes) - h.alive, h.maxLevel
}

// maxConn is the per-layer degree cap: 2M on the dense base layer, M
// above it.
func (h *HNSW) maxConn(layer int) int {
	if layer == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// randomLevelLocked draws a geometric level: P(level ≥ l) = M^-l.
// Caller holds h.mu.
func (h *HNSW) randomLevelLocked() int {
	u := h.rng.Float64()
	for u == 0 {
		u = h.rng.Float64()
	}
	l := int(-math.Log(u) * h.levelMul)
	if l > hnswMaxLevel {
		l = hnswMaxLevel
	}
	return l
}

// scoredNode pairs a graph slot with its similarity to the current
// pivot (query vector or prune subject). Higher score = closer. was is
// a prune candidate's standing in the list's previous prune (pruneLocked).
type scoredNode struct {
	slot  uint32
	was   uint32
	score float64
}

// scoredCmp orders descending by score, ties ascending by slot, for
// deterministic neighbor selection (package-level to keep sorts
// allocation-free).
func scoredCmp(a, b scoredNode) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	case a.slot < b.slot:
		return -1
	case a.slot > b.slot:
		return 1
	default:
		return 0
	}
}

// sortScored sorts s by scoredCmp. Pruned lists and repair candidates
// hold a few dozen entries, where an insertion sort with the comparison inlined
// is several times cheaper than the generic sort's calls through
// scoredCmp; keys are unique (slot breaks ties), so both give one order.
func sortScored(s []scoredNode) {
	if len(s) > 64 {
		slices.SortFunc(s, scoredCmp)
		return
	}
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && (x.score > s[j-1].score || x.score == s[j-1].score && x.slot < s[j-1].slot); j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// beamNode is one entry of a beam: a slot, its score against the
// query, and whether the search has expanded it yet — 16 bytes, as a
// scoredNode.
type beamNode struct {
	slot     uint32
	expanded bool
	score    float64
}

// hnswScratch is the pooled per-query (and per-build-worker) working
// state. Everything is capacity-reused, so the steady-state search
// path performs no allocations.
type hnswScratch struct {
	// ctx is the precision-dispatched query state the beam's
	// precision-dispatched scoring kernels consume.
	ctx queryCtx

	// visited is the epoch-stamp array over graph slots: visited[s] ==
	// epoch marks s as seen this beam search. Sized to the node count,
	// grown (amortized) as the graph grows. uint16 on purpose: the
	// array is touched randomly for every neighbor of every expansion,
	// so halving it doubles how much of it survives in cache; the cost
	// is a 128KB-per-100k-slots clear every 65535 searches at wrap.
	visited []uint16
	epoch   uint16

	// beam is the layer search's one list: the ≤ ef best nodes found so
	// far, best first (scoredCmp order), each marked once expanded. next
	// is the best unexpanded entry, len(beam) when there is none.
	beam    []beamNode
	next    int
	pending []uint32 // slots awaiting scoring this expansion

	// Neighbor-selection state: candidates sorted by score against the
	// pivot (beam survivors on insert, a node's links on prune, the
	// victim's other neighbors on repair).
	work     []scoredNode
	discard  []uint32   // diversity rejects, recycled to fill capacity
	added    []uint32   // a prune's newly kept links (pruneLocked)
	selected [][]uint32 // per-layer chosen neighbor slots (insert)

	// Detach repair state (repairLocked): one layer's alive orphans, the
	// lists left under the cap, the orphans' rows gathered as one block
	// (codes, sidecars), and one list's scores against the orphans.
	orphans   []uint32
	relist    []uint32
	block     []int8
	blockSide []vecmath.SQ8Sidecar
	scores    []float64

	// Insert sweep state (sweepPool): one lane per node discovering its
	// layer-0 links, the lanes' codes and score terms as the four-lane
	// kernel takes them, and one block's code dots, survivors and
	// row-side score factors (the factors sized on a scratch's first
	// sweep, so query scratches do not carry them).
	lanes   [scanGroup]sweepLane
	group   vecmath.Sym4Queries
	acc     [scanGroup * scanBlockRows]int32
	surv    [scanBlockRows]uint32
	factors []float64

	vbuf []float64 // insert-vector copies (Build)
	top  topK      // final top-k assembly

	// touch keeps scorePendingSym's pre-touch loads observable so the
	// compiler cannot delete them; the value itself is meaningless.
	touch int32
}

var hnswScratchPool = sync.Pool{New: func() any { return new(hnswScratch) }}

// bumpEpoch starts a fresh visited generation over n slots.
func (sc *hnswScratch) bumpEpoch(n int) {
	if len(sc.visited) < n {
		grown := make([]uint16, n)
		copy(grown, sc.visited)
		sc.visited = grown
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide
		clear(sc.visited)
		sc.epoch = 1
	}
}

// aliveBit reads slot's liveness from the dense bitmap. Caller holds
// h.mu; the bitmap covers every allocated slot by construction.
func (h *HNSW) aliveBit(slot uint32) bool {
	return h.aliveBits[slot>>6]&(1<<(slot&63)) != 0
}

// setAliveBit mirrors a nodes[slot].alive write into the bitmap,
// growing it to cover slot. Caller holds h.mu for writing.
func (h *HNSW) setAliveBit(slot uint32, v bool) {
	for int(slot>>6) >= len(h.aliveBits) {
		h.aliveBits = append(h.aliveBits, 0)
	}
	if v {
		h.aliveBits[slot>>6] |= 1 << (slot & 63)
	} else {
		h.aliveBits[slot>>6] &^= 1 << (slot & 63)
	}
}

// scoreSlot is the beam's score of slot against the query qc, read
// straight off the slot's store row; it scores entry points and
// candidates alike. Over sq8 stores on SIMD backends (qc.sym) it is the
// first-stage score, bit for bit the scanner's for the same query and
// row: filterScore over the row's factors and the query's, which init
// computed once. Everywhere else it is scoreView at full query
// precision. Caller holds h.mu.
func (h *HNSW) scoreSlot(qc *queryCtx, slot uint32) float64 {
	rows := h.store.Rows()
	if !qc.sym {
		var v embstore.VecView
		rows.View(int(slot), &v)
		return h.cfg.Metric.scoreView(qc, &v)
	}
	code, side := rows.SQ8(int(slot))
	off, scale, sum := vecmath.SQ8RowFactor(*side, h.cfg.Metric != DotProduct)
	return filterScore(off, sum, scale, qc.a, qc.b, qc.c, vecmath.DotSQ8SymCodes(qc.sq8q.Code, code))
}

// rerankSlot is the second stage for one first-stage survivor: slot's
// store row re-scored with the asymmetric full-precision-query kernel
// and pushed, under its id, into top. Caller holds h.mu.
func (h *HNSW) rerankSlot(qc *queryCtx, top *topK, slot uint32) {
	var v embstore.VecView
	h.store.Rows().View(int(slot), &v)
	top.push(hit{ID: h.nodes[slot].id, Score: h.cfg.Metric.scoreView(qc, &v)})
}

// pairPivot is row a's side of pairScore, read once for a loop over b.
type pairPivot struct {
	code    []int8
	a, b, c float64
	f32     []float32
	norm    float64
}

// pivot sets p to store row a's pairPivot. Caller holds h.mu.
func (h *HNSW) pivot(p *pairPivot, a uint32) {
	rows := h.store.Rows()
	if h.prec == embstore.SQ8 {
		code, sd := rows.SQ8(int(a))
		p.code = code
		p.a, p.b, p.c = sq8Factors(h.dim, sd.Scale, sd.Offset, sd.CodeSum, sd.Norm, h.cfg.Metric != DotProduct)
		return
	}
	var v embstore.VecView
	rows.View(int(a), &v)
	p.f32, p.norm = v.F32, v.Norm
}

// pairScore scores store rows a (as its pivot p) and b against each
// other in the store's own precision: on sq8 rows the scanner's score
// (filterScore) with a as the pivot and b as the row, on f32 rows
// Dot32, cosine through the stored norms. It is what neighbor
// selection, pruning and detach repair compare candidates with, and
// what the insert sweep scores by, bit for bit: both operands are
// stored rows, so nothing is dequantized or re-encoded. The sq8 form is
// not symmetric in a and b, so callers keep their argument order.
// Caller holds h.mu.
func (h *HNSW) pairScore(p *pairPivot, b uint32) float64 {
	rows := h.store.Rows()
	cosine := h.cfg.Metric != DotProduct
	if h.prec == embstore.SQ8 {
		code, sd := rows.SQ8(int(b))
		off, scale, sum := vecmath.SQ8RowFactor(*sd, cosine)
		return filterScore(off, sum, scale, p.a, p.b, p.c, vecmath.DotSQ8SymCodes(p.code, code))
	}
	var v embstore.VecView
	rows.View(int(b), &v)
	dot := vecmath.Dot32(p.f32, v.F32)
	if !cosine {
		return dot
	}
	if p.norm != 0 && v.Norm != 0 {
		return dot / (p.norm * v.Norm)
	}
	return 0
}

// push offers one scored slot to the beam: it goes in while the beam
// holds fewer than ef entries, or when it beats the worst, which then
// drops out. Its place is found by binary search — an admitted
// candidate lands ~70 entries from the back of a 192-wide beam on
// average, where a linear back-scan measured slower — and the entries
// below it move down one. An entry landing above next becomes the best
// unexpanded one.
func (sc *hnswScratch) push(slot uint32, score float64, ef int) {
	b := sc.beam
	i := len(b)
	if i < ef {
		b = append(b, beamNode{})
	} else if score > b[i-1].score {
		i--
	} else {
		return
	}
	j, hi := 0, i
	for j < hi {
		m := int(uint(j+hi) >> 1)
		if b[m].score > score || b[m].score == score && b[m].slot < slot {
			j = m + 1
		} else {
			hi = m
		}
	}
	copy(b[j+1:i+1], b[j:i])
	b[j] = beamNode{slot: slot, score: score}
	sc.beam = b
	if j < sc.next {
		sc.next = j
	}
}

// scorePendingBeam scores sc.pending into the beam (see push). This is
// the query beam's hot loop; profiles show it bound by memory latency
// and per-candidate overhead, not kernel arithmetic, so over sq8 stores
// on SIMD backends (sc.ctx.sym) it first pre-touches every pending row:
// the candidates' cache misses issue back-to-back and resolve in
// parallel instead of serializing one score call at a time. Caller
// holds h.mu.
func (h *HNSW) scorePendingBeam(sc *hnswScratch, ef int) {
	qc := &sc.ctx
	if qc.sym {
		rows := h.store.Rows()
		var touch int32
		for _, slot := range sc.pending {
			code, side := rows.SQ8(int(slot))
			touch ^= int32(code[0]) ^ int32(code[len(code)-1]) ^ side.CodeSum
		}
		sc.touch = touch
	}
	for _, slot := range sc.pending {
		sc.push(slot, h.scoreSlot(qc, slot), ef)
	}
}

// searchLayer runs a beam search of width ef across one layer from the
// (already scored, alive) entry ep, leaving the ≤ ef best alive nodes
// in sc.beam, best first, and returns the best. ef=1 degrades to the
// greedy descent used on upper layers. It expands the best unexpanded
// entry until none is left — the two-heap form's stop rule, since a
// node that fell out of the beam can no longer beat its worst. The
// query is sc.ctx. Caller holds h.mu (read or write).
func (h *HNSW) searchLayer(sc *hnswScratch, ep scoredNode, ef, layer int) scoredNode {
	sc.bumpEpoch(len(h.nodes))
	sc.visited[ep.slot] = sc.epoch
	sc.beam = append(sc.beam[:0], beamNode{slot: ep.slot, score: ep.score})
	sc.next = 0
	for sc.next < len(sc.beam) {
		if sc.ctx.canceled() {
			break // abandoned query: stop expanding, caller returns ctx.Err()
		}
		c := &sc.beam[sc.next]
		c.expanded = true
		slot := c.slot
		for sc.next < len(sc.beam) && sc.beam[sc.next].expanded {
			sc.next++
		}
		if sc.next < len(sc.beam) {
			// Pre-touch the likely next expansion's link chain (node
			// record → per-layer headers → neighbor list): three
			// dependent loads that would otherwise serialize at the top
			// of the next iteration now resolve behind this expansion's
			// scoring work. "Likely" because scoring may insert a better
			// candidate above it; a wasted touch costs nothing.
			if nl := h.nodes[sc.beam[sc.next].slot].links; layer < len(nl) {
				if nbl := nl[layer]; len(nbl) > 0 {
					sc.touch ^= int32(nbl[0])
				}
			}
		}
		sc.pending = sc.pending[:0]
		for _, nb := range h.nodes[slot].links[layer] {
			if sc.visited[nb] == sc.epoch {
				continue
			}
			sc.visited[nb] = sc.epoch
			if !h.aliveBit(nb) {
				continue // tombstone: repaired links route around it
			}
			sc.pending = append(sc.pending, nb)
		}
		h.scorePendingBeam(sc, ef)
	}
	return scoredNode{slot: sc.beam[0].slot, score: sc.beam[0].score}
}

// descendLocked scores the entry point against sc.ctx and descends
// greedily from it through the layers above layer to, returning the
// node it reaches: where a search of layer to starts. Caller holds h.mu
// and the graph is not empty.
func (h *HNSW) descendLocked(sc *hnswScratch, to int) scoredNode {
	cur := scoredNode{slot: uint32(h.entry), score: h.scoreSlot(&sc.ctx, uint32(h.entry))}
	for layer := h.maxLevel; layer > to; layer-- {
		cur = h.searchLayer(sc, cur, 1, layer)
	}
	return cur
}

// gatherWork copies the beam's survivors (sc.beam, already best first)
// into sc.work for selectNeighbors. self, the inserting slot, is left
// out: a swept insert may have linked to it already, so the beam can
// reach it.
func (sc *hnswScratch) gatherWork(self uint32) {
	sc.work = sc.work[:0]
	for _, n := range sc.beam {
		if n.slot != self {
			sc.work = append(sc.work, scoredNode{slot: n.slot, score: n.score})
		}
	}
}

// diverse is the HNSW diversity rule: candidate c (scored against the
// pivot) is worth a link only if it is closer to the pivot than to
// every neighbor the pivot already keeps — spreading links across
// directions instead of bunching them in the nearest cluster. Caller
// holds h.mu.
func (h *HNSW) diverse(c scoredNode, kept []uint32) bool {
	if len(kept) == 0 {
		return true
	}
	var p pairPivot
	h.pivot(&p, c.slot)
	for _, k := range kept {
		if h.pairScore(&p, k) > c.score {
			return false
		}
	}
	return true
}

// selectNeighbors runs the diversity heuristic over cands (sorted
// descending by score against the pivot): walking candidates
// best-first, keep the diverse ones, then recycle the rejects to fill
// spare capacity. dst comes in empty and leaves holding up to m slots.
// Caller holds h.mu.
func (h *HNSW) selectNeighbors(sc *hnswScratch, cands []scoredNode, dst []uint32, m int) []uint32 {
	return h.fillDiscarded(sc, h.selectDiverse(sc, cands, dst, m), m)
}

// selectDiverse is selectNeighbors' first pass: the diverse candidates
// of cands, best-first, until dst holds m. A result of m slots is
// final — the walk stopped before reaching the rest of cands — which
// is what lets insert discovery try a narrow candidate pool first.
func (h *HNSW) selectDiverse(sc *hnswScratch, cands []scoredNode, dst []uint32, m int) []uint32 {
	sc.discard = sc.discard[:0]
	for _, c := range cands {
		if len(dst) >= m {
			break
		}
		if h.diverse(c, dst) {
			dst = append(dst, c.slot)
		} else {
			sc.discard = append(sc.discard, c.slot)
		}
	}
	return dst
}

// fillDiscarded is selectNeighbors' second pass: the first pass's
// rejects, in order, fill dst up to m.
func (h *HNSW) fillDiscarded(sc *hnswScratch, dst []uint32, m int) []uint32 {
	for _, c := range sc.discard { // keep-pruned: don't waste capacity
		if len(dst) >= m {
			break
		}
		dst = append(dst, c)
	}
	return dst
}

// Standings of a prune candidate in the list's previous prune.
const (
	wasNew     = iota // appended since: no verdict
	wasKept           // kept as diverse
	wasDiscard        // rejected, kept only to fill capacity
)

// pruneLocked re-selects slot u's links at layer down to the degree
// cap, scoring them against u's own store row and dropping dead links
// along the way: selectNeighbors over them, sorted by score against u.
// Caller holds h.mu for writing.
//
// On layer 0 it reuses what the list's previous prune decided. That
// prune left its kept links then its discards, and writes since have
// only appended, so each old link comes with its verdict. The
// diversity rule judges a link only against the links kept before it
// in score order, and the walk meets the old links in the same order as
// before, so as long as the kept set ahead of an old link is what it
// was, its verdict stands. New links, and old discards once that set
// has changed, are judged in full. An old kept link can only lose to a
// link kept since (it already passed the rest), so it is judged against
// those alone. An old link whose slot changed hands since the prune
// (gen) counts as the old occupant's death plus a new link. The result
// is the full walk's, verdict for verdict, at a fraction of the pair
// scores.
func (h *HNSW) pruneLocked(u uint32, layer int, sc *hnswScratch) {
	links := h.nodes[u].links[layer]
	var rec pruneRecord
	if layer == 0 {
		rec = h.pruneRecordOf(u, len(links))
	}
	old, kept := int(rec.size), int(rec.kept)
	changed := false // the kept set differs from the previous prune's
	var p pairPivot
	h.pivot(&p, u)
	sc.work = sc.work[:0]
	for i, nb := range links {
		was := uint32(wasNew)
		if i < kept {
			was = wasKept
		} else if i < old {
			was = wasDiscard
		}
		if was != wasNew && int32(h.gen[nb]-rec.at) > 0 {
			changed = changed || was == wasKept // a kept link's occupant left
			was = wasNew
		}
		if nb != u && h.aliveBit(nb) {
			sc.work = append(sc.work, scoredNode{slot: nb, was: was, score: h.pairScore(&p, nb)})
		} else if was == wasKept {
			changed = true // a kept link died
		}
	}
	sortScored(sc.work)
	m := h.maxConn(layer)
	dst := links[:0]
	sc.discard, sc.added = sc.discard[:0], sc.added[:0]
	for _, c := range sc.work {
		if len(dst) >= m {
			break
		}
		var ok bool
		switch {
		case c.was == wasKept:
			ok = h.diverse(c, sc.added)
		case c.was == wasDiscard && !changed:
			ok = false
		default:
			ok = h.diverse(c, dst)
		}
		switch {
		case ok:
			dst = append(dst, c.slot)
			if c.was != wasKept {
				sc.added = append(sc.added, c.slot)
				changed = true
			}
		default:
			sc.discard = append(sc.discard, c.slot)
			if c.was == wasKept {
				changed = true
			}
		}
	}
	diverse := len(dst)
	dst = h.fillDiscarded(sc, dst, m)
	h.nodes[u].links[layer] = dst
	if layer == 0 {
		h.setPruned(u, pruneRecord{size: uint16(len(dst)), kept: uint16(diverse), at: h.placements})
	}
}

// pruneRecordOf returns slot s's layer-0 prune record if it can still
// describe a list of n links, else the zero record.
func (h *HNSW) pruneRecordOf(s uint32, n int) pruneRecord {
	if int(s) < len(h.pruned) && int(h.pruned[s].size) <= n {
		return h.pruned[s]
	}
	return pruneRecord{}
}

// setPruned records slot s's layer-0 prune (the zero record: none).
func (h *HNSW) setPruned(s uint32, rec pruneRecord) {
	if int(s) >= len(h.pruned) {
		if rec == (pruneRecord{}) {
			return
		}
		h.pruned = append(h.pruned, make([]pruneRecord, int(s)+1-len(h.pruned))...)
	}
	h.pruned[s] = rec
}

// resize returns s with length n, reusing its array when it can hold n;
// the contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Add inserts or replaces a vector in the store and the graph.
func (h *HNSW) Add(id graph.NodeID, vec []float64) error {
	sc := hnswScratchPool.Get().(*hnswScratch)
	err := h.insert(id, vec, sc, true)
	hnswScratchPool.Put(sc)
	return err
}

// insert runs the three-phase online insertion. upsert=false is the
// Build path, where the vector is already in the store; vec is the
// query the insert's beams search with.
func (h *HNSW) insert(id graph.NodeID, vec []float64, sc *hnswScratch, upsert bool) error {
	// Phase 1 (write lock, cheap): bookkeeping.
	h.mu.Lock()
	slot, level, err := h.placeLocked(id, vec, sc, upsert)
	first := err == nil && h.entry < 0
	if first { // first node: it is the graph
		h.entry, h.maxLevel = int(slot), level
	}
	var gen uint32
	if err == nil {
		gen = h.gen[slot]
	}
	h.mu.Unlock()
	if err != nil || first {
		return err
	}
	discoverStart := time.Now()

	// Phase 2 (read lock): neighbor discovery. Runs concurrently with
	// searches and other inserts' discovery.
	h.mu.RLock()
	sweep := insertPlan(h.prec, vecmath.HasSQ8Sym(), len(h.nodes), h.cfg.EfConstruction, h.cfg.M)
	top := h.discoverLocked(sc, slot, level, vec, sweep)
	h.mu.RUnlock()
	wireStart := time.Now()
	annMutDiscover.Observe(int64(wireStart.Sub(discoverStart)))

	// Phase 3 (write lock): wiring.
	h.mu.Lock()
	h.wireLocked(sc, slot, gen, level, top)
	h.mu.Unlock()
	annMutWire.ObserveSince(wireStart)
	return nil
}

// placeLocked is insert's bookkeeping: the store upsert (or, without
// upsert, the lookup of id's row), the tombstone of id's previous slot,
// the level draw, and the node at the slot of its row, with its
// liveness and generation. An id the store does not hold is an error.
// Caller holds h.mu for writing.
func (h *HNSW) placeLocked(id graph.NodeID, vec []float64, sc *hnswScratch, upsert bool) (slot uint32, level int, err error) {
	old, indexed := h.indexedSlot(id)
	var row int
	if upsert {
		row, err = h.store.UpsertRow(id, vec)
	} else if r, ok := h.store.Row(id); ok {
		row = r
	} else {
		err = fmt.Errorf("ann: hnsw: node %d is not in the store", id)
	}
	if err != nil {
		return 0, 0, err
	}
	if indexed {
		h.detachLocked(old, sc)
	}
	level = h.randomLevelLocked()
	slot = uint32(row)
	for len(h.nodes) <= row {
		h.nodes = append(h.nodes, hnswNode{})
		h.gen = append(h.gen, 0)
	}
	h.setPruned(slot, pruneRecord{})
	h.nodes[slot] = hnswNode{id: id, alive: true, links: make([][]uint32, level+1)}
	h.setAliveBit(slot, true)
	h.placements++
	h.gen[slot] = h.placements
	if level > 0 {
		h.upper = append(h.upper, slot)
	}
	h.alive++
	return slot, level, nil
}

// indexedSlot returns the slot the graph indexes id at: its store row,
// if that slot is live. Caller holds h.mu.
func (h *HNSW) indexedSlot(id graph.NodeID) (uint32, bool) {
	row, ok := h.store.Row(id)
	return uint32(row), ok && row < len(h.nodes) && h.aliveBit(uint32(row))
}

// wireLocked links the node placed at slot as generation gen to its
// discovered neighbors (sc.selected, layers 0..top) both ways, prunes
// any list pushed over its degree cap, and promotes the node to entry
// if it tops the graph. Caller holds h.mu for writing.
func (h *HNSW) wireLocked(sc *hnswScratch, slot, gen uint32, level, top int) {
	n := &h.nodes[slot]
	if !n.alive || h.gen[slot] != gen { // a racing Remove (and Add) took the slot mid-insert
		return
	}
	for layer := 0; layer <= top; layer++ {
		sel := sc.selected[layer]
		// A sweep reaches slots no link leads to yet, so an insert that
		// discovered this one may already have linked back to it: merge
		// rather than overwrite, or that link turns one-way.
		// A selected node may have been removed since, and its slot
		// reused by a node below this layer.
		links := n.links[layer]
		for _, u := range sel {
			if h.occupies(u, layer) && !slices.Contains(links, u) {
				links = append(links, u)
			}
		}
		n.links[layer] = links
		if len(links) > h.maxConn(layer) {
			h.pruneLocked(slot, layer, sc)
		}
		for _, u := range sel {
			if !h.occupies(u, layer) {
				continue
			}
			un := &h.nodes[u]
			if slices.Contains(un.links[layer], slot) {
				continue // u discovered this slot too and wired first
			}
			un.links[layer] = append(un.links[layer], slot)
			if len(un.links[layer]) > h.maxConn(layer) {
				h.pruneLocked(u, layer, sc)
			}
		}
	}
	if level > h.maxLevel {
		h.entry, h.maxLevel = int(slot), level
	}
}

// discoverLocked chooses the links of the node at slot (drawn at level,
// vector vec) into sc.selected and returns the highest layer it chose
// for, −1 for none: greedy descent through the layers above the node,
// then an efConstruction-wide beam plus the diversity heuristic on
// every layer it occupies — except layer 0 when sweep is set, which a
// one-lane sweepSelect answers exactly without an entry point. Caller
// holds h.mu.
func (h *HNSW) discoverLocked(sc *hnswScratch, slot uint32, level int, vec []float64, sweep bool) int {
	top := h.beamDiscoverLocked(sc, slot, level, vec, sweep)
	if sweep {
		ln := &sc.lanes[0]
		ln.slot, ln.limit = slot, len(h.nodes)
		h.sweepSelect(sc, sc.lanes[:1])
		sc.selected[0] = append(sc.selected[0][:0], ln.sel...)
	}
	return top
}

// beamDiscoverLocked is discoverLocked without the sweep: with sweep
// set it leaves layer 0 to the caller, but still counts it in the top
// layer it returns and makes room for it in sc.selected. Caller holds
// h.mu.
func (h *HNSW) beamDiscoverLocked(sc *hnswScratch, slot uint32, level int, vec []float64, sweep bool) int {
	top, low := -1, 0
	if sweep {
		top, low = 0, 1
	}
	descend := h.entry >= 0 && uint32(h.entry) != slot
	if descend {
		top = max(top, min(level, h.maxLevel))
	}
	for len(sc.selected) <= top {
		sc.selected = append(sc.selected, nil)
	}
	if descend && top >= low {
		sc.ctx.init(h.store, h.cfg.Metric, vec)
		cur := h.descendLocked(sc, top)
		for layer := top; layer >= low; layer-- {
			cur = h.searchLayer(sc, cur, h.cfg.EfConstruction, layer)
			sc.gatherWork(slot)
			sc.selected[layer] = h.selectNeighbors(sc, sc.work, sc.selected[layer][:0], h.cfg.M)
		}
	}
	return top
}

// occupies reports whether slot holds a live node on layer. Caller holds
// h.mu.
func (h *HNSW) occupies(slot uint32, layer int) bool {
	return h.aliveBit(slot) && len(h.nodes[slot].links) > layer
}

// detachLocked tombstones slot and repairs the hole it leaves. Repair
// costs in proportion to the links removed:
// on each layer the victim's alive neighbors are scored against its
// other links in one pass, and each neighbor's list is rewritten once,
// never re-selected (repairLocked). Links into the slot above layer 0
// are cut everywhere (cutUpperLocked). If the victim was the entry
// point, a fresh one is chosen from the surviving nodes. Build never
// detaches, so this path leaves built graphs alone. Caller holds h.mu
// for writing.
func (h *HNSW) detachLocked(slot uint32, sc *hnswScratch) {
	n := &h.nodes[slot]
	if !n.alive {
		return
	}
	start := time.Now()
	n.alive = false
	h.setAliveBit(slot, false)
	h.alive--
	links := n.links
	n.links = nil
	if len(links) > 1 {
		h.cutUpperLocked(slot, len(links))
	}
	for layer, orphans := range links {
		h.repairLocked(orphans, layer, sc)
	}
	// A loaded graph cuts every node's layer headers from one shared
	// array (graphfile.go), which outlives this node: drop the headers'
	// references, or they pin the loaded link array for good.
	clear(links)
	if h.entry == int(slot) {
		h.pickEntryLocked()
	}
	annMutDetach.ObserveSince(start)
}

// cutUpperLocked removes slot, a node of layers layers being detached,
// from h.upper and from every list above layer 0 that links to it. Left
// there, such a link would outlive the slot's reuse and lead to its next
// occupant, which usually sits lower — and measurably costs recall even
// when it does not. Upper layers hold about 1/M of the nodes, so this is
// a scan of that many short lists, for one detach in M. Caller holds
// h.mu for writing.
func (h *HNSW) cutUpperLocked(slot uint32, layers int) {
	for i := 0; i < len(h.upper); {
		u := h.upper[i]
		if u == slot {
			h.upper[i] = h.upper[len(h.upper)-1]
			h.upper = h.upper[:len(h.upper)-1]
			continue
		}
		ul := h.nodes[u].links
		for layer := 1; layer < min(layers, len(ul)); layer++ {
			if j := slices.Index(ul[layer], slot); j >= 0 {
				ul[layer] = slices.Delete(ul[layer], j, j+1)
			}
		}
		i++
	}
}

// repairLocked mends the hole a detached node leaves on layer, where
// orphans were its links. Every alive orphan with a list on the layer
// loses its dead links (dropDeadLocked: the victim, and any an earlier
// one-way delete left behind, so only alive links count toward the cap)
// and, while under the cap, gains links from among the other alive
// orphans (relinkLocked). The orphans' rows are gathered once into one
// contiguous block, codes and row factors (vecmath.SQ8RowFactors), and
// every list to mend is scored against the block in one survivor-kernel
// pass per four of them, with −Inf floors so every row comes back: the
// same filterScore over the same factors and code dots, so the scores
// are pairScore's bit for bit. f32 stores and scalar backends score by a
// plain pairScore loop instead. Caller holds h.mu for writing.
func (h *HNSW) repairLocked(orphans []uint32, layer int, sc *hnswScratch) {
	m := h.maxConn(layer)
	sc.orphans, sc.relist = sc.orphans[:0], sc.relist[:0]
	for _, u := range orphans {
		if !h.aliveBit(u) {
			continue
		}
		sc.orphans = append(sc.orphans, u)
		if len(h.nodes[u].links) > layer && h.dropDeadLocked(u, layer) < m {
			sc.relist = append(sc.relist, u)
		}
	}
	if len(sc.relist) == 0 {
		return
	}
	dim, n := h.dim, len(sc.orphans)
	sc.scores = resize(sc.scores, n)
	if h.prec != embstore.SQ8 || !vecmath.HasSQ8Sym() {
		var p pairPivot
		for _, u := range sc.relist {
			h.pivot(&p, u)
			for r, c := range sc.orphans {
				sc.scores[r] = h.pairScore(&p, c)
			}
			h.relinkLocked(u, layer, sc)
		}
		return
	}
	cosine := h.cfg.Metric != DotProduct
	rows := h.store.Rows()
	sc.block, sc.blockSide = resize(sc.block, n*dim), resize(sc.blockSide, n)
	for r, c := range sc.orphans {
		code, side := rows.SQ8(int(c))
		copy(sc.block[r*dim:(r+1)*dim], code)
		sc.blockSide[r] = *side
	}
	sc.factors = resize(sc.factors, 3*scanBlockRows)
	rowOff, rowScale, rowSum := sc.factors[:n], sc.factors[scanBlockRows:scanBlockRows+n], sc.factors[2*scanBlockRows:2*scanBlockRows+n]
	vecmath.SQ8RowFactors(rowOff, rowScale, rowSum, sc.blockSide, cosine)
	g := &sc.group
	g.Floor = [scanGroup]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for lo := 0; lo < len(sc.relist); lo += scanGroup {
		group := sc.relist[lo:min(lo+scanGroup, len(sc.relist))]
		for j, u := range group { // unused kernel lanes keep stale codes, their dots unread
			code, sd := rows.SQ8(int(u))
			g.A[j], g.B[j], g.C[j] = sq8Factors(dim, sd.Scale, sd.Offset, sd.CodeSum, sd.Norm, cosine)
			g.Set(j, code)
		}
		_, stride := survivors(sc.acc[:], sc.surv[:n], g, len(group), sc.block, rowOff, rowSum, rowScale)
		for j, u := range group {
			for r := range sc.scores {
				sc.scores[r] = filterScore(rowOff[r], rowSum[r], rowScale[r], g.A[j], g.B[j], g.C[j], sc.acc[stride*r+j])
			}
			h.relinkLocked(u, layer, sc)
		}
	}
}

// dropDeadLocked removes the dead links from slot u's list at layer,
// keeping the rest in order, and returns the list's new length. The
// list's layer-0 prune record (pruneLocked) follows the removal, so the
// next over-cap prune can still reuse its verdicts: each removed link
// shortens the kept or the discarded run it sat in, and if a kept link
// died the discards lose their verdicts (the record's size is cut to
// its kept count) — what the next prune would have concluded from the
// dead link itself. Caller holds h.mu for writing.
func (h *HNSW) dropDeadLocked(u uint32, layer int) int {
	ul := h.nodes[u].links[layer]
	var rec pruneRecord
	if layer == 0 {
		rec = h.pruneRecordOf(u, len(ul))
	}
	live := ul[:0]
	size, kept, keptDied := int(rec.size), int(rec.kept), false
	for i, nb := range ul {
		switch {
		case h.aliveBit(nb):
			live = append(live, nb)
		case i < int(rec.kept):
			size, kept, keptDied = size-1, kept-1, true
		case i < int(rec.size):
			size--
		}
	}
	if len(live) == len(ul) {
		return len(ul)
	}
	h.nodes[u].links[layer] = live
	if keptDied {
		size = kept
	}
	if layer == 0 {
		h.setPruned(u, pruneRecord{size: uint16(size), kept: uint16(kept), at: rec.at})
	}
	return len(live)
}

// relinkLocked admits orphans (sc.orphans, scored against u in
// sc.scores) into slot u's list at
// layer, which dropDeadLocked left under the cap; an orphan u already
// holds, or u itself, is passed over (a visited stamp, not a search of
// the list). A list that still holds at least M links takes its single
// best orphan and runs no diversity walk. Only a list left under M —
// every list above layer 0, whose cap is M — walks the orphans
// best-first, admitting those that pass the diversity rule against its
// current links while it is under the cap; if none passes, the closest
// one is admitted anyway, so a hole never just shrinks the graph. u's
// surviving links are kept as they are. Caller holds h.mu for writing.
func (h *HNSW) relinkLocked(u uint32, layer int, sc *hnswScratch) {
	ul := h.nodes[u].links[layer]
	sc.bumpEpoch(len(h.nodes))
	sc.visited[u] = sc.epoch
	for _, nb := range ul {
		sc.visited[nb] = sc.epoch
	}
	sc.work = sc.work[:0]
	for r, c := range sc.orphans {
		if sc.visited[c] == sc.epoch {
			continue
		}
		sc.work = append(sc.work, scoredNode{slot: c, score: sc.scores[r]})
	}
	if len(sc.work) == 0 {
		return
	}
	if len(ul) >= h.cfg.M {
		best := sc.work[0]
		for _, c := range sc.work[1:] {
			if scoredCmp(c, best) < 0 {
				best = c
			}
		}
		h.nodes[u].links[layer] = append(ul, best.slot)
		return
	}
	sortScored(sc.work)
	m, survivors := h.maxConn(layer), len(ul)
	for _, c := range sc.work {
		if len(ul) >= m {
			break
		}
		if h.diverse(c, ul) {
			ul = append(ul, c.slot)
		}
	}
	if len(ul) == survivors {
		ul = append(ul, sc.work[0].slot)
	}
	h.nodes[u].links[layer] = ul
}

// pickEntryLocked selects the new entry point: the highest-level live
// node, the lowest slot among equals. Every live node above layer 0 is
// in h.upper, so only those are scanned; with none, the entry is the
// lowest live slot (−1 when the graph is empty). Caller holds h.mu for
// writing.
func (h *HNSW) pickEntryLocked() {
	h.entry, h.maxLevel = -1, -1
	for _, s := range h.upper {
		if l := len(h.nodes[s].links) - 1; l > h.maxLevel || l == h.maxLevel && int(s) < h.entry {
			h.entry, h.maxLevel = int(s), l
		}
	}
	if h.entry >= 0 {
		return
	}
	for w, word := range h.aliveBits {
		if word != 0 {
			h.entry, h.maxLevel = w<<6+bits.TrailingZeros64(word), 0
			return
		}
	}
}

// Remove tombstones the node in the graph (repairing its neighborhood)
// and deletes the vector from the store, atomically with respect to
// other mutations. The store frees the row, and the next new id takes
// over the tombstoned slot with it.
func (h *HNSW) Remove(id graph.NodeID) bool {
	sc := hnswScratchPool.Get().(*hnswScratch)
	h.mu.Lock()
	slot, ok := h.indexedSlot(id)
	if ok {
		h.detachLocked(slot, sc)
	}
	inStore := h.store.Delete(id)
	h.mu.Unlock()
	hnswScratchPool.Put(sc)
	return ok || inStore
}

// Build indexes every vector already in the store, in groups of
// scanGroup consecutive rows (insertGroup) fanned out over a ParallelFor
// worker pool with pooled per-worker scratch. Discovery (the expensive
// phase) runs under the shared read lock, so workers overlap; only the
// link-wiring critical sections serialize. On one CPU the groups run in
// order, and the graph is byte for byte the one inserting the rows one
// at a time, in row order, would build.
func (h *HNSW) Build() error {
	var ids []graph.NodeID // in row order
	h.store.Scan(func(rs embstore.Rows) {
		for ri := 0; ri < rs.Runs(); ri++ {
			r := rs.Run(ri)
			for i, id := range r.IDs {
				if !r.Masked(i) {
					ids = append(ids, id)
				}
			}
		}
	})
	ParallelFor((len(ids)+scanGroup-1)/scanGroup, func(g int) {
		sc := hnswScratchPool.Get().(*hnswScratch)
		h.insertGroup(sc, ids[g*scanGroup:min((g+1)*scanGroup, len(ids))])
		hnswScratchPool.Put(sc)
	})
	return nil
}

// groupMember is one node of an insertGroup.
type groupMember struct {
	id    graph.NodeID
	vec   []float64
	slot  uint32
	gen   uint32
	level int
	first bool // placed into an empty graph: it is the entry, with no links to find
	sweep bool // insertPlan's choice for layer 0
	lane  int  // its sweepLane, when sweep
}

// insertGroup is Build's insert of up to scanGroup ids already in the
// store, in row order: the work of an insert per id, in order, with
// their layer-0 sweeps done together. All of them are placed first
// (slots and level draws in row order); one sweepSelect over the rows
// then fills one lane per swept member, lane j seeing only the rows
// below its own slot — exactly the slots that were live when an insert
// of it alone would have swept. Each member then takes, in slot order,
// its insertPlan decision at the slot count it would have seen, its
// beams (run after the earlier members are wired, as they would have
// been), and its wiring. The lane limits need the members' rows in
// ascending order past every slot the graph covers, so a group that has
// one below (an id the graph already indexes, or a row under one that
// another worker's group placed first) falls back to one insert per id.
func (h *HNSW) insertGroup(sc *hnswScratch, ids []graph.NodeID) {
	dim := h.dim
	sc.vbuf = resize(sc.vbuf, scanGroup*dim)
	var mem [scanGroup]groupMember
	n := 0
	for _, id := range ids {
		vec := sc.vbuf[n*dim : (n+1)*dim]
		if h.store.With(id, func(v *embstore.VecView) { v.DequantizeInto(vec) }) {
			mem[n] = groupMember{id: id, vec: vec}
			n++
		}
	}
	members := mem[:n]
	if n == 0 {
		return
	}

	h.mu.Lock()
	serial, next := false, len(h.nodes)
	for _, m := range members {
		if row, ok := h.store.Row(m.id); ok {
			serial = serial || row < next
			next = row + 1
		}
	}
	if serial {
		h.mu.Unlock()
		for _, m := range members {
			_ = h.insert(m.id, m.vec, sc, false) // an id deleted since it was read is not indexed
		}
		return
	}
	placed := members[:0]
	for _, m := range members {
		var err error
		if m.slot, m.level, err = h.placeLocked(m.id, m.vec, sc, false); err != nil {
			continue // deleted since it was read: not indexed
		}
		m.gen = h.gen[m.slot]
		if m.first = h.entry < 0; m.first {
			h.entry, h.maxLevel = int(m.slot), m.level
		}
		placed = append(placed, m)
	}
	members, n = placed, len(placed)
	h.mu.Unlock()
	if n == 0 {
		return
	}

	discoverStart := time.Now()
	h.mu.RLock()
	lanes := 0
	for i := range members {
		m := &members[i]
		m.sweep = !m.first && insertPlan(h.prec, vecmath.HasSQ8Sym(), int(m.slot)+1, h.cfg.EfConstruction, h.cfg.M)
		if m.sweep {
			ln := &sc.lanes[lanes]
			ln.slot, ln.limit = m.slot, int(m.slot)
			m.lane = lanes
			lanes++
		}
	}
	if lanes > 0 {
		h.sweepSelect(sc, sc.lanes[:lanes])
	}
	h.mu.RUnlock()
	// Each member's discover observation carries an even share of the
	// group's sweep.
	sweepShare := time.Since(discoverStart) / time.Duration(n)

	for i := range members {
		m := &members[i]
		if m.first {
			continue
		}
		beamStart := time.Now()
		h.mu.RLock()
		top := h.beamDiscoverLocked(sc, m.slot, m.level, m.vec, m.sweep)
		h.mu.RUnlock()
		if m.sweep {
			sc.selected[0] = append(sc.selected[0][:0], sc.lanes[m.lane].sel...)
		}
		wireStart := time.Now()
		annMutDiscover.Observe(int64(sweepShare + wireStart.Sub(beamStart)))
		h.mu.Lock()
		h.wireLocked(sc, m.slot, m.gen, m.level, top)
		h.mu.Unlock()
		annMutWire.ObserveSince(wireStart)
	}
}

// Search returns the top-k neighbors of q as a fresh slice.
func (h *HNSW) Search(q []float64, k int) ([]Result, error) {
	return h.SearchInto(context.Background(), nil, q, k)
}

// SearchInto is Search writing into dst: the zero-allocation query
// path. While the store is small enough that reading all of it beats a
// beam (scanPlan, for a task of one query), the store scanner answers
// the query exactly — what Exact.SearchInto answers, counted under
// hnsw_scan — and the graph is not read. Otherwise it is the beam
// (searchBeam).
func (h *HNSW) SearchInto(ctx context.Context, dst []Result, q []float64, k int) ([]Result, error) {
	if h.scans(1, k) {
		return h.fallback.searchOne(ctx, dst, q, k, &hnswScanStats)
	}
	return h.searchBeam(ctx, dst, q, k)
}

// scans is scanPlan for a task of n queries at k over the store as it
// stands, with ef read under the read lock: the overload degrader's
// lowered ef moves a small store back to the beam.
func (h *HNSW) scans(n, k int) bool {
	h.mu.RLock()
	ef, m := h.cfg.EfSearch, h.cfg.M
	h.mu.RUnlock()
	return scanPlan(h.prec, vecmath.HasSQ8Sym(), n, h.store.Len(), ef, candidateK(h.prec, k), m)
}

// searchBeam is SearchInto's graph half. Greedy descent from the entry
// point to layer 1, then a beam across layer 0 of width max(EfSearch,
// k) — widened to at least rerank·k over sq8 slabs, so the candidate
// pool absorbs quantization noise. On SIMD backends the sq8 beam
// scores candidates with the symmetric integer kernel (the query is
// quantized once per search) and the surviving beam is re-ranked with
// the asymmetric full-precision-query kernel; on scalar backends the
// beam already scores asymmetrically and the trim to top-k is the whole
// re-rank. If the beam surfaces fewer than min(k, live) results
// (possible only on a heavily-churned graph), the exact fallback takes
// over so results never silently degrade. The tests that hold the
// graph's own recall call it directly, whatever the plan would pick.
func (h *HNSW) searchBeam(ctx context.Context, dst []Result, q []float64, k int) ([]Result, error) {
	if err := checkQuery(h.store, q, k); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	annQueriesHNSW.Inc()
	start := time.Now()
	sc := hnswScratchPool.Get().(*hnswScratch)
	sc.ctx.init(h.store, h.cfg.Metric, q)
	sc.ctx.done = ctx.Done()
	kk := candidateK(sc.ctx.prec, k)

	h.mu.RLock()
	if h.entry < 0 {
		h.mu.RUnlock()
		hnswScratchPool.Put(sc)
		annFallbacks.Inc()
		// Empty graph: serve whatever the store holds (normally nothing).
		return h.fallback.SearchInto(ctx, dst, q, k)
	}
	ef := h.cfg.EfSearch
	if ef < kk {
		ef = kk
	}
	h.searchLayer(sc, h.descendLocked(sc, 0), ef, 0)
	if sc.ctx.canceled() {
		h.mu.RUnlock()
		hnswScratchPool.Put(sc)
		return dst[:0], ctx.Err()
	}
	// The beam is the candidate stage; the re-rank trims it to the final
	// top-k — re-scoring each survivor with the asymmetric kernel when
	// the beam ranked with the symmetric one (store rows are still at
	// hand under the read lock), reusing the beam scores otherwise.
	rerankStart := time.Now()
	annStageHNSWCand.Observe(int64(rerankStart.Sub(start)))
	sc.top.reset(k)
	if sc.ctx.sym {
		for _, n := range sc.beam {
			h.rerankSlot(&sc.ctx, &sc.top, n.slot)
		}
	} else {
		for _, n := range sc.beam {
			sc.top.push(hit{ID: h.nodes[n.slot].id, Score: n.score})
		}
	}
	alive := h.alive
	h.mu.RUnlock()

	got := sc.top.sorted()
	want := k
	if alive < want {
		want = alive
	}
	if len(got) < want {
		hnswScratchPool.Put(sc)
		annFallbacks.Inc()
		return h.fallback.SearchInto(ctx, dst, q, k)
	}
	dst = appendResults(dst, got)
	hnswScratchPool.Put(sc)
	annStageHNSWRerank.ObserveSince(rerankStart)
	return dst, nil
}

// SearchBatch answers queries across a worker pool: by the store
// scanner, four queries per pass, while the store is small enough for
// that to beat a beam per query (scanPlan), by a beam per query
// otherwise.
func (h *HNSW) SearchBatch(ctx context.Context, qs [][]float64, k int) ([][]Result, error) {
	if h.scans(len(qs), k) {
		return h.fallback.searchBatch(ctx, qs, k, &hnswScanStats)
	}
	return batchSearch(qs, k, func(dst []Result, q []float64) ([]Result, error) {
		return h.searchBeam(ctx, dst, q, k)
	})
}
