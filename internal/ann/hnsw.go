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
// epoch-stamped visited array, candidate/result heaps, the
// narrowed/quantized query context) lives in a pooled scratch, the
// query norm is computed once per query, and candidate vectors are
// read straight out of the graph-resident slot-indexed slab — at the
// store's precision (f32/sq8), with no id→slot map lookups or
// shard locks per expansion — so SearchInto is allocation-free in
// steady state. Over sq8 slabs the beam widens to at least rerank·k;
// on SIMD backends it scores candidates with the symmetric int8×int8
// kernel (the query is quantized once per search) and the beam's
// survivors are re-ranked asymmetrically, while on scalar backends
// every candidate is scored with the asymmetric LUT kernel directly
// (see Metric.quickScoreView for why that is the scalar optimum).
// SearchBatch has a second plan for small sq8 stores — one blocked scan
// of the store per four queries instead of a beam each (scan.go).
//
// Mutability: Add inserts online (discovery under the read lock, link
// mutation under the write lock, so concurrent searches keep running
// through an insert's expensive phase). Discovery on layer 0 of a small
// sq8 graph is a sweep of the slab rather than a beam (insertPlan,
// scan.go), and yields exactly the links an exact top-efConstruction
// search would. A sweep can pick a slot whose own insert has not wired
// it yet, so wiring merges into the links a node already holds instead
// of replacing them. Remove tombstones the slot and
// repairs the hole by offering the victim's neighbors to one another
// (see detachLocked — work proportional to the links removed), falling
// back to a fresh entry point when the entry node itself is removed.
// The tombstoned slot goes on a free list, and the next insert — an
// overwrite of the same id included — takes it over in place, so under
// churn the slot count stays at the peak live count. Links into the
// slot that no repair rewrote are cut above layer 0, where its next
// occupant might not sit; on layer 0 they carry over to that occupant.
// Neighbor selection and repair score slab rows against each other at
// the slab's own precision (pairScore); nothing is dequantized. A
// layer-0 prune keeps the previous prune's verdicts on the links that
// are still there and judges only what changed (pruneLocked), with the
// same result as a prune from scratch.
// Build inserts a whole store snapshot in groups of four (insertGroup:
// one four-lane sweep serves the group's layer-0 discovery), the groups
// in parallel with per-worker scratch; on one CPU it builds byte for
// byte the graph of inserting the ids one at a time.
// SaveGraph/LoadHNSWGraph write and read the graph structure as
// one flat, CRC32C-checked file (graphfile.go) so a daemon can boot
// without paying the build again.
package ann

import (
	"context"
	"fmt"
	"math"
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

// hnswNode is one graph vertex. A node keeps its slot while it lives,
// so link lists can store bare slot numbers. Tombstoned slots
// (alive=false) keep id for bookkeeping but drop their links, and wait
// on the free list for the next insert to take them over.
type hnswNode struct {
	id    graph.NodeID
	alive bool
	links [][]uint32 // layer → neighbor slots; len(links) == level+1
}

// HNSW is the graph index over an embstore. The store remains the
// source of truth for vectors (Get/export/fallback read it); the graph
// holds the link structure plus a slot-indexed mirror of every
// vector's scan representation — the graph-resident slab. Beam
// expansions score straight out of that slab by graph slot, under the
// graph lock they already hold: no id→slot map lookup, no shard lock,
// no shard-grouping pass per expansion (profiling showed those three
// costing more than the distance kernels themselves). The slab lives
// at the store's precision, so an sq8 graph scans 1-byte lanes with a
// 32-byte sidecar per row; the memory price of the mirror is one extra
// BytesPerVector per graph slot, and a tombstoned slot's row is
// overwritten by the insert that reuses the slot.
//
// Safe for concurrent use: searches share the read lock, mutations
// take the write lock, and Add holds the write lock only for its cheap
// bookkeeping and link-wiring phases — neighbor discovery (the
// expensive part) runs under the read lock alongside queries. Slab
// rows are written in Add's bookkeeping phase (write lock), so under
// the read lock every slot ≤ len(nodes) has a stable row.
type HNSW struct {
	store    *embstore.Store
	levelMul float64 // 1/ln(M): geometric level distribution parameter
	fallback *Exact
	prec     embstore.Precision
	dim      int

	mu       sync.RWMutex
	cfg      HNSWConfig // EfSearch mutable via SetEfSearch
	nodes    []hnswNode
	slotOf   map[graph.NodeID]uint32 // alive slots only
	entry    int                     // entry-point slot; -1 when empty
	maxLevel int                     // level of entry; -1 when empty
	alive    int
	rng      *rand.Rand // level draws; guarded by mu

	// free holds the tombstoned slots, the next one to reuse last:
	// detachLocked pushes, placeLocked pops. Its length is the tombstone
	// count.
	free []uint32
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

	// The slot-indexed vector slab: row s is the scan representation of
	// nodes[s]. Exactly one family is populated, per precision.
	// Tombstoned slots keep their dead rows until a placement reuses them.
	vecs32 []float32 // F32
	norms  []float64 // F32 per-row norms
	codes  []int8    // SQ8
	side   []sq8Side // SQ8 per-row sidecar (norm included)

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

// sq8Side is the graph slab's per-row SQ8 sidecar (decode parameters,
// code sum for vecmath.DotSQ8Sym, original norm). The float fields are
// deliberately float32: the beam touches a random sidecar per scored
// candidate, and at 16 bytes/row four rows share a cache line — twice
// the residency of the float64 layout — while the ~1e-7 relative error
// the narrowing adds is far below sq8's own quantization error. The
// store keeps its sidecars in float64; only this beam-local mirror is
// narrowed.
type sq8Side struct {
	scale, offset, norm float32
	codeSum             int32
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
		slotOf:   make(map[graph.NodeID]uint32, store.Len()),
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

// sortScored sorts s by scoredCmp. Pruned lists and sweep pools hold a
// few dozen entries, where an insertion sort with the comparison inlined
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

// nodeHeap is a hand-rolled binary heap over scoredNode. Result beams
// are min-heaps (root = current worst, evicted first); the expansion
// frontier is a max-heap (root = most promising candidate).
type nodeHeap struct {
	min bool
	a   []scoredNode
}

func (hp *nodeHeap) reset(min bool) { hp.min, hp.a = min, hp.a[:0] }
func (hp *nodeHeap) len() int       { return len(hp.a) }

// peek returns the root: the worst element of a min-heap, the best of a
// max-heap.
func (hp *nodeHeap) peek() scoredNode { return hp.a[0] }

func (hp *nodeHeap) before(a, b scoredNode) bool {
	if hp.min {
		return a.score < b.score
	}
	return a.score > b.score
}

func (hp *nodeHeap) push(n scoredNode) {
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

func (hp *nodeHeap) pop() scoredNode {
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

	cand    nodeHeap // expansion frontier (max-heap)
	res     nodeHeap // beam results (min-heap, capped at ef)
	pending []uint32 // slots awaiting scoring this expansion

	// Neighbor-selection state: candidates sorted by score against the
	// pivot (beam survivors on insert, a node's links on prune, the
	// victim's other neighbors on repair).
	work     []scoredNode
	discard  []uint32   // diversity rejects, recycled to fill capacity
	added    []uint32   // a prune's newly kept links (pruneLocked)
	selected [][]uint32 // per-layer chosen neighbor slots (insert)

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

// setSlabRowLocked writes vec's scan representation as slot's slab
// row: in place for a reused slot, appended for slot len(nodes)−1, the
// one placeLocked just added. Caller holds h.mu for writing.
func (h *HNSW) setSlabRowLocked(slot uint32, vec []float64, norm float64) {
	lo := int(slot) * h.dim
	switch h.prec {
	case embstore.F32:
		if int(slot) == len(h.norms) {
			h.vecs32 = extendSlab(h.vecs32, h.dim)
			h.norms = append(h.norms, 0)
		}
		vecmath.F64To32(h.vecs32[lo:lo+h.dim], vec)
		h.norms[slot] = norm
	case embstore.SQ8:
		if int(slot) == len(h.side) {
			h.codes = extendSlab(h.codes, h.dim)
			h.side = append(h.side, sq8Side{})
		}
		scale, offset, codeSum := vecmath.EncodeSQ8(vec, h.codes[lo:lo+h.dim])
		h.side[slot] = sq8Side{scale: float32(scale), offset: float32(offset), norm: float32(norm), codeSum: codeSum}
	}
}

// extendSlab grows s by n zero elements (embstore keeps its own copy
// of this helper next to its slabs). The reused-capacity path must
// clear explicitly: spare capacity may hold stale row bytes.
func extendSlab[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		s = s[: len(s)+n : cap(s)]
		clear(s[len(s)-n:])
		return s
	}
	return append(s, make([]T, n)...)
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

// slabView points v at slot's slab row. Caller holds h.mu (read or
// write); rows exist for every allocated slot by construction.
func (h *HNSW) slabView(slot uint32, v *embstore.VecView) {
	lo := int(slot) * h.dim
	switch h.prec {
	case embstore.F32:
		v.F32 = h.vecs32[lo : lo+h.dim]
		v.Norm = h.norms[slot]
	case embstore.SQ8:
		s := &h.side[slot]
		v.Code = h.codes[lo : lo+h.dim]
		v.Scale, v.Offset, v.CodeSum, v.Norm = float64(s.scale), float64(s.offset), s.codeSum, float64(s.norm)
	}
}

// scoreSlot scores a single slot against the scratch's query from the
// graph slab with the candidate-generation kernel (symmetric over sq8
// slabs on SIMD backends). Used for entry points; bulk scoring goes
// through scorePendingBeam. Caller holds h.mu.
func (h *HNSW) scoreSlot(slot uint32, qc *queryCtx) float64 {
	var v embstore.VecView
	h.slabView(slot, &v)
	return h.cfg.Metric.beamScoreView(qc, &v)
}

// rerankSlot is the second stage for one first-stage survivor: slot's
// slab row re-scored with the asymmetric full-precision-query kernel
// and pushed, under its id, into top. Caller holds h.mu.
func (h *HNSW) rerankSlot(qc *queryCtx, top *topK, slot uint32) {
	var v embstore.VecView
	h.slabView(slot, &v)
	top.push(Result{ID: h.nodes[slot].id, Score: h.cfg.Metric.scoreView(qc, &v)})
}

// pairScore scores slab rows a and b against each other in the slab's
// own precision — the symmetric integer kernel on sq8 codes plus
// sidecars, Dot32 on f32 rows, cosine through the stored norms. It is
// what neighbor selection, pruning and detach repair compare
// candidates with: both operands already live in the slab, so nothing
// is dequantized or re-encoded, and the sq8 integer core is exact on
// every backend. Caller holds h.mu.
func (h *HNSW) pairScore(a, b uint32) float64 {
	la, lb := int(a)*h.dim, int(b)*h.dim
	if h.prec == embstore.SQ8 {
		return h.pairScoreSQ8(a, b, vecmath.DotSQ8SymCodes(h.codes[la:la+h.dim], h.codes[lb:lb+h.dim]))
	}
	return h.finishPair(vecmath.Dot32(h.vecs32[la:la+h.dim], h.vecs32[lb:lb+h.dim]), h.norms[a], h.norms[b])
}

// pairScoreSQ8 is pairScore of sq8 rows a and b given their code dot
// acc. The insert sweep finishes its pairs through it, in pairScore's
// argument order, so it scores bit for bit as pairScore does.
func (h *HNSW) pairScoreSQ8(a, b uint32, acc int32) float64 {
	sa, sb := &h.side[a], &h.side[b]
	return h.finishPair(sq8PairDot(sa, sb, h.dim, acc), float64(sa.norm), float64(sb.norm))
}

// finishPair turns a raw dot of two slab rows into the metric's score.
func (h *HNSW) finishPair(dot, na, nb float64) float64 {
	if h.cfg.Metric == DotProduct {
		return dot
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// sq8PairDot is the dot pairScore scores sq8 rows a and b by, given
// their sidecars and code dot acc: vecmath.DotSQ8Sym's correction term
// by term. The grouping is not symmetric in a and b, so callers keep
// pairScore's argument order.
func sq8PairDot(sa, sb *sq8Side, dim int, acc int32) float64 {
	aScale, aOff := float64(sa.scale), float64(sa.offset)
	bScale, bOff := float64(sb.scale), float64(sb.offset)
	return float64(dim)*aOff*bOff + aOff*bScale*float64(sb.codeSum) +
		bOff*aScale*float64(sa.codeSum) + aScale*bScale*float64(acc)
}

// beamPush applies the standard beam update for one scored slot: grow
// the beam until it holds ef results, then displace its worst. Both
// heaps receive every admitted node (cand drives expansion, res keeps
// the beam).
func beamPush(sc *hnswScratch, slot uint32, score float64, ef int) {
	if sc.res.len() < ef {
		sc.cand.push(scoredNode{slot: slot, score: score})
		sc.res.push(scoredNode{slot: slot, score: score})
	} else if score > sc.res.peek().score {
		sc.cand.push(scoredNode{slot: slot, score: score})
		sc.res.push(scoredNode{slot: slot, score: score})
		sc.res.pop()
	}
}

// scorePendingBeam scores sc.pending into the beam heaps (see
// beamPush). This is the query beam's hot loop; profiles show it bound
// by memory latency and per-candidate overhead, not kernel arithmetic,
// so the sq8+SIMD specialization (sc.ctx.sym) (a) reads codes and
// sidecars straight off the slab arrays with no VecView assembly,
// (b) hoists the affine correction's query-side terms out of the loop
// and calls the raw integer kernel per candidate, and (c) pre-touches
// every pending row first, so the candidates' cache misses issue
// back-to-back and resolve in parallel instead of serializing one
// score call at a time. The score it produces is symScoreView's up to
// floating-point regrouping. Caller holds h.mu.
func (h *HNSW) scorePendingBeam(sc *hnswScratch, ef int) {
	qc := &sc.ctx
	if !qc.sym {
		var v embstore.VecView
		for _, slot := range sc.pending {
			h.slabView(slot, &v)
			beamPush(sc, slot, h.cfg.Metric.quickScoreView(qc, &v), ef)
		}
		return
	}
	q := &qc.sq8q
	dim := h.dim
	var touch int32
	for _, slot := range sc.pending {
		lo := int(slot) * dim
		touch ^= int32(h.codes[lo]) ^ int32(h.codes[lo+dim-1]) ^ h.side[slot].codeSum
	}
	sc.touch = touch
	qScale := q.Scale
	qOffset := q.Offset
	nqo := float64(dim) * qOffset // n·qOff term of the correction
	qs := float64(q.CodeSum)      // Σ query codes
	cosine := h.cfg.Metric != DotProduct
	invQ := 0.0
	if qc.qNorm != 0 {
		invQ = 1 / qc.qNorm
	}
	for _, slot := range sc.pending {
		lo := int(slot) * dim
		sd := &h.side[slot]
		acc := vecmath.DotSQ8SymCodes(q.Code, h.codes[lo:lo+dim])
		scale, offset := float64(sd.scale), float64(sd.offset)
		dot := nqo*offset + qOffset*scale*float64(sd.codeSum) +
			offset*qScale*qs + qScale*scale*float64(acc)
		score := dot
		if cosine {
			if invQ == 0 || sd.norm == 0 {
				score = 0
			} else {
				score = dot * invQ / float64(sd.norm)
			}
		}
		beamPush(sc, slot, score, ef)
	}
}

// searchLayer runs a beam search of width ef across one layer from the
// (already scored, alive) entry ep, leaving the ≤ ef best alive nodes
// in sc.res. ef=1 degrades to the greedy descent used on upper layers.
// The query is sc.ctx. Caller holds h.mu (read or write).
func (h *HNSW) searchLayer(sc *hnswScratch, ep scoredNode, ef, layer int) {
	sc.bumpEpoch(len(h.nodes))
	sc.visited[ep.slot] = sc.epoch
	sc.cand.reset(false)
	sc.res.reset(true)
	sc.cand.push(ep)
	sc.res.push(ep)
	for sc.cand.len() > 0 {
		if sc.ctx.canceled() {
			return // abandoned query: stop expanding, caller returns ctx.Err()
		}
		c := sc.cand.pop()
		if sc.res.len() >= ef && c.score < sc.res.peek().score {
			break // every remaining candidate is worse than the beam's worst
		}
		if sc.cand.len() > 0 {
			// Pre-touch the likely next expansion's link chain (node
			// record → per-layer headers → neighbor list): three
			// dependent loads that would otherwise serialize at the top
			// of the next iteration now resolve behind this expansion's
			// scoring work. "Likely" because scoring may push a better
			// candidate above it; a wasted touch costs nothing.
			if nl := h.nodes[sc.cand.a[0].slot].links; layer < len(nl) {
				if nbl := nl[layer]; len(nbl) > 0 {
					sc.touch ^= int32(nbl[0])
				}
			}
		}
		sc.pending = sc.pending[:0]
		for _, nb := range h.nodes[c.slot].links[layer] {
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
}

// bestOfRes returns the highest-scoring element of sc.res (the res heap
// is a min-heap, so the best is not the root).
func (sc *hnswScratch) bestOfRes() scoredNode {
	best := sc.res.a[0]
	for _, n := range sc.res.a[1:] {
		if n.score > best.score {
			best = n
		}
	}
	return best
}

// gatherWork sorts the beam's survivors (sc.res) into sc.work,
// descending by score against the query, for selectNeighbors. self,
// the inserting slot, is left out: a swept insert may have linked to it
// already, so the beam can reach it.
func (sc *hnswScratch) gatherWork(self uint32) {
	sc.work = sc.work[:0]
	for _, n := range sc.res.a {
		if n.slot != self {
			sc.work = append(sc.work, n)
		}
	}
	sortScored(sc.work)
}

// diverse is the HNSW diversity rule: candidate c (scored against the
// pivot) is worth a link only if it is closer to the pivot than to
// every neighbor the pivot already keeps — spreading links across
// directions instead of bunching them in the nearest cluster. Caller
// holds h.mu.
func (h *HNSW) diverse(c scoredNode, kept []uint32) bool {
	for _, k := range kept {
		if h.pairScore(c.slot, k) > c.score {
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
// cap, scoring them against u's own slab row and dropping dead links
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
	if layer == 0 && int(u) < len(h.pruned) && int(h.pruned[u].size) <= len(links) {
		rec = h.pruned[u]
	}
	old, kept := int(rec.size), int(rec.kept)
	changed := false // the kept set differs from the previous prune's
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
			sc.work = append(sc.work, scoredNode{slot: nb, was: was, score: h.pairScore(u, nb)})
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
// Build path, where the vector is already in the store.
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

// placeLocked is insert's bookkeeping: the store upsert, the tombstone
// of any prior slot for id, the level draw, and the new node's slot —
// the last one freed if any (an overwrite's own, just detached), else a
// new one — with its slab row, liveness and generation. Caller holds
// h.mu for writing.
func (h *HNSW) placeLocked(id graph.NodeID, vec []float64, sc *hnswScratch, upsert bool) (slot uint32, level int, err error) {
	if upsert {
		if err := h.store.Upsert(id, vec); err != nil {
			return 0, 0, err
		}
	}
	if old, ok := h.slotOf[id]; ok {
		h.detachLocked(old, sc)
	}
	level = h.randomLevelLocked()
	if n := len(h.free); n > 0 {
		slot, h.free = h.free[n-1], h.free[:n-1]
		h.setPruned(slot, pruneRecord{})
	} else {
		slot = uint32(len(h.nodes))
		h.nodes = append(h.nodes, hnswNode{})
		h.gen = append(h.gen, 0)
	}
	h.setSlabRowLocked(slot, vec, vecmath.Norm(vec))
	h.nodes[slot] = hnswNode{id: id, alive: true, links: make([][]uint32, level+1)}
	h.setAliveBit(slot, true)
	h.placements++
	h.gen[slot] = h.placements
	if level > 0 {
		h.upper = append(h.upper, slot)
	}
	h.slotOf[id] = slot
	h.alive++
	return slot, level, nil
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
	entry, entryLevel := h.entry, h.maxLevel
	descend := entry >= 0 && uint32(entry) != slot
	if descend {
		top = max(top, min(level, entryLevel))
	}
	for len(sc.selected) <= top {
		sc.selected = append(sc.selected, nil)
	}
	if descend && top >= low {
		sc.ctx.init(h.store, vec)
		cur := scoredNode{slot: uint32(entry), score: h.scoreSlot(uint32(entry), &sc.ctx)}
		for layer := entryLevel; layer > top; layer-- {
			h.searchLayer(sc, cur, 1, layer)
			cur = sc.res.peek()
		}
		for layer := top; layer >= low; layer-- {
			h.searchLayer(sc, cur, h.cfg.EfConstruction, layer)
			cur = sc.bestOfRes()
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

// detachLocked tombstones slot, repairs the hole it leaves and frees
// the slot for reuse. Repair costs in proportion to the links removed:
// each alive neighbor's list is rewritten once (see repairLocked) and
// never re-selected. Links into the slot above layer 0 are cut
// everywhere (cutUpperLocked). If the victim was the entry point, a
// fresh one is chosen from the surviving nodes. Caller holds h.mu for
// writing.
func (h *HNSW) detachLocked(slot uint32, sc *hnswScratch) {
	n := &h.nodes[slot]
	if !n.alive {
		return
	}
	start := time.Now()
	n.alive = false
	h.setAliveBit(slot, false)
	h.alive--
	h.free = append(h.free, slot)
	if cur, ok := h.slotOf[n.id]; ok && cur == slot {
		delete(h.slotOf, n.id)
	}
	links := n.links
	n.links = nil
	if len(links) > 1 {
		h.cutUpperLocked(slot, len(links))
	}
	for layer := range links {
		for _, u := range links[layer] {
			if un := &h.nodes[u]; un.alive && len(un.links) > layer {
				un.links[layer] = h.repairLocked(u, un.links[layer], links[layer], layer, sc)
			}
		}
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

// repairLocked rewrites ul, slot u's links at layer, after one of them
// was tombstoned: every dead link goes (the victim, and any an earlier
// one-way delete left behind, so only alive links count toward the
// cap), and the victim's other alive neighbors — orphans — are scored
// against u and admitted best-first while they pass the diversity rule
// against u's current links and the list is under the cap; if none
// passes, the closest one is admitted anyway so a hole never just
// shrinks the graph. u's surviving links are kept as they are. Caller
// holds h.mu for writing.
func (h *HNSW) repairLocked(u uint32, ul, orphans []uint32, layer int, sc *hnswScratch) []uint32 {
	if layer == 0 {
		h.setPruned(u, pruneRecord{}) // the rewrite is not an append
	}
	kept := ul[:0]
	for _, nb := range ul {
		if h.aliveBit(nb) {
			kept = append(kept, nb)
		}
	}
	m := h.maxConn(layer)
	if len(kept) >= m {
		return kept
	}
	sc.work = sc.work[:0]
	for _, c := range orphans {
		if c != u && h.aliveBit(c) && !slices.Contains(kept, c) {
			sc.work = append(sc.work, scoredNode{slot: c, score: h.pairScore(u, c)})
		}
	}
	sortScored(sc.work)
	survivors := len(kept)
	for _, c := range sc.work {
		if len(kept) >= m {
			break
		}
		if h.diverse(c, kept) {
			kept = append(kept, c.slot)
		}
	}
	if len(kept) == survivors && len(sc.work) > 0 {
		kept = append(kept, sc.work[0].slot)
	}
	return kept
}

// pickEntryLocked selects the highest-level alive node as the new entry
// point (−1 when the graph is empty). Caller holds h.mu for writing.
func (h *HNSW) pickEntryLocked() {
	h.entry, h.maxLevel = -1, -1
	for i := range h.nodes {
		if h.nodes[i].alive && len(h.nodes[i].links)-1 > h.maxLevel {
			h.entry, h.maxLevel = i, len(h.nodes[i].links)-1
		}
	}
}

// Remove tombstones the node in the graph (repairing its neighborhood)
// and deletes the vector from the store, atomically with respect to
// other mutations. The next insert reuses the tombstoned slot.
func (h *HNSW) Remove(id graph.NodeID) bool {
	sc := hnswScratchPool.Get().(*hnswScratch)
	h.mu.Lock()
	slot, ok := h.slotOf[id]
	if ok {
		h.detachLocked(slot, sc)
	}
	inStore := h.store.Delete(id)
	h.mu.Unlock()
	hnswScratchPool.Put(sc)
	return ok || inStore
}

// Build indexes every vector already in the store, in groups of
// scanGroup consecutive ids (insertGroup) fanned out over a ParallelFor
// worker pool with pooled per-worker scratch. Discovery (the expensive
// phase) runs under the shared read lock, so workers overlap; only the
// link-wiring critical sections serialize. On one CPU the groups run in
// order, and the graph is byte for byte the one inserting the ids one
// at a time would build.
func (h *HNSW) Build() error {
	ids := h.store.IDs()
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
// store: the work of an insert per id, in order, with their layer-0
// sweeps done together. All of them are placed first (slots, level
// draws and slab rows in id order); one sweepSelect over the slab then
// fills one lane per swept member, lane j seeing only the rows below its
// own slot — exactly the rows that existed when an insert of it alone
// would have swept. Each member then takes, in slot order, its
// insertPlan decision at the slot count it would have seen, its beams
// (run after the earlier members are wired, as they would have been),
// and its wiring. The lane limits need the members in consecutive
// appended slots, so a group holding an id the graph already indexes
// (its detach would tombstone a slot the earlier members must still
// see), or placed while slots wait for reuse, falls back to one insert
// per id.
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
	serial := len(h.free) > 0
	for _, m := range members {
		_, indexed := h.slotOf[m.id]
		serial = serial || indexed
	}
	if serial {
		h.mu.Unlock()
		for _, m := range members {
			_ = h.insert(m.id, m.vec, sc, false) // upsert=false never errors
		}
		return
	}
	for i := range members {
		m := &members[i]
		m.slot, m.level, _ = h.placeLocked(m.id, m.vec, sc, false) // upsert=false never errors
		m.gen = h.gen[m.slot]
		if m.first = h.entry < 0; m.first {
			h.entry, h.maxLevel = int(m.slot), m.level
		}
	}
	h.mu.Unlock()

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
// path. Greedy descent from the entry point to layer 1, then a beam
// across layer 0 of width max(EfSearch, k) — widened to at least
// rerank·k over sq8 slabs, so the candidate pool absorbs quantization
// noise. On SIMD backends the sq8 beam scores candidates with the
// symmetric integer kernel (the query is quantized once per search)
// and the surviving beam is re-ranked with the asymmetric
// full-precision-query kernel; on scalar backends the beam already
// scores asymmetrically and the trim to top-k is the whole re-rank.
// If the beam surfaces fewer than min(k, live) results (possible only
// on a heavily-churned graph), the exact fallback takes over so
// results never silently degrade.
func (h *HNSW) SearchInto(ctx context.Context, dst []Result, q []float64, k int) ([]Result, error) {
	if err := checkQuery(h.store, q, k); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	annQueriesHNSW.Inc()
	start := time.Now()
	sc := hnswScratchPool.Get().(*hnswScratch)
	sc.ctx.init(h.store, q)
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
	cur := scoredNode{slot: uint32(h.entry), score: h.scoreSlot(uint32(h.entry), &sc.ctx)}
	for layer := h.maxLevel; layer > 0; layer-- {
		h.searchLayer(sc, cur, 1, layer)
		cur = sc.res.peek()
	}
	h.searchLayer(sc, cur, ef, 0)
	if sc.ctx.canceled() {
		h.mu.RUnlock()
		hnswScratchPool.Put(sc)
		return dst[:0], ctx.Err()
	}
	// The beam is the candidate stage; the re-rank trims it to the final
	// top-k — re-scoring each survivor with the asymmetric kernel when
	// the beam ranked with the symmetric one (slab rows are still at
	// hand under the read lock), reusing the beam scores otherwise.
	rerankStart := time.Now()
	annStageHNSWCand.Observe(int64(rerankStart.Sub(start)))
	sc.top.reset(k)
	if sc.ctx.sym {
		for _, n := range sc.res.a {
			h.rerankSlot(&sc.ctx, &sc.top, n.slot)
		}
	} else {
		for _, n := range sc.res.a {
			sc.top.push(Result{ID: h.nodes[n.slot].id, Score: n.score})
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
// that to beat a beam per query (scanPlan), by SearchInto per query
// otherwise.
func (h *HNSW) SearchBatch(ctx context.Context, qs [][]float64, k int) ([][]Result, error) {
	cfg := h.Config()
	if scanPlan(h.prec, vecmath.HasSQ8Sym(), len(qs), h.store.Len(), cfg.EfSearch, candidateK(h.prec, k), cfg.M) {
		return h.fallback.searchBatch(ctx, qs, k, &hnswScanStats)
	}
	return batchSearch(qs, k, func(dst []Result, q []float64) ([]Result, error) {
		return h.SearchInto(ctx, dst, q, k)
	})
}
