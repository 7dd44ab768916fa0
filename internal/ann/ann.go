// Package ann provides top-k nearest-neighbor indexes over an embstore:
// a brute-force Exact index that scans shards in parallel, and an HNSW
// graph index (see hnsw.go) behind the same Index interface. Scores
// are similarities — higher is closer — under either
// cosine or raw dot-product, the two metrics the paper's evaluation uses
// (network reconstruction ranks pairs by dot product; attention weights
// are cosine-shaped).
//
// The single-query hot path is allocation-free: all per-query state
// (top-k heaps, candidate buffers, the HNSW visited array) comes from a
// pooled scratch, the scoring kernels are vecmath's unrolled loops, and
// SearchInto writes results into a caller-owned slice. Search is a thin
// veneer that copies the results out (one allocation).
package ann

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
)

// Metric selects the similarity function.
type Metric int

const (
	// Cosine scores by the angle between vectors, ignoring magnitude.
	Cosine Metric = iota
	// DotProduct scores by the raw inner product, the ranking the
	// reconstruction experiment (Figure 4) uses.
	DotProduct
)

// String returns the metric's name.
func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case DotProduct:
		return "dot"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ParseMetric converts a config string ("cosine" or "dot") to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "cosine":
		return Cosine, nil
	case "dot":
		return DotProduct, nil
	default:
		return 0, fmt.Errorf("ann: unknown metric %q (want cosine or dot)", s)
	}
}

// queryCtx is the per-query precomputed state the precision-dispatched
// scoring kernels consume: the query norm (every metric), a narrowed
// float32 copy (F32 slabs), the lane sum (SQ8 slabs — the affine
// correction term of the asymmetric kernel), and on SIMD backends a
// quantized copy of the query (SQ8 slabs — the symmetric first
// stage's operand). It lives inside the pooled scratches, so building
// it allocates only while a scratch's buffers are still growing toward
// the store's dimensionality.
type queryCtx struct {
	q     []float64
	qNorm float64
	prec  embstore.Precision

	q32 []float32 // F32: narrowed query

	qSum float64           // SQ8: Σ q[i], threaded through DotSQ8
	sq8q embstore.SQ8Query // SQ8 + SIMD: quantized query for DotSQ8Sym
	sym  bool              // symmetric first stage active this query

	// done is the query's cancellation signal (ctx.Done()); nil — the
	// Background context's Done — means the query can never be canceled
	// and every check short-circuits on the nil test alone.
	done <-chan struct{}
}

// cancelCheckEvery is how many scored vectors a scan batches between
// cancellation polls: coarse enough that the poll (one channel select)
// vanishes against the scoring kernels, fine enough that an abandoned
// query stops burning CPU within microseconds.
const cancelCheckEvery = 1024

// canceled polls the query's cancellation signal without blocking.
func (qc *queryCtx) canceled() bool {
	if qc.done == nil {
		return false
	}
	select {
	case <-qc.done:
		return true
	default:
		return false
	}
}

// init prepares the context for one query against store.
func (qc *queryCtx) init(store *embstore.Store, q []float64) {
	qc.q = q
	qc.qNorm = vecmath.Norm(q)
	qc.prec = store.Precision()
	qc.sym = false
	qc.done = nil
	switch qc.prec {
	case embstore.F32:
		if cap(qc.q32) < len(q) {
			qc.q32 = make([]float32, len(q))
		}
		qc.q32 = qc.q32[:len(q)]
		vecmath.F64To32(qc.q32, q)
	case embstore.SQ8:
		qc.qSum = vecmath.Sum(q)
		// The symmetric integer kernel only beats the asymmetric one in
		// its SIMD form (see Metric.quickScoreView); on scalar backends
		// the search stays single-stage and the query is never quantized.
		if vecmath.HasSQ8Sym() {
			qc.sym = true
			store.EncodeQuery(q, &qc.sq8q)
		}
	}
}

// scoreView scores the query against a stored vector at full query
// precision: Dot32 against the narrowed query for f32 slabs, the
// asymmetric DotSQ8 kernel for sq8 — only the stored vector's
// quantization error remains.
func (m Metric) scoreView(qc *queryCtx, v *embstore.VecView) float64 {
	var dot float64
	if v.F32 != nil {
		dot = vecmath.Dot32(qc.q32, v.F32)
	} else {
		dot = vecmath.DotSQ8(qc.q, v.Code, v.Scale, v.Offset, qc.qSum)
	}
	if m == DotProduct {
		return dot
	}
	if qc.qNorm == 0 || v.Norm == 0 {
		return 0
	}
	return dot / (qc.qNorm * v.Norm)
}

// quickScoreView is the scalar-backend candidate-scan kernel. Over sq8
// slabs it reads one byte per lane of the candidate through the
// asymmetric LUT kernel — the "exact re-rank from dequantized
// registers" fused into the scan itself. On scalar cores that is both
// cheaper and more accurate than a symmetric int8×int8 first stage
// (DotSQ8Sym — measured 20.5ns vs 24ns at dim 32, and it carries no
// query-side quantization error), so there the two stages of the sq8
// search share this kernel and an explicit re-score pass would
// reproduce identical scores. On SIMD backends the genuinely cheaper
// integer kernel reinstates the explicit two-stage search: candidate
// generation goes through symScoreView, and scoreView re-ranks the
// widened survivor pool (see candidateK). Other precisions have
// nothing cheaper than the exact kernel and fall through to scoreView.
func (m Metric) quickScoreView(qc *queryCtx, v *embstore.VecView) float64 {
	if v.Code == nil {
		return m.scoreView(qc, v)
	}
	dot := vecmath.DotSQ8(qc.q, v.Code, v.Scale, v.Offset, qc.qSum)
	if m == DotProduct {
		return dot
	}
	if qc.qNorm == 0 || v.Norm == 0 {
		return 0
	}
	return dot / (qc.qNorm * v.Norm)
}

// symScoreView scores the quantized query against an sq8 candidate
// through the symmetric integer kernel: 2 bytes moved per lane, no
// float conversions in the inner loop. The score carries the query's
// quantization error on top of the candidate's, so it only ranks the
// first stage — callers re-rank the widened survivor pool with
// scoreView. Valid only when qc.sym is set.
func (m Metric) symScoreView(qc *queryCtx, v *embstore.VecView) float64 {
	dot := vecmath.DotSQ8Sym(qc.sq8q.Code, v.Code,
		qc.sq8q.Scale, qc.sq8q.Offset, v.Scale, v.Offset,
		qc.sq8q.CodeSum, v.CodeSum)
	if m == DotProduct {
		return dot
	}
	if qc.qNorm == 0 || v.Norm == 0 {
		return 0
	}
	return dot / (qc.qNorm * v.Norm)
}

// beamScoreView is the candidate-generation kernel: the symmetric
// integer kernel when the backend makes it the cheap one, the
// asymmetric scan kernel otherwise. Scores from the two branches are
// not comparable across queries — each query commits to one branch at
// ctx.init time.
func (m Metric) beamScoreView(qc *queryCtx, v *embstore.VecView) float64 {
	if qc.sym {
		return m.symScoreView(qc, v)
	}
	return m.quickScoreView(qc, v)
}

// sq8Rerank is the candidate-widening multiplier for searches over sq8
// slabs: candidate generation runs at least rerank·k wide (the HNSW
// beam always; the linear scans' first-stage heap when the symmetric
// kernel drives them) so the final top-k is drawn from a pool that
// absorbs the quantization noise of the stored vectors — and, on the
// symmetric path, of the quantized query. 4 holds recall@10 within
// half a point of the exact f64 ranking at 100k vectors.
const sq8Rerank = 4

// candidateK widens k for quantized candidate generation: the HNSW
// beam floor on sq8 slabs, and the symmetric first-stage heap size of
// the two-stage linear scans. (On scalar backends linear scans rank
// every vector with the asymmetric kernel directly, so no widening
// applies there.)
func candidateK(prec embstore.Precision, k int) int {
	if prec == embstore.SQ8 {
		return k * sq8Rerank
	}
	return k
}

// Result is one query hit. Higher Score means more similar.
type Result struct {
	ID    graph.NodeID `json:"id"`
	Score float64      `json:"score"`
}

// Index answers top-k similarity queries over a mutable vector set.
// Implementations are safe for concurrent use.
type Index interface {
	// Add inserts or replaces a vector in the underlying store and the
	// index structures.
	Add(id graph.NodeID, vec []float64) error
	// Remove deletes a vector, reporting whether it was present.
	Remove(id graph.NodeID) bool
	// Search returns up to k results most similar to q, sorted by
	// descending score (ties broken by ascending ID).
	Search(q []float64, k int) ([]Result, error)
	// SearchInto is Search writing into dst (grown as needed and
	// returned re-sliced): the zero-allocation single-query path. The
	// context is polled cooperatively at beam-expansion granularity; a
	// canceled or expired query stops scanning promptly and returns
	// ctx.Err() so abandoned requests stop burning CPU.
	SearchInto(ctx context.Context, dst []Result, q []float64, k int) ([]Result, error)
	// SearchBatch answers many queries, executing them in parallel
	// under one context.
	SearchBatch(ctx context.Context, qs [][]float64, k int) ([][]Result, error)
	// Metric reports the similarity metric the index ranks by.
	Metric() Metric
}

// topK is a fixed-capacity min-heap on (score, id): the root is the
// current worst hit, evicted when something better arrives. Ordering
// matches Result sorting so results are deterministic under score ties.
type topK struct {
	k    int
	heap []Result
}

// reset prepares t for a query of size k, reusing the heap's capacity.
func (t *topK) reset(k int) {
	t.k = k
	t.heap = t.heap[:0]
}

// worse reports whether a ranks below b (lower score, or same score and
// higher ID).
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

func (t *topK) push(r Result) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, r)
		i := len(t.heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(t.heap[i], t.heap[p]) {
				break
			}
			t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
			i = p
		}
		return
	}
	if !worse(t.heap[0], r) {
		return
	}
	t.heap[0] = r
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		min := i
		if l < len(t.heap) && worse(t.heap[l], t.heap[min]) {
			min = l
		}
		if rr < len(t.heap) && worse(t.heap[rr], t.heap[min]) {
			min = rr
		}
		if min == i {
			return
		}
		t.heap[i], t.heap[min] = t.heap[min], t.heap[i]
		i = min
	}
}

// resultCmp orders results descending by score, ties ascending by ID
// (the inverse of worse). A package-level comparator keeps the sort
// allocation-free, unlike a sort.Slice closure.
func resultCmp(a, b Result) int {
	switch {
	case worse(b, a):
		return -1
	case worse(a, b):
		return 1
	default:
		return 0
	}
}

// sorted orders the heap into descending-score order in place and
// returns it. The slice aliases the heap storage; callers that outlive
// the scratch must copy.
func (t *topK) sorted() []Result {
	slices.SortFunc(t.heap, resultCmp)
	return t.heap
}

// queryScratch is the pooled per-query working state of the linear
// scans. Everything is capacity-reused across queries, making the
// steady-state single-query path allocation-free.
type queryScratch struct {
	top     topK
	wide    topK             // sq8 symmetric stage: widened candidate heap
	ctx     queryCtx         // precision-dispatched query state
	cand    []graph.NodeID   // re-rank candidate IDs
	byShard [][]graph.NodeID // candidates grouped by store shard
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// checkQuery validates a query against the store.
func checkQuery(store *embstore.Store, q []float64, k int) error {
	if len(q) != store.Dim() {
		return fmt.Errorf("ann: query dim %d, store dim %d", len(q), store.Dim())
	}
	if k < 1 {
		return fmt.Errorf("ann: k %d < 1", k)
	}
	return nil
}

// appendResults copies rs onto dst[:0], growing dst as needed.
func appendResults(dst, rs []Result) []Result {
	return append(dst[:0], rs...)
}

// rerankWide is the second stage of a symmetric sq8 search: it
// re-scores the survivors accumulated in sc.wide with the asymmetric
// full-precision-query kernel and returns the sorted top-k (aliasing
// sc.top's storage). Survivors are grouped by store shard so each
// shard lock is taken once; all buffers come from the scratch, keeping
// the path allocation-free in steady state.
func rerankWide(store *embstore.Store, m Metric, sc *queryScratch, k int) []Result {
	sc.cand = sc.cand[:0]
	for _, r := range sc.wide.heap {
		sc.cand = append(sc.cand, r.ID)
	}
	nShards := store.NumShards()
	for len(sc.byShard) < nShards {
		sc.byShard = append(sc.byShard, nil)
	}
	byShard := sc.byShard[:nShards]
	for i := range byShard {
		byShard[i] = byShard[i][:0]
	}
	for _, id := range sc.cand {
		byShard[store.ShardOf(id)] = append(byShard[store.ShardOf(id)], id)
	}
	qc := &sc.ctx
	sc.top.reset(k)
	t := &sc.top
	for si, ids := range byShard {
		if len(ids) == 0 {
			continue
		}
		store.WithShard(si, ids, func(id graph.NodeID, v *embstore.VecView) {
			t.push(Result{ID: id, Score: m.scoreView(qc, v)})
		})
	}
	return t.sorted()
}

// Exact is the brute-force index: every query scans the whole store.
// With more than one CPU the shards are scanned in parallel; on a
// single CPU (or a single shard) the scan runs sequentially through
// pooled scratch, which is both faster and allocation-free. It is the
// ground truth HNSW recall is measured against, and HNSW's fallback
// when a beam starves.
type Exact struct {
	store  *embstore.Store
	metric Metric
}

// NewExact builds a brute-force index over store.
func NewExact(store *embstore.Store, metric Metric) *Exact {
	return &Exact{store: store, metric: metric}
}

// Metric reports the similarity metric.
func (e *Exact) Metric() Metric { return e.metric }

// Add upserts into the backing store (the scan has no auxiliary state).
func (e *Exact) Add(id graph.NodeID, vec []float64) error { return e.store.Upsert(id, vec) }

// Remove deletes from the backing store.
func (e *Exact) Remove(id graph.NodeID) bool { return e.store.Delete(id) }

// scanSeq scans every shard sequentially into the scratch heap and
// returns the sorted results (aliasing scratch storage). sc.ctx must
// be initialized for the query. On the symmetric sq8 path the scan
// ranks with the integer kernel into a rerank·k-wide heap and the
// asymmetric kernel re-scores the survivors; otherwise the scan is the
// single-stage asymmetric (or f32) ranking. The query's
// cancellation signal is polled every cancelCheckEvery vectors; a
// canceled scan stops early and reports canceled=true.
func (e *Exact) scanSeq(sc *queryScratch, k int) (res []Result, canceled bool) {
	qc := &sc.ctx
	n := 0
	if qc.sym {
		sc.wide.reset(candidateK(qc.prec, k))
		w := &sc.wide
		for sIdx := 0; sIdx < e.store.NumShards(); sIdx++ {
			e.store.RangeShard(sIdx, func(id graph.NodeID, v *embstore.VecView) bool {
				w.push(Result{ID: id, Score: e.metric.symScoreView(qc, v)})
				n++
				return n%cancelCheckEvery != 0 || !qc.canceled()
			})
			if qc.canceled() {
				return nil, true
			}
		}
		return rerankWide(e.store, e.metric, sc, k), false
	}
	sc.top.reset(k)
	t := &sc.top
	for sIdx := 0; sIdx < e.store.NumShards(); sIdx++ {
		e.store.RangeShard(sIdx, func(id graph.NodeID, v *embstore.VecView) bool {
			t.push(Result{ID: id, Score: e.metric.quickScoreView(qc, v)})
			n++
			return n%cancelCheckEvery != 0 || !qc.canceled()
		})
		if qc.canceled() {
			return nil, true
		}
	}
	return t.sorted(), false
}

// Search scans the store and returns the freshly allocated top-k.
func (e *Exact) Search(q []float64, k int) ([]Result, error) {
	out, err := e.SearchInto(context.Background(), nil, q, k)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SearchInto scans the store, writing the top-k into dst. Compressed
// slabs are ranked by the precision-dispatched kernels; on SIMD
// backends sq8 scans run two-stage (symmetric integer candidate
// generation into a rerank·k-wide pool, asymmetric full-precision-
// query re-rank of the survivors), on scalar backends every vector is
// scored asymmetrically in a single pass.
func (e *Exact) SearchInto(ctx context.Context, dst []Result, q []float64, k int) ([]Result, error) {
	if err := checkQuery(e.store, q, k); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	annQueriesExact.Inc()
	start := time.Now()
	nShards := e.store.NumShards()
	sc := scratchPool.Get().(*queryScratch)
	sc.ctx.init(e.store, q)
	sc.ctx.done = ctx.Done()
	qc := &sc.ctx
	if runtime.GOMAXPROCS(0) == 1 || nShards == 1 {
		res, canceled := e.scanSeq(sc, k)
		if canceled {
			scratchPool.Put(sc)
			return dst[:0], ctx.Err()
		}
		dst = appendResults(dst, res)
		scratchPool.Put(sc)
		annStageExactCand.ObserveSince(start)
		return dst, nil
	}
	// Parallel scan: one goroutine per shard, merged through a heap.
	// qc is read-only during the fan-out. The first-stage heap width is
	// kk (= k unless the symmetric sq8 stage widens it).
	kk := k
	if qc.sym {
		kk = candidateK(qc.prec, k)
	}
	partial := make([]*topK, nShards)
	var wg sync.WaitGroup
	for sIdx := 0; sIdx < nShards; sIdx++ {
		wg.Add(1)
		go func(sIdx int) {
			defer wg.Done()
			t := &topK{k: kk, heap: make([]Result, 0, kk)}
			n := 0
			e.store.RangeShard(sIdx, func(id graph.NodeID, v *embstore.VecView) bool {
				t.push(Result{ID: id, Score: e.metric.beamScoreView(qc, v)})
				n++
				return n%cancelCheckEvery != 0 || !qc.canceled()
			})
			partial[sIdx] = t
		}(sIdx)
	}
	wg.Wait()
	if qc.canceled() {
		scratchPool.Put(sc)
		return dst[:0], ctx.Err()
	}
	merged := &sc.wide
	merged.reset(kk)
	for _, t := range partial {
		for _, r := range t.heap {
			merged.push(r)
		}
	}
	if qc.sym {
		dst = appendResults(dst, rerankWide(e.store, e.metric, sc, k))
	} else {
		dst = appendResults(dst, merged.sorted())
	}
	scratchPool.Put(sc)
	annStageExactCand.ObserveSince(start)
	return dst, nil
}

// SearchBatch runs queries across a GOMAXPROCS-sized worker pool, each
// through SearchInto, so batch queries are counted and timed on
// /metrics like single ones.
func (e *Exact) SearchBatch(ctx context.Context, qs [][]float64, k int) ([][]Result, error) {
	return batchSearch(qs, k, func(dst []Result, q []float64) ([]Result, error) {
		return e.SearchInto(ctx, dst, q, k)
	})
}

// ParallelFor runs fn(i) for every i in [0, n) across min(GOMAXPROCS,
// n) workers pulling from a shared atomic cursor; n ≤ 1 (or a single
// CPU) runs inline with no goroutines. The one fan-out primitive behind
// batch queries, HNSW bulk builds and the daemon's batcher flushes.
func ParallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// batchResultCap bounds one query's share of a batch's result slab, so
// a client asking for a huge k cannot make the slab huge; a list longer
// than its share grows on its own.
const batchResultCap = 64

// batchOut returns n empty result lists carved from one backing array,
// each with room for min(k, batchResultCap) results — capacity-limited,
// so an append past a list's share reallocates instead of spilling into
// its neighbor. A batch costs one result allocation, not one per query.
func batchOut(n, k int) [][]Result {
	per := min(max(k, 0), batchResultCap)
	slab := make([]Result, n*per)
	out := make([][]Result, n)
	for i := range out {
		out[i] = slab[i*per : i*per : (i+1)*per]
	}
	return out
}

// batchSearch fans qs out over ParallelFor, each query appending into
// its batchOut list. The first error wins; results stay index-aligned
// with qs.
func batchSearch(qs [][]float64, k int, search func(dst []Result, q []float64) ([]Result, error)) ([][]Result, error) {
	out := batchOut(len(qs), k)
	errs := make([]error, len(qs))
	ParallelFor(len(qs), func(i int) {
		out[i], errs[i] = search(out[i], qs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
