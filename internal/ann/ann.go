// Package ann provides top-k nearest-neighbor indexes over an embstore:
// a brute-force Exact index (one blocked scan of the store), and an HNSW
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
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
// quantized copy of the query with its side of filterScore (SQ8 slabs
// — the symmetric first stage's operands, which the beam and the
// scanner both score by). It lives inside the pooled scratches, so
// building it allocates only while a scratch's buffers are still
// growing toward the store's dimensionality.
type queryCtx struct {
	q     []float64
	qNorm float64
	prec  embstore.Precision

	q32 []float32 // F32: narrowed query

	qSum    float64           // SQ8: Σ q[i], threaded through DotSQ8
	sq8q    embstore.SQ8Query // SQ8 + SIMD: quantized query for DotSQ8Sym
	sym     bool              // symmetric first stage active this query
	a, b, c float64           // SQ8 + SIMD: the quantized query's sq8Factors

	// done is the query's cancellation signal (ctx.Done()); nil — the
	// Background context's Done — means the query can never be canceled
	// and every check short-circuits on the nil test alone.
	done <-chan struct{}
}

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

// init prepares the context for one query against store under metric.
func (qc *queryCtx) init(store *embstore.Store, metric Metric, q []float64) {
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
		// Why scalar backends score in one stage: there the asymmetric
		// LUT kernel (scoreView) reads one byte per candidate lane and is
		// both cheaper and more accurate than a symmetric int8×int8 first
		// stage (DotSQ8Sym measured 24 ns against 20.5 ns at dim 32, and
		// it adds the query's quantization error), so a search ranks every
		// candidate with scoreView once and a re-score pass would
		// reproduce identical scores. Only the SIMD symmetric kernel is
		// cheap enough to earn a first stage over a candidate pool widened
		// to rerank·k (candidateK) that scoreView then re-ranks; the query
		// is quantized and factored once here for it.
		if vecmath.HasSQ8Sym() {
			qc.sym = true
			e := &qc.sq8q
			store.EncodeQuery(q, e)
			qc.a, qc.b, qc.c = sq8Factors(len(q), e.Scale, e.Offset, e.CodeSum, qc.qNorm, metric != DotProduct)
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
	// SearchInto returns up to k results most similar to q, sorted by
	// descending score (ties broken by ascending ID), in dst (grown as
	// needed and returned re-sliced): the zero-allocation single-query
	// path. The
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

// hit is a topK entry: a result, and in the scanner's pools the store
// row it was read from, which the re-rank reads it back by (0
// elsewhere). The row sits where a Result has padding: a hit is 16
// bytes too.
type hit struct {
	ID    graph.NodeID
	Row   uint32
	Score float64
}

// topK is a fixed-capacity min-heap on (score, id): the root is the
// current worst hit, evicted when something better arrives. Ordering
// matches Result sorting so results are deterministic under score ties.
type topK struct {
	k    int
	heap []hit
}

// reset prepares t for a query of size k, reusing the heap's capacity.
func (t *topK) reset(k int) {
	t.k = k
	t.heap = t.heap[:0]
}

// floor is the score a result must reach to enter: −Inf while t is
// filling, the worst held score once it holds k.
func (t *topK) floor() float64 {
	if len(t.heap) < t.k {
		return math.Inf(-1)
	}
	return t.heap[0].Score
}

// worse reports whether a ranks below b (lower score, or same score and
// higher ID).
func worse(a, b hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

func (t *topK) push(r hit) {
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
	// Sift r down from the root through a hole: each level moves the
	// worse child up one store, and r is written once where it stops.
	// Which child is worse is a coin flip the branch predictor loses
	// about half the time, so it is picked without a branch on the
	// scores (worseRight); only their rare exact tie branches, to the ID.
	h, i := t.heap, 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) {
			c += worseRight(h[c], h[c+1])
		}
		if !worse(h[c], r) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = r
}

// worseRight is 1 if r is worse than l (worse(r, l)) and 0 otherwise,
// with the score compare as a flag set (SETcc) rather than a branch.
func worseRight(l, r hit) int {
	if l.Score == r.Score { // rare: an exact tie goes to the higher ID
		return b2i(r.ID > l.ID)
	}
	return b2i(r.Score < l.Score)
}

// b2i is 1 for true, 0 for false; the compiler lowers it to SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hitCmp orders hits descending by score, ties ascending by ID (the
// inverse of worse). A package-level comparator keeps the sort
// allocation-free, unlike a sort.Slice closure.
func hitCmp(a, b hit) int {
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
func (t *topK) sorted() []hit {
	slices.SortFunc(t.heap, hitCmp)
	return t.heap
}

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

// appendResults copies hs onto dst[:0] as results, growing dst as
// needed.
func appendResults(dst []Result, hs []hit) []Result {
	dst = dst[:0]
	for _, h := range hs {
		dst = append(dst, Result{ID: h.ID, Score: h.Score})
	}
	return dst
}

// Exact is the brute-force index: every query reads the whole store
// through the blocked scanner (scan.go), a batch four queries to a row
// load. It is the ground truth HNSW recall is measured against, HNSW's
// fallback when a beam starves, and the scanner behind HNSW's reads,
// single and batched, on small stores.
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

// Search scans the store and returns the freshly allocated top-k.
func (e *Exact) Search(q []float64, k int) ([]Result, error) {
	out, err := e.SearchInto(context.Background(), nil, q, k)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SearchInto scans the store as a task of one query, on the calling
// goroutine (a single query does not fan out over CPUs),
// writing the top-k into dst. On SIMD backends sq8 stores are scanned
// two-stage (symmetric integer candidate generation by the one-query
// survivor kernel into a rerank·k-wide pool, asymmetric
// full-precision-query re-rank of the survivors); everywhere else each
// row is scored once at full query precision.
func (e *Exact) SearchInto(ctx context.Context, dst []Result, q []float64, k int) ([]Result, error) {
	return e.searchOne(ctx, dst, q, k, &exactStats)
}

// SearchBatch answers qs by the scanner in tasks of up to 32 queries,
// at least one per CPU, fanned over ParallelFor; each query counts on
// /metrics as a single one does.
func (e *Exact) SearchBatch(ctx context.Context, qs [][]float64, k int) ([][]Result, error) {
	return e.searchBatch(ctx, qs, k, &exactStats)
}

// ParallelFor runs fn(i) for every i in [0, n) across min(GOMAXPROCS,
// n) workers pulling from a shared atomic cursor; n ≤ 1 (or a single
// CPU) runs inline with no goroutines. The one fan-out primitive behind
// batch queries and HNSW bulk builds.
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
