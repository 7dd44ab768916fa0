// The sweep plans of small sq8 graphs: HNSW.SearchBatch answers a
// batch, and HNSW.insert finds a new node's layer-0 neighbors, by a
// blocked brute-force sweep of the graph's own sq8 slab instead of
// beams. A beam is sublinear per query but shares nothing between
// queries; a batch can instead load every stored row once for several
// queries (the blocked scan of FAISS, Johnson, Douze & Jégou 2017).
// vecmath.DotSQ8SymCodes4 scores a run of rows against four queries at
// ~1.6 ns per (row, query) where a beam pays ~58 ns per row it visits
// (heap traffic, random slab reads), so while the slab is small enough
// — scanPlan is the rule — sweeping all of it is cheaper than searching
// it, and its candidates are the exact symmetric top rather than a
// beam's approximation of it.
//
// Results are the two-stage sq8 ranking Exact defines: the symmetric
// integer kernel fills a candidateK-wide pool per query, the asymmetric
// full-precision-query kernel re-ranks the pool (rerankSlot, the beam's
// own second stage), and a pool that comes up short of min(k, live)
// goes to the exact fallback.
//
// An insert has one query, so its sweep (sweepNeighbors) runs the
// kernel with three idle lanes, ~6 ns per row. That still beats the
// efConstruction-wide beam while the slab is small (insertPlan is the
// rule), because the beam visits thousands of rows at heap cost. The
// sweep scores rows with pairScore's own arithmetic, which is what
// neighbor selection compares against, so the graph it builds is link
// for link that of an exact search for the top efConstruction
// candidates. It runs inside the insert's one read-lock hold for
// discovery, as the beam it replaces did.
//
// Locking: the batch sweep takes the read lock per block of scanBlockRows
// rows, re-reading the slot count and the slab headers each time, and
// never across two blocks — a writer waits for at most one block
// (microseconds) however large the batch. Slots are append-only and
// rows of allocated slots never change, so a sweep that interleaves
// with writers sees each slot at most once; liveness is read when a row
// enters the pool and again when the pool is re-ranked (one lock hold
// per query), so no tombstoned slot is returned and an id overwritten
// mid-sweep appears once.
package ann

import (
	"context"
	"math"
	"sync"
	"time"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
)

const (
	// scanGroup is the kernel's query blocking: DotSQ8SymCodes4 scores
	// four queries per row load. It is also the smallest batch worth a
	// sweep — below it the kernel's lanes run padded.
	scanGroup = 4

	// scanBlockRows is the sweep's unit of work and of locking: 256
	// rows are 16 KB of dim-64 codes, 4 KB of code dots and 6 KB of row
	// factors — L1-sized — and ~4 µs of work per group, which is the
	// longest a sweep keeps a writer waiting.
	scanBlockRows = 256

	// scanCrossover is c in the plan's inequality, slots ≤ c·ef·M. Set
	// from BenchmarkScanCrossover (5k/20k/50k × ef 64/192 at dim 64, one
	// CPU; the table is in README "Kernel backends"): per query the
	// sweep costs ~14 µs + 3.7 µs per thousand slots, the beam is nearly
	// flat, and they cross at ~16·ef·M slots at ef 64 and ~23·ef·M at ef
	// 192. At 6 the sweep is still 1.75× and 2.4× ahead at its own
	// threshold, margin for hosts whose caches hold less of the slab.
	scanCrossover = 6

	// insertCrossover is c in insertPlan's slots ≤ c·efConstruction·M.
	// Set from BenchmarkInsertCrossover (dim 64, ef-construction 200, M
	// 16, one CPU; the table is in README "Kernel backends"): per insert
	// the sweep costs ~20 µs + 10.5 µs per thousand slots, the beam
	// 150–210 µs from 5k to 20k slots, and they cross at ~5·efc·M. At 3
	// the sweep is still ~1.3× ahead at its own threshold.
	insertCrossover = 3

	// insertPool is the width of sweepNeighbors' first, narrow pool: a
	// few times M, so that most inserts find M diverse candidates in it.
	insertPool = 48
)

// scanPlan is the whole decision between the two batch algorithms, a
// pure function of what the index can see: the sweep runs over sq8
// slabs on backends with the SIMD symmetric kernel, for batches of at
// least one kernel group, while the slab holds at most scanCrossover ·
// max(ef, kk) · M slots (tombstones included — the sweep reads them
// too). Everything else keeps the per-query beam.
func scanPlan(prec embstore.Precision, symSIMD bool, batch, slots, ef, kk, m int) bool {
	return prec == embstore.SQ8 && symSIMD && batch >= scanGroup &&
		slots <= scanCrossover*max(ef, kk)*m
}

// insertPlan is the same decision for an insert's layer-0 neighbor
// discovery: sweep the slab (sweepNeighbors) over sq8 slabs on SIMD
// backends while it holds at most insertCrossover · efConstruction · M
// slots, run the efConstruction-wide beam otherwise.
func insertPlan(prec embstore.Precision, symSIMD bool, slots, efc, m int) bool {
	return prec == embstore.SQ8 && symSIMD && slots <= insertCrossover*efc*m
}

// sweepNeighbors is layer-0 discovery for the node at slot by sweep:
// the diversity heuristic (selectNeighbors) over the exact top
// efConstruction alive slots by pairScore, appended to dst. It first
// sweeps into a pool of only insertPool candidates; selectNeighbors
// stops reading its candidates once it holds M diverse ones, so when
// the narrow pool yields M, the full pool would have yielded the same
// M. Only when it does not is the slab swept again at full width.
// Caller holds h.mu.
func (h *HNSW) sweepNeighbors(sc *hnswScratch, slot uint32, dst []uint32) []uint32 {
	dim, m, ef := h.dim, h.cfg.M, h.cfg.EfConstruction
	if cap(sc.qw) < scanGroup*dim {
		sc.qw = make([]int16, scanGroup*dim)
	}
	qw := sc.qw[:scanGroup*dim]
	for i, c := range h.codes[int(slot)*dim : int(slot+1)*dim] {
		qw[i] = int16(c)
	}
	width := min(insertPool, ef)
	all := h.sweepPool(sc, slot, qw, width)
	dst = h.selectDiverse(sc, dst, m)
	if len(dst) < m && !all && width < ef {
		h.sweepPool(sc, slot, qw, ef)
		dst = h.selectDiverse(sc, dst[:0], m)
	}
	return h.fillDiscarded(sc, dst, m)
}

// sweepPool leaves in sc.work the width best alive slots other than
// slot, by pairScore against it, in scoredCmp order: descending score,
// ties to the lower slot. Rows arrive in ascending slot order, so a row
// tying a pooled score ranks after it — it enters a full pool only by
// beating the worst outright. It reports whether the pool holds every
// candidate. The rows' code dots come from the four-lane kernel with
// only lane 0 (qw, slot's codes) in use.
func (h *HNSW) sweepPool(sc *hnswScratch, slot uint32, qw []int16, width int) bool {
	self := &h.side[slot]
	pool := sc.work[:0]
	floor := math.Inf(-1) // a full pool's worst score
	dim, n := h.dim, len(h.nodes)
	for lo := 0; lo < n; lo += scanBlockRows {
		hi := min(lo+scanBlockRows, n)
		acc := sc.acc[:scanGroup*(hi-lo)]
		vecmath.DotSQ8SymCodes4(acc, qw, h.codes[lo*dim:hi*dim], dim)
		for r := lo; r < hi; r++ {
			sd := &h.side[r]
			score := h.finishPair(sq8PairDot(self, sd, dim, acc[scanGroup*(r-lo)]), float64(self.norm), float64(sd.norm))
			s := uint32(r)
			if score < floor || s == slot || !h.aliveBit(s) {
				continue
			}
			i := len(pool) // insertion point, found from the tail
			if i == width {
				if score == floor {
					continue
				}
				i-- // the worst drops out
			} else {
				pool = append(pool, scoredNode{})
			}
			for ; i > 0 && pool[i-1].score < score; i-- {
				pool[i] = pool[i-1]
			}
			pool[i] = scoredNode{s, score}
			if len(pool) == width {
				floor = pool[width-1].score
			}
		}
	}
	sc.work = pool
	return len(pool) < width
}

// scanQuery is one query's share of a group sweep: its context (the
// re-rank reads q, qSum and qNorm from it), its candidate pool, and the
// query-side terms of the symmetric score, hoisted out of the row loop
// as scorePendingBeam hoists them. With the row's decode parameters
// (scale, offset), code sum cs and the kernel's code dot acc,
//
//	dot = n·qOff·offset + qOff·scale·cs + offset·qScale·Σq + qScale·scale·acc
//	    = offset·a + scale·(b·cs + c·acc)
//
// for a = n·qOff + qScale·Σq, b = qOff, c = qScale; cosine divides by
// both norms, which scanBlock folds into the row's offset and scale and
// prepare folds into a, b and c.
type scanQuery struct {
	ctx     queryCtx
	wide    topK // slots in Result.ID until the re-rank maps them to ids
	a, b, c float64
	// floor is the score a row must reach to enter the pool: −Inf while
	// the pool is filling, its worst score afterwards.
	floor float64
}

// scanScratch is the pooled working state of one group sweep.
type scanScratch struct {
	q   [scanGroup]scanQuery
	qw  []int16                          // the group's codes widened for the kernel, query-major
	acc [scanGroup * scanBlockRows]int32 // the kernel's code dots for one block, row-major
	// One block's row-side score factors: offset and scale (over the
	// norm, for cosine) and scale·Σcodes.
	rowOff, rowScale, rowSum [scanBlockRows]float64
	top                      topK
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// prepare readies the scratch for a group of 1–4 queries. A short last
// group repeats its final query in the unused kernel lanes (their sums
// are computed and ignored).
func (sc *scanScratch) prepare(store *embstore.Store, metric Metric, qs [][]float64, kk int) {
	dim := store.Dim()
	if cap(sc.qw) < scanGroup*dim {
		sc.qw = make([]int16, scanGroup*dim)
	}
	sc.qw = sc.qw[:scanGroup*dim]
	for j, q := range qs {
		sq := &sc.q[j]
		sq.ctx.init(store, q)
		sq.wide.reset(kk)
		sq.floor = math.Inf(-1)
		e := &sq.ctx.sq8q
		invQ := 1.0
		if metric != DotProduct {
			invQ = 0 // a zero query scores 0 against everything, as in the beam
			if sq.ctx.qNorm != 0 {
				invQ = 1 / sq.ctx.qNorm
			}
		}
		sq.a = (float64(dim)*e.Offset + e.Scale*float64(e.CodeSum)) * invQ
		sq.b = e.Offset * invQ
		sq.c = e.Scale * invQ
	}
	for j := 0; j < scanGroup; j++ {
		w := sc.qw[j*dim : (j+1)*dim]
		for i, c := range sc.q[min(j, len(qs)-1)].ctx.sq8q.Code {
			w[i] = int16(c)
		}
	}
}

// scanBlock scores slots [lo, hi) against the scratch's nq queries and
// pushes the rows that reach a query's floor — and are alive — into its
// pool. The row-side factors are computed once per block and the score
// loop runs query-outer, so a query's terms and floor stay in registers
// across the block. Caller holds h.mu.
func (h *HNSW) scanBlock(sc *scanScratch, nq, lo, hi int) {
	n := hi - lo
	acc := sc.acc[:scanGroup*n]
	vecmath.DotSQ8SymCodes4(acc, sc.qw, h.codes[lo*h.dim:hi*h.dim], h.dim)
	rowOff, rowScale, rowSum := sc.rowOff[:n], sc.rowScale[:n], sc.rowSum[:n]
	cosine := h.cfg.Metric != DotProduct
	for r, sd := range h.side[lo:hi] {
		scale, offset := float64(sd.scale), float64(sd.offset)
		if cosine {
			inv := 0.0 // a zero row scores 0, as in the beam
			if sd.norm != 0 {
				inv = 1 / float64(sd.norm)
			}
			scale *= inv
			offset *= inv
		}
		rowOff[r], rowScale[r], rowSum[r] = offset, scale, scale*float64(sd.codeSum)
	}
	for j := 0; j < nq; j++ {
		sq := &sc.q[j]
		a, b, c, floor := sq.a, sq.b, sq.c, sq.floor
		for r := range rowOff {
			score := rowOff[r]*a + rowSum[r]*b + rowScale[r]*c*float64(acc[scanGroup*r+j])
			if score < floor {
				continue
			}
			slot := uint32(lo + r)
			if !h.aliveBit(slot) {
				continue
			}
			sq.wide.push(Result{ID: graph.NodeID(slot), Score: score})
			if len(sq.wide.heap) == sq.wide.k {
				floor = sq.wide.heap[0].Score
			}
		}
		sq.floor = floor
	}
}

// scanGroupInto answers one group of 1–4 queries into out, appending
// to each list: a sweep of the slab, one read-lock hold per block, then
// each query's re-rank.
func (h *HNSW) scanGroupInto(ctx context.Context, out [][]Result, qs [][]float64, k int) error {
	start := time.Now()
	sc := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(sc)
	sc.prepare(h.store, h.cfg.Metric, qs, candidateK(embstore.SQ8, k))
	sc.q[0].ctx.done = ctx.Done() // the group polls cancellation through its first query
	for lo := 0; ; lo += scanBlockRows {
		h.mu.RLock()
		hi := min(lo+scanBlockRows, len(h.nodes))
		if lo < hi {
			h.scanBlock(sc, len(qs), lo, hi)
		}
		h.mu.RUnlock()
		if sc.q[0].ctx.canceled() {
			return ctx.Err()
		}
		if hi < lo+scanBlockRows {
			break
		}
	}
	rerankStart := time.Now()
	annStageScanCand.Observe(int64(rerankStart.Sub(start)))

	for j := range qs {
		sq := &sc.q[j]
		sc.top.reset(k)
		h.mu.RLock()
		for _, c := range sq.wide.heap {
			// Tombstoned since its block was swept: gone, and if the id was
			// overwritten its new slot is in the pool on its own merits.
			if slot := uint32(c.ID); h.aliveBit(slot) {
				h.rerankSlot(&sq.ctx, &sc.top, slot)
			}
		}
		want, empty := min(k, h.alive), h.entry < 0
		h.mu.RUnlock()
		if got := sc.top.sorted(); len(got) >= want && !empty {
			out[j] = appendResults(out[j], got)
			continue
		}
		// Same rule as SearchInto: a pool short of min(k, live), or an
		// empty graph, is answered from the store.
		annFallbacks.Inc()
		res, err := h.fallback.SearchInto(ctx, out[j], qs[j], k)
		if err != nil {
			return err
		}
		out[j] = res
	}
	annStageScanRerank.ObserveSince(rerankStart)
	return nil
}

// scanBatch answers qs by group sweeps fanned over ParallelFor. The
// first error wins; results stay index-aligned with qs.
func (h *HNSW) scanBatch(ctx context.Context, qs [][]float64, k int) ([][]Result, error) {
	for _, q := range qs {
		if err := checkQuery(h.store, q, k); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	annQueriesHNSWScan.Add(uint64(len(qs)))
	out := batchOut(len(qs), k)
	groups := (len(qs) + scanGroup - 1) / scanGroup
	errs := make([]error, groups)
	ParallelFor(groups, func(g int) {
		lo, hi := g*scanGroup, min((g+1)*scanGroup, len(qs))
		errs[g] = h.scanGroupInto(ctx, out[lo:hi], qs[lo:hi], k)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
