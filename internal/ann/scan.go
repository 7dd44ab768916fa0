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
// Inserts have a sweep plan too (insertPlan): an insert's layer-0
// neighbors come from one sweep of the slab (sweepSelect) instead of an
// efConstruction-wide beam, which visits thousands of rows at heap
// cost. Build places four nodes at a time and fills all four lanes of
// the kernel with their rows; a live Add sweeps with one lane. Rows are
// ranked by pairScore's own arithmetic, which is what neighbor
// selection compares against, so the graph is link for link that of an
// exact search for the top efConstruction candidates — a bound on the
// sweep's cheaper filter score (filterMargin) decides which rows it
// must score exactly, never which rows win. A sweep runs inside the
// insert's one read-lock hold for discovery, as the beam it replaces
// did.
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

	// insertPool is the width of sweepSelect's first, narrow pool: a
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
// discovery: sweep the slab (sweepSelect) over sq8 slabs on SIMD
// backends while it holds at most insertCrossover · efConstruction · M
// slots, run the efConstruction-wide beam otherwise.
func insertPlan(prec embstore.Precision, symSIMD bool, slots, efc, m int) bool {
	return prec == embstore.SQ8 && symSIMD && slots <= insertCrossover*efc*m
}

// sweepLane is one lane of an insert sweep: the node discovering its
// layer-0 links, the rows it may link to, its candidate pool and its
// choice.
type sweepLane struct {
	slot  uint32       // the pivot: its codes fill the lane; never pooled
	limit int          // rows [0, limit) are candidates
	pool  []scoredNode // sweepPool's answer
	sel   []uint32     // sweepSelect's answer
	// The pivot's side of the filter score and of its error bound
	// (sq8Factors).
	a, b, c, errA, errB float64
	// The rows the filter passed; a min-heap of the width largest lower
	// bounds on their exact scores; and the floor, the least of those
	// once there are width of them (−Inf before): width distinct rows
	// score at least that much, so a row whose upper bound is below it
	// cannot make the pool.
	cands []sweepCand
	lows  []float64
	floor float64
}

// sweepCand is a row the sweep's filter passed: its slot, its code dot
// with the pivot, and an upper bound on its exact score.
type sweepCand struct {
	slot uint32
	dot  int32
	high float64
}

// pushLow offers a passed row's lower bound to the width largest,
// raising the floor when they are full.
func (ln *sweepLane) pushLow(low float64, width int) {
	if !(low > ln.floor) {
		return
	}
	hp := ln.lows
	if len(hp) < width {
		hp = append(hp, low)
		for i := len(hp) - 1; i > 0; {
			p := (i - 1) / 2
			if !(hp[i] < hp[p]) {
				break
			}
			hp[i], hp[p] = hp[p], hp[i]
			i = p
		}
	} else {
		hp[0] = low // the least drops out
		for i := 0; ; {
			least, l, r := i, 2*i+1, 2*i+2
			if l < len(hp) && hp[l] < hp[least] {
				least = l
			}
			if r < len(hp) && hp[r] < hp[least] {
				least = r
			}
			if least == i {
				break
			}
			hp[i], hp[least] = hp[least], hp[i]
			i = least
		}
	}
	if len(hp) == width {
		ln.floor = hp[0]
	}
	ln.lows = hp
}

// sweepSelect is layer-0 discovery by sweep for one to four nodes at
// once: for each lane, the diversity heuristic (selectNeighbors) over
// the exact top efConstruction alive rows below its limit by pairScore,
// into lane.sel. It first sweeps into pools of only insertPool
// candidates; selectDiverse stops reading its candidates once it holds
// M diverse ones, so a lane whose narrow pool yields M would have
// yielded the same M from the full pool. Only the lanes whose narrow
// pool does not are swept again, together, at full width. Caller holds
// h.mu.
func (h *HNSW) sweepSelect(sc *hnswScratch, lanes []sweepLane) {
	m, ef := h.cfg.M, h.cfg.EfConstruction
	width := min(insertPool, ef)
	h.sweepPool(sc, lanes, width)
	widen := false
	for j := range lanes {
		ln := &lanes[j]
		ln.sel = h.selectDiverse(sc, ln.pool, ln.sel[:0], m)
		if len(ln.sel) < m && len(ln.pool) == width && width < ef {
			widen = true
			continue
		}
		ln.sel = h.fillDiscarded(sc, ln.sel, m)
		ln.limit = 0 // settled: the wide sweep passes this lane by
	}
	if !widen {
		return
	}
	h.sweepPool(sc, lanes, ef)
	for j := range lanes {
		if ln := &lanes[j]; ln.limit > 0 {
			ln.sel = h.selectNeighbors(sc, ln.pool, ln.sel[:0], m)
		}
	}
}

// sweepPool leaves in each lane's pool the width best alive rows below
// its limit other than its pivot, by pairScore against the pivot, in
// scoredCmp order: descending score, ties to the lower slot. One
// DotSQ8SymCodes4 pass over the slab serves all the lanes.
//
// No row is scored exactly until the sweep is over. Each row gets
// scanBlock's form of the score instead (row factors hoisted per block,
// pivot factors per lane), which lies within a margin of the exact
// score (filterMargin), so the two bound it from below and above. The
// width largest lower bounds so far bound the width-th best exact score
// from below (the lane's floor), and a row whose upper bound is under
// the floor cannot make the pool: the filter turns it away. The rows it
// passes are kept with their code dots; at the end the ones still
// above the final floor are scored with pairScore's own arithmetic and
// ranked, so pools, ties and links are exactly what scoring every row
// exactly would give. Caller holds h.mu.
func (h *HNSW) sweepPool(sc *hnswScratch, lanes []sweepLane, width int) {
	dim, end := h.dim, 0
	cosine := h.cfg.Metric != DotProduct
	sc.qw = resize(sc.qw, scanGroup*dim)
	qw := sc.qw
	sc.factors = resize(sc.factors, 3*scanBlockRows)
	for j := range lanes { // unused kernel lanes keep stale codes; their sums are ignored
		ln := &lanes[j]
		ln.cands, ln.lows, ln.floor = ln.cands[:0], ln.lows[:0], math.Inf(-1)
		sd := &h.side[ln.slot]
		ln.a, ln.b, ln.c, ln.errA, ln.errB = sq8Factors(dim, float64(sd.scale), float64(sd.offset), sd.codeSum, float64(sd.norm), cosine)
		widenCodes(qw[j*dim:(j+1)*dim], h.codes[int(ln.slot)*dim:int(ln.slot+1)*dim])
		end = max(end, ln.limit)
	}
	for lo := 0; lo < end; lo += scanBlockRows {
		hi := min(lo+scanBlockRows, end)
		acc := sc.acc[:scanGroup*(hi-lo)]
		vecmath.DotSQ8SymCodes4(acc, qw, h.codes[lo*dim:hi*dim], dim)
		n := hi - lo
		rowOff, rowScale, rowSum := sc.factors[:n], sc.factors[scanBlockRows:scanBlockRows+n], sc.factors[2*scanBlockRows:2*scanBlockRows+n]
		sq8RowFactors(h.side[lo:hi], cosine, rowOff, rowScale, rowSum)
		// The block's largest factors bound every row's filter error. A NaN
		// factor is skipped, but that row's filter score is NaN and passes.
		maxOff, maxScale := 0.0, 0.0
		for r := range rowOff {
			if v := math.Abs(rowOff[r]); v > maxOff {
				maxOff = v
			}
			if v := math.Abs(rowScale[r]); v > maxScale {
				maxScale = v
			}
		}
		for j := range lanes {
			ln := &lanes[j]
			a, b, c, floor := ln.a, ln.b, ln.c, ln.floor
			margin := filterMargin * (maxOff*ln.errA + maxScale*ln.errB)
			for r, rows := 0, min(hi, ln.limit)-lo; r < rows; r++ {
				dot := acc[scanGroup*r+j]
				approx := filterScore(rowOff[r], rowSum[r], rowScale[r], a, b, c, dot)
				if approx+margin < floor {
					continue
				}
				s := uint32(lo + r)
				if s == ln.slot || !h.aliveBit(s) {
					continue
				}
				ln.cands = append(ln.cands, sweepCand{slot: s, dot: dot, high: approx + margin})
				ln.pushLow(approx-margin, width)
				floor = ln.floor
			}
		}
	}
	for j := range lanes {
		ln := &lanes[j]
		floor := ln.floor
		ln.pool = ln.pool[:0]
		for _, cd := range ln.cands {
			if !(cd.high < floor) {
				ln.pool = append(ln.pool, scoredNode{slot: cd.slot, score: h.pairScoreSQ8(ln.slot, cd.slot, cd.dot)})
			}
		}
		sortScored(ln.pool)
		ln.pool = ln.pool[:min(len(ln.pool), width)]
	}
}

// filterMargin bounds, relative to the magnitudes it sums, how far
// sweepPool's filter score can sit from the exact score of the same
// pair. Both are the same four products of sidecar values, code sums
// and the code dot (exact integers), over the same norms; they differ
// only in rounding. Every factor is a float32 sidecar value, an integer
// below 2³¹ or a quotient of them, so no float64 intermediate comes
// near under- or overflow, and each rounding is a relative error of at
// most 2⁻⁵³. Neither path rounds more than nine times along any term,
// so the two scores differ by less than 16·2⁻⁵³·T = 2⁻⁴⁹·T, where T is
// the sum of the four products' magnitudes (over the norms, for
// cosine). Codes lie in [−128, 127], so |Σcodes| ≤ 128·dim and |code
// dot| ≤ 128²·dim, and T ≤ |rowOff|·errA + |rowScale|·errB
// (sq8Factors); the block's largest |rowOff| and |rowScale| bound every
// row of it. 2⁻⁴⁴ leaves a factor 32 over 2⁻⁴⁹ for the rounding of the
// bound itself and of adding it to or taking it from the filter score.
// A non-finite sidecar makes the margin, or that row's filter score,
// Inf or NaN, and no comparison with either turns a row away. At dim 64
// the margin is ~1e-12 of a cosine score, far below the gaps between
// pooled rows, so it costs the filter nothing.
const filterMargin = 0x1p-44

// filterScore is sweepPool's filter score of a row against a lane's
// pivot: scanBlock's form, from the row's factors (sq8RowFactors), the
// pivot's (sq8Factors) and their code dot.
func filterScore(rowOff, rowSum, rowScale, a, b, c float64, dot int32) float64 {
	return rowOff*a + rowSum*b + rowScale*c*float64(dot)
}

// sq8Factors returns the pivot's side of scanQuery's score form for an
// sq8 row with decode parameters scale and offset, code sum cs and norm
// (a, b, c), and of the filter's error bound (errA, errB: see
// filterMargin). Cosine folds 1/norm into all five; a zero norm scores
// 0 against everything, as pairScore and the beam do.
func sq8Factors(dim int, scale, offset float64, cs int32, norm float64, cosine bool) (a, b, c, errA, errB float64) {
	inv := 1.0
	if cosine {
		inv = 0
		if norm != 0 {
			inv = 1 / norm
		}
	}
	n, sum := float64(dim), float64(cs)
	a = (n*offset + scale*sum) * inv
	b = offset * inv
	c = scale * inv
	errA = (math.Abs(n*offset) + math.Abs(scale*sum)) * inv
	errB = (128*math.Abs(offset) + 128*128*math.Abs(scale)) * n * inv
	return a, b, c, errA, errB
}

// sq8RowFactors fills one block's row side of scanQuery's score form
// from the rows' sidecars: offset and scale (over the norm, for
// cosine) and scale·Σcodes.
func sq8RowFactors(side []sq8Side, cosine bool, rowOff, rowScale, rowSum []float64) {
	for r, sd := range side {
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
}

// widenCodes widens codes into dst, the form DotSQ8SymCodes4 takes its
// queries in.
func widenCodes(dst []int16, codes []int8) {
	dst = dst[:len(codes)]
	for i, c := range codes {
		dst[i] = int16(c)
	}
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
		sq.a, sq.b, sq.c, _, _ = sq8Factors(dim, e.Scale, e.Offset, e.CodeSum, sq.ctx.qNorm, metric != DotProduct)
	}
	for j := 0; j < scanGroup; j++ {
		widenCodes(sc.qw[j*dim:(j+1)*dim], sc.q[min(j, len(qs)-1)].ctx.sq8q.Code)
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
	sq8RowFactors(h.side[lo:hi], h.cfg.Metric != DotProduct, rowOff, rowScale, rowSum)
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
