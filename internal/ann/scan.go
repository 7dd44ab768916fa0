// The blocked scans. One exhaustive scanner answers every query that
// reads the whole store: Exact.SearchInto (a task of one query),
// Exact.SearchBatch, and HNSW.SearchBatch while the store is small
// enough that reading every row beats a beam per query (scanPlan). A
// beam is sublinear per query but shares nothing between queries; a
// scan in groups of four loads each stored row once for all four (the
// blocked scan of FAISS, Johnson, Douze & Jégou 2017).
// vecmath.Sym4Survivors scores a run of sq8 rows against four queries
// and returns only the rows that can still enter some query's pool. A
// whole 32-query scan of 5,000 dim-64 rows costs ~5.5 ns per (row,
// query), kernel, survivors, pools and re-rank together
// (BenchmarkExactSearchBatch32/sq8: ~27 µs a query on one CPU of a
// 2-vCPU Xeon), where a beam pays ~58 ns per row it visits (heap
// traffic, random slab reads).
//
// The scanner reads the store, which is the truth, never the graph's
// mirror of it: embstore.Store.ScanShard hands it each shard's
// contiguous runs (the dense slab, and a cold store's mapped base), and
// it walks them scanBlockRows rows at a time. A batch is cut into tasks
// of up to scanTaskQueries queries, one pass over the store each; a
// task computes a block's row factors once and runs each of its groups
// of four over the block while the block is in L1. On backends with the
// SIMD symmetric kernel an sq8 scan is two-stage, as every sq8 search
// is: the integer kernel picks the rows that reach a query's floor,
// only those are scored again and fill a candidateK-wide pool, and
// the asymmetric full-precision-query kernel re-ranks the pools by id
// through WithShard. Everywhere else (f32 stores, scalar backends) each
// row is scored once at full query precision inside the same block
// loop. A cold base row that an overwrite or a delete has masked is
// scored like any other and dropped only if it reaches a query's floor.
//
// Locking: a task holds a shard's read lock for its whole pass over
// that shard, and no lock between shards. Store slabs swap-remove on
// delete, so a row position means nothing once the lock is let go;
// within one hold a shard is one consistent image, and an id lives in
// exactly one shard, so no id enters a pool twice. A writer waits for
// at most one shard's pass of one task. The re-rank takes each shard's
// lock once per task and reads each pooled id as it stands then: an id
// deleted since its shard was scanned drops out, one overwritten is
// scored at its new value.
//
// Inserts have a sweep plan of their own (insertPlan), over the graph's
// slab rather than the store, because neighbor selection compares rows
// by the slab's own arithmetic (pairScore): an insert's layer-0
// neighbors come from one sweep of the slab (sweepSelect) instead of an
// efConstruction-wide beam, which visits thousands of rows at heap
// cost. Build places four nodes at a time and fills all four lanes of
// the kernel with their rows; a live Add sweeps with one lane. The
// graph is link for link that of an exact search for the top
// efConstruction candidates — a bound on the sweep's cheaper filter
// score (filterMargin) decides which rows it must score exactly, never
// which rows win. A sweep runs inside the insert's one read-lock hold
// for discovery, as the beam it replaces did.
package ann

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"ehna/internal/embstore"
	"ehna/internal/graph"
	"ehna/internal/vecmath"
)

const (
	// scanGroup is the kernel's query blocking: Sym4Survivors scores
	// four queries per row load. It is also the smallest batch HNSW
	// hands the scanner — below it the kernel's lanes run padded.
	scanGroup = 4

	// scanBlockRows is the scanner's and the insert sweep's unit of
	// work: 256 rows are 16 KB of dim-64 codes, 4 KB of code dots and
	// 6 KB of row factors — L1-sized. Scans poll cancellation once per
	// block.
	scanBlockRows = 256

	// scanTaskQueries caps a scan task, the queries that share one pass
	// over the store: eight kernel groups, read_batch's batch. A task
	// computes each block's row factors once and runs its groups over the
	// block while it is in L1; the cap bounds how long its pass holds a
	// shard's read lock.
	scanTaskQueries = 32

	// scanCrossover is c in the plan's inequality, slots ≤ c·ef·M. Set
	// from BenchmarkScanCrossover (5k/20k/50k × ef 64/192 at dim 64, one
	// CPU; the tables are in README "Kernel backends"): per query the
	// sweep cost ~14 µs + 3.7 µs per thousand slots, the beam is nearly
	// flat, and they crossed at ~16·ef·M slots at ef 64 and ~23·ef·M at
	// ef 192. With the survivor kernel the sweep costs ~7 µs + 3.3 µs per
	// thousand slots and crosses at ~30·ef·M at ef 64. At 6 the sweep is
	// 2.6× and 3.8× ahead at its own threshold, margin for hosts whose
	// caches hold less of the slab.
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

// scanPlan is the whole decision between HNSW's two batch algorithms,
// a pure function of what the index can see: the scanner answers sq8
// stores on backends with the SIMD symmetric kernel, for batches of at
// least one kernel group, while the store holds at most scanCrossover ·
// max(ef, kk) · M rows. Everything else keeps the per-query beam.
func scanPlan(prec embstore.Precision, symSIMD bool, batch, rows, ef, kk, m int) bool {
	return prec == embstore.SQ8 && symSIMD && batch >= scanGroup &&
		rows <= scanCrossover*max(ef, kk)*m
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
	// The pivot's side of the filter's error bound (sq8Factors; its side
	// of the filter score is in the kernel group's lane).
	errA, errB float64
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
// vecmath.Sym4Survivors pass over the slab serves all the lanes.
//
// No row is scored exactly until the sweep is over. Each row gets the
// scanner's form of the score instead (filterScore: row factors hoisted
// per block, pivot factors per lane), which lies within a margin of the
// exact score (filterMargin), so the two bound it from below and above.
// The width largest lower bounds so far bound the width-th best exact
// score from below (the lane's floor), and a row whose upper bound is
// under the floor cannot make the pool: the filter turns it away. The
// kernel applies the filter to a whole block against the floors as they
// stood at its start, lowered by sweepFloor so that it never turns away
// a row the filter keeps; the rows it returns take the filter again,
// against the floor as it stands. The rows that pass are kept with
// their code dots; at the end the ones still above the final floor are
// scored with pairScore's own arithmetic and ranked, so pools, ties and
// links are exactly what scoring every row exactly would give. Caller
// holds h.mu.
func (h *HNSW) sweepPool(sc *hnswScratch, lanes []sweepLane, width int) {
	dim, end := h.dim, 0
	cosine := h.cfg.Metric != DotProduct
	g := &sc.group
	sc.factors = resize(sc.factors, 3*scanBlockRows)
	for j := range lanes { // unused kernel lanes keep stale codes and a +Inf floor
		ln := &lanes[j]
		ln.cands, ln.lows, ln.floor = ln.cands[:0], ln.lows[:0], math.Inf(-1)
		sd := &h.side[ln.slot]
		g.A[j], g.B[j], g.C[j], ln.errA, ln.errB = sq8Factors(dim, float64(sd.scale), float64(sd.offset), sd.codeSum, float64(sd.norm), cosine)
		g.Set(j, h.codes[int(ln.slot)*dim:int(ln.slot+1)*dim])
		end = max(end, ln.limit)
	}
	for j := len(lanes); j < scanGroup; j++ {
		g.Floor[j] = math.Inf(1)
	}
	var margin [scanGroup]float64
	for lo := 0; lo < end; lo += scanBlockRows {
		hi := min(lo+scanBlockRows, end)
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
			margin[j] = filterMargin * (maxOff*ln.errA + maxScale*ln.errB)
			g.Floor[j] = sweepFloor(ln.floor, margin[j])
			if lo >= ln.limit {
				g.Floor[j] = math.Inf(1)
			}
		}
		acc := sc.acc[:scanGroup*n]
		ns := vecmath.Sym4Survivors(acc, sc.surv[:n], g, h.codes[lo*dim:hi*dim], rowOff, rowSum, rowScale)
		for _, e := range sc.surv[:ns] {
			r := int(e >> 4)
			s := uint32(lo + r)
			for m := e & (1<<len(lanes) - 1); m != 0; m &= m - 1 {
				j := bits.TrailingZeros32(m)
				ln := &lanes[j]
				if int(s) >= ln.limit {
					continue
				}
				dot := acc[scanGroup*r+j]
				approx := filterScore(rowOff[r], rowSum[r], rowScale[r], g.A[j], g.B[j], g.C[j], dot)
				if approx+margin[j] < ln.floor || s == ln.slot || !h.aliveBit(s) {
					continue
				}
				ln.cands = append(ln.cands, sweepCand{slot: s, dot: dot, high: approx + margin[j]})
				ln.pushLow(approx-margin[j], width)
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

// sweepFloor is the floor sweepPool hands the kernel for a lane whose
// filter keeps a row unless approx+margin < floor (rounded): low enough
// that approx < sweepFloor implies the rounded approx+margin is under
// floor, so the kernel never turns away a row the filter keeps. A kept
// row has (approx+margin)(1+δ) ≥ floor with |δ| ≤ 2⁻⁵³, so approx ≥
// floor − margin − |floor|·2⁻⁵²; taking 2·margin + |floor|·2⁻⁵⁰ off
// floor stays below that after the rounding of this subtraction itself.
// An infinite floor or a non-finite margin gives −Inf or NaN, which
// turns nothing away.
func sweepFloor(floor, margin float64) float64 {
	return floor - (2*margin + math.Abs(floor)*0x1p-50)
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

// filterScore is the blocked form of an sq8 score, from a row's factors
// (sq8RowFactor), a query's or a pivot's (sq8Factors) and their code
// dot: the scanner's first stage ranks by it, and sweepPool filters by
// it.
//
// Each product is converted explicitly, which the Go spec says rounds
// it on its own: no build may fuse it into a multiply-add (GOAMD64=v3
// would, for x*y+z), so the score is bit for bit the one
// vecmath.Sym4Survivors computes to pick survivors.
func filterScore(rowOff, rowSum, rowScale, a, b, c float64, dot int32) float64 {
	return float64(rowOff*a) + float64(rowSum*b) + float64(rowScale*c*float64(dot))
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

// sq8RowFactor is one row's side of scanQuery's score form, from its
// sidecar: offset and scale (over the norm, for cosine) and
// scale·Σcodes. The scanner computes it from the store's sidecars, the
// insert sweep from the graph slab's (sq8RowFactors).
func sq8RowFactor(scale, offset, norm float64, codeSum int32, cosine bool) (rowOff, rowScale, rowSum float64) {
	if cosine {
		inv := 0.0 // a zero row scores 0, as in the beam
		if norm != 0 {
			inv = 1 / norm
		}
		scale *= inv
		offset *= inv
	}
	return offset, scale, scale * float64(codeSum)
}

// sq8RowFactors fills one block's row factors from graph slab sidecars.
func sq8RowFactors(side []sq8Side, cosine bool, rowOff, rowScale, rowSum []float64) {
	for r, sd := range side {
		rowOff[r], rowScale[r], rowSum[r] = sq8RowFactor(float64(sd.scale), float64(sd.offset), float64(sd.norm), sd.codeSum, cosine)
	}
}

// scanQuery is one query's share of a scan task: its context (the
// re-rank reads q, qSum and qNorm from it) and its pool of store ids.
// On the two-stage path its kernel group holds the query-side terms of
// the symmetric score, hoisted out of the row loop as scorePendingBeam
// hoists them. With a row's decode parameters (scale, offset), code sum
// cs and the kernel's code dot acc,
//
//	dot = n·qOff·offset + qOff·scale·cs + offset·qScale·Σq + qScale·scale·acc
//	    = offset·a + scale·(b·cs + c·acc)
//
// for a = n·qOff + qScale·Σq, b = qOff, c = qScale; cosine divides by
// both norms, which sq8RowFactor folds into the row's offset and scale
// and prepare folds into a, b and c.
type scanQuery struct {
	ctx  queryCtx
	pool topK // candidateK wide on the two-stage path, k otherwise
	top  topK // the two-stage path's re-ranked k
	// floor is the score a row must reach to enter the pool: −Inf while
	// the pool is filling, its worst score afterwards.
	floor float64
}

// push adds a row that reached the floor to the pool and returns the
// new floor.
func (sq *scanQuery) push(id graph.NodeID, score float64) float64 {
	sq.pool.push(Result{ID: id, Score: score})
	if len(sq.pool.heap) == sq.pool.k {
		sq.floor = sq.pool.heap[0].Score
	}
	return sq.floor
}

// scanScratch is the pooled working state of one scan task.
type scanScratch struct {
	q []scanQuery // the task's queries
	// The task's queries as the kernel takes them, a group of four each,
	// with their score terms; a short last group's unused lanes repeat
	// its last query under a +Inf floor.
	groups []vecmath.Sym4Queries
	acc    [scanGroup * scanBlockRows]int32 // one group's code dots over one block, row-major
	surv   [scanBlockRows]uint32            // one group's survivors in one block
	// One block's row factors (sq8RowFactor).
	rowOff, rowScale, rowSum [scanBlockRows]float64
	byShard                  []shardPools // the re-rank's pools, grouped by store shard
}

// shardPools is the part of a task's pools that one store shard holds:
// ids[x] is in the pool of query q[x].
type shardPools struct {
	ids []graph.NodeID
	q   []int32
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// prepare readies the scratch for a task. On the two-stage path a short
// last group repeats the task's final query in its unused kernel lanes,
// whose +Inf floors keep them out of the survivors of every finite
// score, and whose survivor bits scoreBlockSym ignores.
func (sc *scanScratch) prepare(store *embstore.Store, metric Metric, qs [][]float64, k int) {
	dim := store.Dim()
	sc.q = resize(sc.q, len(qs))
	for j, q := range qs {
		sq := &sc.q[j]
		sq.ctx.init(store, q)
		sq.floor = math.Inf(-1)
		if !sq.ctx.sym {
			sq.pool.reset(k)
			continue
		}
		sq.pool.reset(candidateK(embstore.SQ8, k))
	}
	if !sc.q[0].ctx.sym {
		return
	}
	sc.groups = resize(sc.groups, (len(qs)+scanGroup-1)/scanGroup)
	for j := 0; j < len(sc.groups)*scanGroup; j++ {
		g, lane := &sc.groups[j/scanGroup], j%scanGroup
		e := &sc.q[min(j, len(qs)-1)].ctx
		g.Set(lane, e.sq8q.Code)
		g.A[lane], g.B[lane], g.C[lane], _, _ = sq8Factors(dim, e.sq8q.Scale, e.sq8q.Offset, e.sq8q.CodeSum, e.qNorm, metric != DotProduct)
		g.Floor[lane] = math.Inf(1)
	}
}

// scoreBlockSym is the two-stage path's first stage over rows [lo, hi)
// of r: one row-factor pass serves the whole task, then each group of
// four takes one vecmath.Sym4Survivors pass over the block, which the
// group before it left in L1, against its queries' floors as they stand
// at the block's start. Floors only rise, so the rows it returns are
// every row that can still enter some lane's pool; only those are
// scored again, lane by lane in row order, against the floor as it now
// stands and the row's mask, so each pool takes exactly the pushes a
// test of every row would give it.
func (sc *scanScratch) scoreBlockSym(r *embstore.Run, lo, hi, dim int, cosine bool) {
	n := hi - lo
	rowOff, rowScale, rowSum := sc.rowOff[:n], sc.rowScale[:n], sc.rowSum[:n]
	for i := range rowOff {
		scale, offset, norm, cs := r.SQ8(lo + i)
		rowOff[i], rowScale[i], rowSum[i] = sq8RowFactor(scale, offset, norm, cs, cosine)
	}
	codes, ids, acc := r.Codes[lo*dim:hi*dim], r.IDs[lo:hi], sc.acc[:scanGroup*n]
	for gi := range sc.groups {
		g, qs := &sc.groups[gi], sc.q[gi*scanGroup:min((gi+1)*scanGroup, len(sc.q))]
		for lane := range qs {
			g.Floor[lane] = qs[lane].floor
		}
		ns := vecmath.Sym4Survivors(acc, sc.surv[:n], g, codes, rowOff, rowSum, rowScale)
		for _, e := range sc.surv[:ns] {
			i := int(e >> 4)
			for m := e & (1<<len(qs) - 1); m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				sq := &qs[lane]
				score := filterScore(rowOff[i], rowSum[i], rowScale[i], g.A[lane], g.B[lane], g.C[lane], acc[scanGroup*i+lane])
				if score < sq.floor || r.Masked(lo+i) {
					continue
				}
				sq.push(ids[i], score)
			}
		}
	}
}

// scoreRows is the single-stage path over rows [lo, hi) of r — f32
// stores, and sq8 on backends without the SIMD symmetric kernel: each
// row is read once and scored against every query of the task at full
// query precision (quickScoreView), as a row-at-a-time scan scores it.
func (sc *scanScratch) scoreRows(m Metric, r *embstore.Run, lo, hi int) {
	var v embstore.VecView
	for i := lo; i < hi; i++ {
		r.View(i, &v)
		for j := range sc.q {
			sq := &sc.q[j]
			if score := m.quickScoreView(&sq.ctx, &v); !(score < sq.floor) && !r.Masked(i) {
				sq.push(r.IDs[i], score)
			}
		}
	}
}

// rerank is the two-stage path's second stage: every query's pool
// re-scored by id with the asymmetric full-precision-query kernel into
// its top k. The task's pools are grouped by store shard, so each
// shard's lock is taken once per task; an id deleted since its shard
// was scanned drops out, and one overwritten is scored as it now stands.
func (sc *scanScratch) rerank(store *embstore.Store, m Metric, k int) {
	nShards := store.NumShards()
	for len(sc.byShard) < nShards {
		sc.byShard = append(sc.byShard, shardPools{})
	}
	byShard := sc.byShard[:nShards]
	for i := range byShard {
		byShard[i].ids, byShard[i].q = byShard[i].ids[:0], byShard[i].q[:0]
	}
	for j := range sc.q {
		sq := &sc.q[j]
		sq.top.reset(k)
		for _, r := range sq.pool.heap {
			b := &byShard[store.ShardOf(r.ID)]
			b.ids, b.q = append(b.ids, r.ID), append(b.q, int32(j))
		}
	}
	for si := range byShard {
		b := &byShard[si]
		if len(b.ids) == 0 {
			continue
		}
		store.WithShard(si, b.ids, func(x int, v *embstore.VecView) {
			sq := &sc.q[b.q[x]]
			sq.top.push(Result{ID: b.ids[x], Score: m.scoreView(&sq.ctx, v)})
		})
	}
}

// searchTask answers a task of up to scanTaskQueries queries into out,
// appending to each list: one pass over the store, shard by shard under
// each shard's read lock, scanBlockRows rows at a time with
// cancellation polled per block; then each query's pool ranked. st
// times the two stages.
func (e *Exact) searchTask(ctx context.Context, out [][]Result, qs [][]float64, k int, st *scanStats) error {
	start := time.Now()
	sc := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(sc)
	sc.prepare(e.store, e.metric, qs, k)
	qc := &sc.q[0].ctx
	qc.done = ctx.Done() // the task polls cancellation through its first query
	dim, cosine, twoStage := e.store.Dim(), e.metric != DotProduct, qc.sym
	canceled := false
	for si := 0; si < e.store.NumShards() && !canceled; si++ {
		e.store.ScanShard(si, func(r embstore.Run) bool {
			for lo := 0; lo < len(r.IDs) && !canceled; lo += scanBlockRows {
				hi := min(lo+scanBlockRows, len(r.IDs))
				if twoStage {
					sc.scoreBlockSym(&r, lo, hi, dim, cosine)
				} else {
					sc.scoreRows(e.metric, &r, lo, hi)
				}
				canceled = qc.canceled()
			}
			return !canceled
		})
	}
	if canceled {
		return ctx.Err()
	}
	rerankStart := time.Now()
	if twoStage {
		sc.rerank(e.store, e.metric, k)
	}
	for j := range qs {
		ranked := &sc.q[j].pool
		if twoStage {
			ranked = &sc.q[j].top
		}
		out[j] = appendResults(out[j], ranked.sorted())
	}
	st.observe(start, rerankStart)
	return nil
}

// searchBatch answers qs by searchTask over tasks of whole kernel
// groups fanned over ParallelFor, counted under st: one task per CPU
// while that keeps tasks within scanTaskQueries, more otherwise. The
// first error wins; results stay index-aligned with qs.
func (e *Exact) searchBatch(ctx context.Context, qs [][]float64, k int, st *scanStats) ([][]Result, error) {
	for _, q := range qs {
		if err := checkQuery(e.store, q, k); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st.queries.Add(uint64(len(qs)))
	out := batchOut(len(qs), k)
	groups := (len(qs) + scanGroup - 1) / scanGroup
	cpus := runtime.GOMAXPROCS(0)
	per := scanGroup * min(scanTaskQueries/scanGroup, (groups+cpus-1)/cpus)
	tasks := (len(qs) + per - 1) / per
	errs := make([]error, tasks)
	ParallelFor(tasks, func(t int) {
		lo, hi := t*per, min((t+1)*per, len(qs))
		errs[t] = e.searchTask(ctx, out[lo:hi], qs[lo:hi], k, st)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
