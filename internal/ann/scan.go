// The blocked scans. One exhaustive scanner answers every query that
// reads the whole store: Exact.SearchInto (a task of one query),
// Exact.SearchBatch, and HNSW.SearchInto and HNSW.SearchBatch while the
// store is small enough that reading every row beats a beam per query
// (scanPlan, with a threshold for single queries and one for batches).
// A beam is sublinear per query but shares nothing between queries; a
// scan in groups of four loads each stored row once for all four (the
// blocked scan of FAISS, Johnson, Douze & Jégou 2017).
// vecmath.Sym4Survivors scores a run of sq8 rows against four queries
// and returns only the rows that can still enter some query's pool;
// vecmath.Sym1Survivors does the same for a group of one — a single
// query, or a batch's last — instead of running it padded in four
// lanes. A whole 32-query scan of 5,000 dim-64 rows costs ~5.5 ns per
// (row, query), kernel, survivors, pools and re-rank together
// (BenchmarkExactSearchBatch32/sq8: ~27 µs a query on one CPU of a
// 2-vCPU Xeon), and a single query ~8–11 ns per row
// (BenchmarkExactSearchInto), where a beam pays ~58 ns per row it
// visits (beam upkeep, random slab reads).
//
// The scanner reads the store under the store's own lock:
// embstore.Store.Scan hands it the store's contiguous runs (a cold
// store's mapped base, and the slab), and it walks them scanBlockRows
// rows at a time. A batch is cut into tasks of up to
// scanTaskQueries queries, one pass over the store each; a task
// computes a block's row factors once and runs each of its groups of
// four over the block while the block is in L1. On backends with the
// SIMD symmetric kernel an sq8 scan is two-stage, as every sq8 search
// is: the integer kernel picks the rows that reach a query's floor,
// only those are scored again and fill a candidateK-wide pool, and the
// asymmetric full-precision-query kernel re-ranks the pools. A pool
// entry carries the store row it was read from, so the re-rank reads
// each candidate by row, with no id lookup. Everywhere else (f32
// stores, scalar backends) each row is scored once at full query
// precision inside the same block loop. A dead row (a masked base row,
// or a freed slab row) is scored like any other and dropped only if it
// reaches a query's floor.
//
// Locking: a task holds the store's read lock once, for its scan and
// its re-rank together, so it answers from one consistent image: no id
// enters a pool twice, and the rows the pools name are the rows the
// re-rank reads (a freed row may go to another id, and a fold renumbers
// every row, once the lock is let go). A writer waits for at most one
// task, up to scanTaskQueries queries; on the beam path it waits a
// whole beam on the graph's lock. The task takes no other store lock
// inside the hold: a read lock taken again while a writer waits
// deadlocks.
//
// Inserts have a sweep plan of their own (insertPlan): an insert's
// layer-0 neighbors come from one sweep of the store's rows
// (sweepSelect), read as the beam reads them, under the graph's lock
// (see HNSW), instead of an efConstruction-wide beam. Build places four nodes at a time and fills all four lanes of the
// kernel with their rows; a live Add sweeps with one lane. The kernel's
// score is pairScore bit for bit (filterScore is the one sq8 symmetric
// score), so the graph is link for link that of an exact search for the
// top efConstruction candidates. A sweep runs inside the insert's one
// read-lock hold for discovery, as the beam it replaces did.
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
	// four queries per row load. A task of fewer queries shares no row
	// load worth a wider threshold, so scanPlan gives it the
	// single-query one.
	scanGroup = 4

	// scanBlockRows is the scanner's and the insert sweep's unit of
	// work: 256 rows are 16 KB of dim-64 codes, 4 KB of code dots and
	// 6 KB of row factors — L1-sized. Scans poll cancellation once per
	// block.
	scanBlockRows = 256

	// scanTaskQueries caps a scan task, the queries that share one pass
	// over the store: eight kernel groups, read_batch's batch. A task
	// computes each block's row factors once and runs its groups over the
	// block while it is in L1; the cap bounds how long its pass holds the
	// store's read lock.
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

	// scanCrossoverOne is c for a task of fewer than scanGroup queries,
	// a single query above all: no kernel group spreads the pass over
	// the store across four queries, so it crosses the beam far sooner.
	// Set from BenchmarkScanCrossover's single-query rows (README
	// "Kernel backends"). It must stay below scanCrossover, so that a
	// store small enough to scan one query is small enough to scan a
	// batch.
	scanCrossoverOne = 4

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

// scanPlan is the whole decision between HNSW's two read algorithms,
// for a single query (HNSW.SearchInto) and a batch (HNSW.SearchBatch)
// alike, a pure function of what the index can see: the scanner
// answers sq8 stores on backends with the SIMD symmetric kernel while
// the store holds at most c · max(ef, kk) · M rows, where c is
// scanCrossover for a task of at least one kernel group of queries
// and scanCrossoverOne below that. Everything else keeps the beam.
func scanPlan(prec embstore.Precision, symSIMD bool, queries, rows, ef, kk, m int) bool {
	c := scanCrossover
	if queries < scanGroup {
		c = scanCrossoverOne
	}
	return prec == embstore.SQ8 && symSIMD && rows <= c*max(ef, kk)*m
}

// insertPlan is the same decision for an insert's layer-0 neighbor
// discovery: sweep the rows (sweepSelect) over sq8 stores on SIMD
// backends while the graph holds at most insertCrossover ·
// efConstruction · M slots, run the efConstruction-wide beam otherwise.
func insertPlan(prec embstore.Precision, symSIMD bool, slots, efc, m int) bool {
	return prec == embstore.SQ8 && symSIMD && slots <= insertCrossover*efc*m
}

// sweepLane is one lane of an insert sweep: the node discovering its
// layer-0 links, the rows it may link to, its candidate pool and its
// choice.
type sweepLane struct {
	slot  uint32       // the pivot: its codes fill the lane; never pooled
	limit int          // rows [0, limit) are candidates
	top   topK         // the pool as the sweep fills it, slots as ids
	pool  []scoredNode // sweepPool's answer
	sel   []uint32     // sweepSelect's answer
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
// vecmath.Sym4Survivors pass over the store's runs serves all the lanes.
//
// The kernel scores every row as pairScore does, bit for bit: the same
// filterScore over the same row factors (vecmath.SQ8RowFactors, hoisted
// per block), pivot factors (sq8Factors, per lane) and code dot. Each
// lane's pool is a topK over slots (store rows), whose order is
// scoredCmp's, and the kernel turns away a block's rows against each
// lane's worst pooled score as it stood at the block's start. Floors only rise and rows
// come in slot order, so a row it turns away could not have entered,
// and the rows it returns are pushed against the pool as it now stands:
// each pool is exactly what scoring every row would give. Caller holds
// h.mu.
func (h *HNSW) sweepPool(sc *hnswScratch, lanes []sweepLane, width int) {
	dim, end := h.dim, 0
	cosine := h.cfg.Metric != DotProduct
	rows := h.store.Rows()
	g := &sc.group
	sc.factors = resize(sc.factors, 3*scanBlockRows)
	for j := range lanes { // unused kernel lanes keep stale codes and a +Inf floor
		ln := &lanes[j]
		ln.top.reset(width)
		code, sd := rows.SQ8(int(ln.slot))
		g.A[j], g.B[j], g.C[j] = sq8Factors(dim, sd.Scale, sd.Offset, sd.CodeSum, sd.Norm, cosine)
		g.Set(j, code)
		end = max(end, ln.limit)
	}
	for j := len(lanes); j < scanGroup; j++ {
		g.Floor[j] = math.Inf(1)
	}
	for ri := 0; ri < rows.Runs(); ri++ {
		run := rows.Run(ri)
		runEnd := min(end, run.First+len(run.IDs))
		for lo := run.First; lo < runEnd; lo += scanBlockRows {
			hi := min(lo+scanBlockRows, runEnd)
			n, i := hi-lo, lo-run.First
			rowOff, rowScale, rowSum := sc.factors[:n], sc.factors[scanBlockRows:scanBlockRows+n], sc.factors[2*scanBlockRows:2*scanBlockRows+n]
			vecmath.SQ8RowFactors(rowOff, rowScale, rowSum, run.Sidecars(i, i+n), cosine)
			for j := range lanes {
				g.Floor[j] = lanes[j].top.floor()
				if lo >= lanes[j].limit {
					g.Floor[j] = math.Inf(1)
				}
			}
			ns, stride := survivors(sc.acc[:], sc.surv[:n], g, len(lanes), run.Codes[i*dim:(i+n)*dim], rowOff, rowSum, rowScale)
			for _, e := range sc.surv[:ns] {
				r := int(e >> 4)
				s := uint32(lo + r)
				for m := e & (1<<len(lanes) - 1); m != 0; m &= m - 1 {
					j := bits.TrailingZeros32(m)
					ln := &lanes[j]
					if int(s) >= ln.limit || s == ln.slot || !h.aliveBit(s) {
						continue
					}
					score := filterScore(rowOff[r], rowSum[r], rowScale[r], g.A[j], g.B[j], g.C[j], sc.acc[stride*r+j])
					ln.top.push(hit{ID: graph.NodeID(s), Score: score})
				}
			}
		}
	}
	for j := range lanes {
		ln := &lanes[j]
		ln.pool = ln.pool[:0]
		for _, r := range ln.top.sorted() {
			ln.pool = append(ln.pool, scoredNode{slot: uint32(r.ID), score: r.Score})
		}
	}
}

// filterScore is the one sq8 symmetric score, from a row's factors
// (vecmath.SQ8RowFactor), a query's or a pivot's (sq8Factors) and their
// code dot: the scanner's first stage and the beam (scoreSlot) rank
// queries by it, and pairScore and the insert sweep score store rows
// against each other by it.
//
// Each product is converted explicitly, which the Go spec says rounds
// it on its own: no build may fuse it into a multiply-add (GOAMD64=v3
// would, for x*y+z), so the score is bit for bit the one
// vecmath.Sym4Survivors computes to pick survivors.
func filterScore(rowOff, rowSum, rowScale, a, b, c float64, dot int32) float64 {
	return float64(rowOff*a) + float64(rowSum*b) + float64(rowScale*c*float64(dot))
}

// survivors runs the survivor kernel for a kernel group of lanes
// queries or pivots over one block of rows: vecmath.Sym1Survivors for
// a group of one, vecmath.Sym4Survivors otherwise, its unused lanes
// padded. It returns the survivor count and the stride of the code
// dots it left in acc, one row's dots after another.
func survivors(acc []int32, surv []uint32, g *vecmath.Sym4Queries, lanes int, rows []int8, rowOff, rowSum, rowScale []float64) (n, stride int) {
	if lanes == 1 {
		return vecmath.Sym1Survivors(acc[:len(rowOff)], surv, g, rows, rowOff, rowSum, rowScale), 1
	}
	return vecmath.Sym4Survivors(acc[:scanGroup*len(rowOff)], surv, g, rows, rowOff, rowSum, rowScale), scanGroup
}

// sq8Factors returns a query's or a pivot's side (a, b, c) of
// filterScore, for an sq8 row with decode parameters scale and offset,
// code sum cs and norm. Cosine folds 1/norm into all three; a zero norm
// scores 0 against everything. Each product is rounded on its own, as
// in filterScore, so that every build computes the same factors.
func sq8Factors(dim int, scale, offset float64, cs int32, norm float64, cosine bool) (a, b, c float64) {
	inv := 1.0
	if cosine {
		inv = 0
		if norm != 0 {
			inv = 1 / norm
		}
	}
	a = (float64(float64(dim)*offset) + float64(scale*float64(cs))) * inv
	return a, offset * inv, scale * inv
}

// scanQuery is one query's share of a scan task: its context (the
// re-rank reads q, qSum and qNorm from it) and its pool of store rows.
// On the two-stage path its kernel group holds the query-side terms of
// the symmetric score, hoisted out of the row loop as scorePendingBeam
// hoists them. With a row's decode parameters (scale, offset), code sum
// cs and the kernel's code dot acc,
//
//	dot = n·qOff·offset + qOff·scale·cs + offset·qScale·Σq + qScale·scale·acc
//	    = offset·a + scale·(b·cs + c·acc)
//
// for a = n·qOff + qScale·Σq, b = qOff, c = qScale; cosine divides by
// both norms, which vecmath.SQ8RowFactor folds into the row's offset and
// scale and sq8Factors into a, b and c.
type scanQuery struct {
	ctx  queryCtx
	pool topK // candidateK wide on the two-stage path, k otherwise
	top  topK // the two-stage path's re-ranked k
	// floor is the score a row must reach to enter the pool: −Inf while
	// the pool is filling, its worst score afterwards.
	floor float64
}

// push adds store row row, node id, which reached the floor, to the
// pool and returns the new floor.
func (sq *scanQuery) push(id graph.NodeID, row int, score float64) float64 {
	sq.pool.push(hit{ID: id, Row: uint32(row), Score: score})
	sq.floor = sq.pool.floor()
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
	// One block's row factors (vecmath.SQ8RowFactors).
	rowOff, rowScale, rowSum [scanBlockRows]float64
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// prepare readies the scratch for a task. On the two-stage path a short
// last group repeats the task's final query in its unused kernel lanes,
// whose +Inf floors keep them out of the survivors of every finite
// score, and whose survivor bits scoreBlockSym ignores.
func (sc *scanScratch) prepare(store *embstore.Store, metric Metric, qs [][]float64, k int) {
	sc.q = resize(sc.q, len(qs))
	for j, q := range qs {
		sq := &sc.q[j]
		sq.ctx.init(store, metric, q)
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
		g.A[lane], g.B[lane], g.C[lane] = e.a, e.b, e.c
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
	vecmath.SQ8RowFactors(rowOff, rowScale, rowSum, r.Sidecars(lo, hi), cosine)
	codes, ids := r.Codes[lo*dim:hi*dim], r.IDs[lo:hi]
	for gi := range sc.groups {
		g, qs := &sc.groups[gi], sc.q[gi*scanGroup:min((gi+1)*scanGroup, len(sc.q))]
		for lane := range qs {
			g.Floor[lane] = qs[lane].floor
		}
		ns, stride := survivors(sc.acc[:], sc.surv[:n], g, len(qs), codes, rowOff, rowSum, rowScale)
		for _, e := range sc.surv[:ns] {
			i := int(e >> 4)
			for m := e & (1<<len(qs) - 1); m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				sq := &qs[lane]
				score := filterScore(rowOff[i], rowSum[i], rowScale[i], g.A[lane], g.B[lane], g.C[lane], sc.acc[stride*i+lane])
				if score < sq.floor || r.Masked(lo+i) {
					continue
				}
				sq.push(ids[i], r.First+lo+i, score)
			}
		}
	}
}

// scoreRows is the single-stage path over rows [lo, hi) of r — f32
// stores, and sq8 on backends without the SIMD symmetric kernel: each
// row is read once and scored against every query of the task at full
// query precision (scoreView), as a row-at-a-time scan scores it.
func (sc *scanScratch) scoreRows(m Metric, r *embstore.Run, lo, hi int) {
	var v embstore.VecView
	for i := lo; i < hi; i++ {
		r.View(i, &v)
		for j := range sc.q {
			sq := &sc.q[j]
			if score := m.scoreView(&sq.ctx, &v); !(score < sq.floor) && !r.Masked(i) {
				sq.push(r.IDs[i], r.First+i, score)
			}
		}
	}
}

// rerank is the two-stage path's second stage: every query's pool
// re-scored with the asymmetric full-precision-query kernel into its
// top k, each candidate read by the store row its pool entry carries.
// It runs under the scan's lock hold, so each row is the one scanned.
func (sc *scanScratch) rerank(rows embstore.Rows, m Metric, k int) {
	var v embstore.VecView
	for j := range sc.q {
		sq := &sc.q[j]
		sq.top.reset(k)
		for _, c := range sq.pool.heap {
			rows.View(int(c.Row), &v)
			sq.top.push(hit{ID: c.ID, Score: m.scoreView(&sq.ctx, &v)})
		}
	}
}

// searchTask answers a task of up to scanTaskQueries queries into out,
// appending to each list: under one hold of the store's read lock, one
// pass over its runs, scanBlockRows rows at a time with cancellation
// polled per block, then the re-rank of the pools; each query's ranked
// list is copied out after the lock is let go. st times the two stages.
func (e *Exact) searchTask(ctx context.Context, out [][]Result, qs [][]float64, k int, st *scanStats) error {
	start := time.Now()
	sc := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(sc)
	sc.prepare(e.store, e.metric, qs, k)
	qc := &sc.q[0].ctx
	qc.done = ctx.Done() // the task polls cancellation through its first query
	dim, cosine, twoStage := e.store.Dim(), e.metric != DotProduct, qc.sym
	canceled := false
	var rerankStart time.Time
	e.store.Scan(func(rows embstore.Rows) {
		for ri := 0; ri < rows.Runs() && !canceled; ri++ {
			r := rows.Run(ri)
			for lo := 0; lo < len(r.IDs) && !canceled; lo += scanBlockRows {
				hi := min(lo+scanBlockRows, len(r.IDs))
				if twoStage {
					sc.scoreBlockSym(&r, lo, hi, dim, cosine)
				} else {
					sc.scoreRows(e.metric, &r, lo, hi)
				}
				canceled = qc.canceled()
			}
		}
		rerankStart = time.Now()
		if twoStage && !canceled {
			sc.rerank(rows, e.metric, k)
		}
	})
	if canceled {
		return ctx.Err()
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

// searchOne answers one query as a task of its own on the calling
// goroutine (a single query does not fan out over CPUs),
// writing the top k into dst, counted under st.
func (e *Exact) searchOne(ctx context.Context, dst []Result, q []float64, k int, st *scanStats) ([]Result, error) {
	if err := checkQuery(e.store, q, k); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st.queries.Inc()
	out, qs := [1][]Result{dst[:0]}, [1][]float64{q}
	if err := e.searchTask(ctx, out[:], qs[:], k, st); err != nil {
		return dst[:0], err
	}
	return out[0], nil
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
