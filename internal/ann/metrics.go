package ann

import (
	"time"

	"ehna/internal/obs"
)

// Search- and mutation-path metrics, registered on the process-wide
// registry. The search instruments are touched from SearchInto and the
// mutation ones under the graph's write lock, so the rules are the
// hot-path rules: package-level pointers resolved at init (no registry
// lookup per query), atomic-only operations (obs.Counter.Inc and
// obs.Histogram.Observe are single atomic adds), zero allocations —
// TestSearchIntoZeroAlloc runs with all of this enabled.
//
// The two stage histograms split a query where the index designs
// split it: "candidates" is generating the candidate set (the full
// scan for exact, the layered beam search for HNSW) and "rerank" is
// ranking it into the final top-k (heap trim — the stage that absorbs
// the sq8-widened beam — for HNSW). "hnsw_scan" is HNSW.SearchBatch's
// store scan, and exact is Exact's; both are observed once per scan task
// of up to 32 queries — one pass over the store serves the task — so
// their sums stay wall time. The split shows where a
// latency regression lives: kernel/bandwidth cost lands in
// candidates, quantization-widening and top-k cost in rerank.
//
// The mutation histogram splits a graph write the way insert does:
// "detach" is tombstoning a slot and repairing its neighbors' lists
// (an overwrite's or a delete's extra cost, under the write lock),
// "discover" the beam searches or row sweep and neighbor selection
// under the read lock, "wire" linking the new node in and pruning neighbors pushed
// over their cap. discover and wire include the wait for their lock.
var (
	annQueriesExact = obs.Default().Counter("ehnad_ann_queries_total",
		"Single-vector queries answered, by index type.", obs.L("index", "exact"))
	annQueriesHNSW = obs.Default().Counter("ehnad_ann_queries_total",
		"Single-vector queries answered, by index type.", obs.L("index", "hnsw"))

	// Batch queries HNSW.SearchBatch answered by the store scanner instead of
	// a beam each (see scanPlan); the beam's share stays under "hnsw".
	annQueriesHNSWScan = obs.Default().Counter("ehnad_ann_queries_total",
		"Single-vector queries answered, by index type.", obs.L("index", "hnsw_scan"))

	annFallbacks = obs.Default().Counter("ehnad_ann_fallback_total",
		"Queries answered by the exact fallback after the primary index starved.")

	annStageExactCand  = annStage("exact", "candidates")
	annStageHNSWCand   = annStage("hnsw", "candidates")
	annStageHNSWRerank = annStage("hnsw", "rerank")
	annStageScanCand   = annStage("hnsw_scan", "candidates")
	annStageScanRerank = annStage("hnsw_scan", "rerank")

	annMutDetach   = annMutation("detach")
	annMutDiscover = annMutation("discover")
	annMutWire     = annMutation("wire")
)

func annStage(index, stage string) *obs.Histogram {
	return obs.Default().Histogram("ehnad_ann_stage_seconds",
		"Search-stage latency: candidate generation vs top-k re-rank, by index type.",
		obs.L("index", index), obs.L("stage", stage))
}

func annMutation(phase string) *obs.Histogram {
	return obs.Default().Histogram("ehnad_ann_mutation_seconds",
		"HNSW graph-mutation latency by phase: detach repair, neighbor discovery, link wiring.",
		obs.L("phase", phase))
}

// scanStats are the instruments a store scan reports to: Exact's own,
// or those of HNSW.SearchBatch's scanned plan. Exact has no rerank
// histogram; its candidates stage times the whole group.
type scanStats struct {
	queries      *obs.Counter
	cand, rerank *obs.Histogram
}

var (
	exactStats    = scanStats{annQueriesExact, annStageExactCand, nil}
	hnswScanStats = scanStats{annQueriesHNSWScan, annStageScanCand, annStageScanRerank}
)

// observe records a scan task that started at start and began ranking
// its pools at rerankStart.
func (st *scanStats) observe(start, rerankStart time.Time) {
	if st.rerank == nil {
		st.cand.ObserveSince(start)
		return
	}
	st.cand.Observe(int64(rerankStart.Sub(start)))
	st.rerank.ObserveSince(rerankStart)
}
