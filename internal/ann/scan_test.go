package ann

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/graph"
	"ehna/internal/obs"
	"ehna/internal/vecmath"
)

// needScan skips tests of the scan itself on backends whose plan never
// picks it (TestSearchBatchBeamWhenNoScan covers those).
func needScan(t *testing.T) {
	t.Helper()
	if !vecmath.HasSQ8Sym() {
		t.Skip("no SIMD symmetric kernel: SearchBatch never scans on this backend")
	}
}

// sq8Graph builds a default-config graph, under metric, over n random
// dim-wide sq8 vectors — small enough that every read is scanned.
// Scans read the store, so a built graph compares with Exact as a
// loaded one would.
func sq8Graph(t testing.TB, n, dim int, metric Metric) *HNSW {
	t.Helper()
	cfg := DefaultHNSWConfig()
	cfg.Metric = metric
	return mustHNSW(t, buildStoreAt(t, n, dim, embstore.SQ8), cfg)
}

// scanMoved runs fn and reports how far the two HNSW query counters
// moved across it.
func scanMoved(fn func()) (beam, scan uint64) {
	b0, s0 := annQueriesHNSW.Load(), annQueriesHNSWScan.Load()
	fn()
	return annQueriesHNSW.Load() - b0, annQueriesHNSWScan.Load() - s0
}

// observations is the number of observations h holds.
func observations(h *obs.Histogram) uint64 {
	var s obs.HistSnapshot
	h.Snapshot(&s)
	return s.Count
}

// checkBatchAgainstExact answers qs through h.SearchBatch, checks every
// answer is Exact's over the same store bit for bit — a scanned batch
// and Exact run one scanner over one store — and returns the answers.
func checkBatchAgainstExact(t *testing.T, label string, h *HNSW, qs [][]float64, k int) [][]Result {
	t.Helper()
	exact := NewExact(h.store, h.Metric())
	got, err := h.SearchBatch(context.Background(), qs, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("%s: %d answers for %d queries", label, len(got), len(qs))
	}
	for i, q := range qs {
		want, err := exact.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[i], want) {
			t.Fatalf("%s: query %d: batch %v\n!= exact %v", label, i, got[i], want)
		}
	}
	return got
}

// TestScanBatchMatchesExact: a scanned batch is the two-stage sq8
// ranking Exact defines, under both metrics, for every batch size 1–37
// (every padding of the last kernel group, a last group of one, tasks
// of one and two groups and more). 1,500 rows are under both of
// scanPlan's thresholds, so every size is scanned and the beam counter
// never moves. Against the float64 truth over the source matrix it
// holds the sq8 recall floor (TestSQ8Recall's).
func TestScanBatchMatchesExact(t *testing.T) {
	needScan(t)
	const n, dim, k = 1500, 32, 10
	src := sourceMatrix(n, dim)
	for _, metric := range []Metric{Cosine, DotProduct} {
		h := sq8Graph(t, n, dim, metric)
		rng := rand.New(rand.NewSource(61))
		var approx, truth [][]graph.NodeID
		for size := 1; size <= 37; size++ {
			qs := benchQueries(rng, size, dim)
			beam, scan := scanMoved(func() {
				for i, rs := range checkBatchAgainstExact(t, metric.String(), h, qs, k) {
					approx = append(approx, ids(rs))
					truth = append(truth, truthTopK(src, qs[i], k, metric))
				}
			})
			if beam != 0 || scan != uint64(size) {
				t.Fatalf("%v batch of %d: beam counter moved %d, scan counter %d", metric, size, beam, scan)
			}
		}
		recall, err := eval.MeanRecallAtK(approx, truth)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: scanned recall@%d vs float64 truth = %.4f over %d queries", metric, k, recall, len(approx))
		if recall < 0.95 {
			t.Errorf("%v: scanned recall@%d = %.4f, want ≥ 0.95", metric, k, recall)
		}
		// k beyond the live count: everything, ranked.
		checkBatchAgainstExact(t, metric.String()+" k>live", h, benchQueries(rng, 5, dim), 2000)
	}
}

// TestScanBatchAfterChurn: after deletes and overwrites — the graph's
// slots freed and reused, one tombstone left per id still removed, the
// store's slabs swap-removed — no removed id surfaces, and the answers
// still equal Exact's over the store as it now stands.
func TestScanBatchAfterChurn(t *testing.T) {
	needScan(t)
	h := sq8Graph(t, 1500, 32, Cosine)
	rng := rand.New(rand.NewSource(67))
	removed := map[graph.NodeID]bool{}
	for i := 0; i < 200; i++ {
		id := graph.NodeID(rng.Intn(1500))
		h.Remove(id)
		removed[id] = true
	}
	vec := make([]float64, 32)
	for i := 0; i < 200; i++ {
		id := graph.NodeID(rng.Intn(1500))
		if err := h.Add(id, randVec(rng, vec)); err != nil {
			t.Fatal(err)
		}
		delete(removed, id)
	}
	if _, tomb, _ := h.Stats(); tomb != len(removed) || tomb < 100 {
		t.Fatalf("%d tombstones after churn, for %d ids still removed", tomb, len(removed))
	}
	qs := benchQueries(rng, 9, 32)
	checkBatchAgainstExact(t, "churned", h, qs, 10)
	checkBatchAgainstExact(t, "churned k>live", h, qs, 5000)
	got, err := h.SearchBatch(context.Background(), qs, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range got {
		seen := map[graph.NodeID]bool{}
		for _, r := range rs {
			if removed[r.ID] || seen[r.ID] {
				t.Fatalf("removed or repeated id %d in a swept answer", r.ID)
			}
			seen[r.ID] = true
		}
	}
}

// TestScanBatchReadsStore: the scanner answers from the store, not the
// graph — a graph that indexes nothing, over a store that holds
// vectors, still gets full answers from a scanned batch, with no
// fallback.
func TestScanBatchReadsStore(t *testing.T) {
	needScan(t)
	store := buildStoreAt(t, 300, 16, embstore.SQ8)
	h, err := NewHNSW(store, DefaultHNSWConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs := benchQueries(rand.New(rand.NewSource(71)), 6, 16)
	fell := annFallbacks.Load()
	_, scan := scanMoved(func() { checkBatchAgainstExact(t, "unbuilt graph", h, qs, 5) })
	if scan != uint64(len(qs)) {
		t.Fatalf("scan counter moved %d for a batch of %d", scan, len(qs))
	}
	if moved := annFallbacks.Load() - fell; moved != 0 {
		t.Fatalf("%d fallbacks for a scanned batch of %d", moved, len(qs))
	}
}

// TestScanColdStoreMatchesRAM: over a cold store — a mapped v3 base
// under an overlay — after overwrites that mask base rows, new ids in
// the overlay and deletes of all three kinds of row, the scanner answers
// exactly what it answers over a RAM store given the same writes:
// Exact.SearchInto, Exact.SearchBatch and (sq8 on a SIMD backend) a
// scanned HNSW.SearchBatch, at both precisions, for a k inside the
// store and a k past it, where every row reaches the floor. No deleted
// id is returned, and no id twice (a masked base row beside its overlay
// copy).
func TestScanColdStoreMatchesRAM(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("no mmap store on " + runtime.GOOS)
	}
	const n, dim, fresh = 1200, 16, 100
	ctx := context.Background()
	for _, prec := range allPrecisions {
		ram := buildStoreAt(t, n, dim, prec)
		cold := coldStoreOf(t, ram)
		rng := rand.New(rand.NewSource(109))
		vec := make([]float64, dim)
		upsert := func(id graph.NodeID) {
			randVec(rng, vec)
			if err := ram.Upsert(id, vec); err != nil {
				t.Fatal(err)
			}
			if err := cold.Upsert(id, vec); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 150; i++ { // overwrites: the base row is masked
			upsert(graph.NodeID(rng.Intn(n)))
		}
		for i := 0; i < fresh; i++ { // new ids: overlay rows only
			upsert(graph.NodeID(n + i))
		}
		deleted := map[graph.NodeID]bool{}
		for i := 0; i < 150; i++ { // base, overwritten and new rows alike
			id := graph.NodeID(rng.Intn(n + fresh))
			if ram.Delete(id) != cold.Delete(id) {
				t.Fatalf("%v: the stores disagree on deleting %d", prec, id)
			}
			deleted[id] = true
		}
		live := ram.Len()
		if cold.Len() != live {
			t.Fatalf("%v: cold store holds %d rows, ram %d", prec, cold.Len(), live)
		}

		var h *HNSW
		if prec == embstore.SQ8 && vecmath.HasSQ8Sym() {
			h = mustHNSW(t, cold, DefaultHNSWConfig())
		}
		qs := benchQueries(rng, 9, dim)
		coldExact := NewExact(cold, Cosine)
		for _, k := range []int{10, 2000} {
			want, err := NewExact(ram, Cosine).SearchBatch(ctx, qs, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coldExact.SearchBatch(ctx, qs, k)
			if err != nil {
				t.Fatal(err)
			}
			var scanned [][]Result
			if h != nil {
				if _, scan := scanMoved(func() { scanned, err = h.SearchBatch(ctx, qs, k) }); err != nil || scan != uint64(len(qs)) {
					t.Fatalf("%v k=%d: HNSW batch scanned %d of %d queries, err %v", prec, k, scan, len(qs), err)
				}
			}
			for i, q := range qs {
				label := fmt.Sprintf("%v k=%d query %d", prec, k, i)
				if len(want[i]) != min(k, live) {
					t.Fatalf("%s: ram answer of %d, want %d", label, len(want[i]), min(k, live))
				}
				one, err := coldExact.SearchInto(ctx, nil, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(one, want[i]) || !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s: cold store answers\n%v (single)\n%v (batch)\nram store\n%v", label, one, got[i], want[i])
				}
				if scanned != nil && !slices.Equal(scanned[i], want[i]) {
					t.Fatalf("%s: scanned HNSW batch over the cold store %v\n!= ram %v", label, scanned[i], want[i])
				}
				seen := map[graph.NodeID]bool{}
				for _, r := range got[i] {
					if deleted[r.ID] || seen[r.ID] {
						t.Fatalf("%s: deleted or repeated id %d", label, r.ID)
					}
					seen[r.ID] = true
				}
			}
		}
	}
}

// TestScanPlanBoundary pins the plan's inequality — rows ≤ c·max(ef,
// kk)·M, with c scanCrossover for a task of four queries or more and
// scanCrossoverOne below that, sq8 on a SIMD backend — and shows it is
// what SearchInto and SearchBatch act on: at batch sizes 1–4 and 8, on
// both sides of each threshold and one notch of ef below each, the
// queries move the hnsw_scan counter or the hnsw one as the plan says.
// It pins insertPlan's inequality the same way; TestSweepDiscoveryIsExact
// shows inserts under it are swept.
func TestScanPlanBoundary(t *testing.T) {
	if scanCrossoverOne >= scanCrossover {
		t.Fatalf("scanCrossoverOne %d ≥ scanCrossover %d: a store small enough to scan one query must be small enough to scan a batch", scanCrossoverOne, scanCrossover)
	}
	const ef, kk, m = 64, 40, 16
	limit, one := scanCrossover*ef*m, scanCrossoverOne*ef*m
	for _, c := range []struct {
		name                     string
		prec                     embstore.Precision
		sym                      bool
		queries, rows, ef, kk, m int
		want                     bool
	}{
		{"batch at its threshold", embstore.SQ8, true, 32, limit, ef, kk, m, true},
		{"batch one row over", embstore.SQ8, true, 32, limit + 1, ef, kk, m, false},
		{"kk above ef widens it", embstore.SQ8, true, 32, scanCrossover * 400 * m, ef, 400, m, true},
		{"batch of four at its threshold", embstore.SQ8, true, 4, limit, ef, kk, m, true},
		{"batch of four past the single threshold", embstore.SQ8, true, 4, one + 1, ef, kk, m, true},
		{"single at its threshold", embstore.SQ8, true, 1, one, ef, kk, m, true},
		{"single one row over", embstore.SQ8, true, 1, one + 1, ef, kk, m, false},
		{"single, one notch of ef below", embstore.SQ8, true, 1, one, ef - 1, kk, m, false},
		{"single, kk above ef", embstore.SQ8, true, 1, scanCrossoverOne * 400 * m, ef, 400, m, true},
		{"batch of three at the single threshold", embstore.SQ8, true, 3, one, ef, kk, m, true},
		{"batch of three one row over", embstore.SQ8, true, 3, one + 1, ef, kk, m, false},
		{"scalar backend", embstore.SQ8, false, 32, 10, ef, kk, m, false},
		{"scalar backend, single", embstore.SQ8, false, 1, 10, ef, kk, m, false},
		{"f32 slab", embstore.F32, true, 32, 10, ef, kk, m, false},
		{"f32 slab, single", embstore.F32, true, 1, 10, ef, kk, m, false},
		{"empty store", embstore.SQ8, true, 32, 0, ef, kk, m, true},
		{"empty store, single", embstore.SQ8, true, 1, 0, ef, kk, m, true},
	} {
		if got := scanPlan(c.prec, c.sym, c.queries, c.rows, c.ef, c.kk, c.m); got != c.want {
			t.Errorf("scanPlan %s = %v, want %v", c.name, got, c.want)
		}
	}

	// The insert plan: slots ≤ c·efConstruction·M, sq8 on a SIMD backend,
	// no batch — an insert is one query.
	const efc = 200
	insertLimit := insertCrossover * efc * m
	for _, c := range []struct {
		name          string
		prec          embstore.Precision
		sym           bool
		slots, efc, m int
		want          bool
	}{
		{"at the threshold", embstore.SQ8, true, insertLimit, efc, m, true},
		{"one slot over", embstore.SQ8, true, insertLimit + 1, efc, m, false},
		{"one notch of efc below", embstore.SQ8, true, insertLimit, efc - 1, m, false},
		{"scalar backend", embstore.SQ8, false, 10, efc, m, false},
		{"f32 slab", embstore.F32, true, 10, efc, m, false},
		{"second slot", embstore.SQ8, true, 2, efc, m, true},
	} {
		if got := insertPlan(c.prec, c.sym, c.slots, c.efc, c.m); got != c.want {
			t.Errorf("insertPlan %s = %v, want %v", c.name, got, c.want)
		}
	}

	needScan(t)
	// M 4, ef 16, k 1 (kk 4): fewer than four queries scan up to
	// scanCrossoverOne·16·4 rows, four or more up to scanCrossover·16·4.
	cfg := HNSWConfig{M: 4, EfConstruction: 40, EfSearch: 16, Seed: 1}
	oneLimit, batchLimit := scanCrossoverOne*16*4, scanCrossover*16*4
	h := mustHNSW(t, buildStoreAt(t, oneLimit, 16, embstore.SQ8), cfg)
	rng := rand.New(rand.NewSource(73))
	qs := benchQueries(rng, 8, 16)
	ctx := context.Background()
	check := func(ef int) {
		t.Helper()
		h.SetEfSearch(ef)
		defer h.SetEfSearch(cfg.EfSearch)
		rows := h.store.Len()
		for _, size := range []int{1, 2, 3, 4, 8} {
			c := scanCrossoverOne
			if size >= scanGroup {
				c = scanCrossover
			}
			var want [2]uint64 // beam, scan
			want[b2i(rows <= c*ef*4)] = uint64(size)
			beam, scan := scanMoved(func() {
				if _, err := h.SearchBatch(ctx, qs[:size], 1); err != nil {
					t.Fatal(err)
				}
			})
			if beam != want[0] || scan != want[1] {
				t.Fatalf("%d rows, ef %d, batch of %d: beam moved %d, scan %d; want %d, %d", rows, ef, size, beam, scan, want[0], want[1])
			}
			if size > 1 {
				continue
			}
			beam, scan = scanMoved(func() {
				if _, err := h.SearchInto(ctx, nil, qs[0], 1); err != nil {
					t.Fatal(err)
				}
			})
			if beam != want[0] || scan != want[1] {
				t.Fatalf("%d rows, ef %d, SearchInto: beam moved %d, scan %d; want %d, %d", rows, ef, beam, scan, want[0], want[1])
			}
		}
	}
	vec := make([]float64, 16)
	for id, rows := range []int{oneLimit, oneLimit + 1, batchLimit, batchLimit + 1} {
		for h.store.Len() < rows {
			if err := h.Add(graph.NodeID(9000+id*1000+h.store.Len()), randVec(rng, vec)); err != nil {
				t.Fatal(err)
			}
		}
		check(16)
		check(15)
	}
}

// TestSearchBatchBeamWhenNoScan: wherever the plan says no — a scalar
// backend (-tags noasm, EHNA_NOSIMD=1), an f32 slab, a store above the
// threshold for the batch's size — SearchBatch runs the beam per query
// and answers what SearchInto answers, counted under hnsw. At M 4, ef
// 16 and k 10 (kk 40) the store below is one row past both thresholds.
func TestSearchBatchBeamWhenNoScan(t *testing.T) {
	ctx := context.Background()
	cfg := HNSWConfig{M: 4, EfConstruction: 40, EfSearch: 16, Seed: 1}
	rows := scanCrossover*candidateK(embstore.SQ8, 10)*cfg.M + 1
	for _, prec := range allPrecisions {
		h := mustHNSW(t, buildStoreAt(t, rows, 16, prec), cfg)
		for _, n := range []int{1, 3, 12} {
			qs := benchQueries(rand.New(rand.NewSource(79)), n, 16)
			var got [][]Result
			beam, scan := scanMoved(func() {
				var err error
				if got, err = h.SearchBatch(ctx, qs, 10); err != nil {
					t.Fatal(err)
				}
			})
			if beam != uint64(n) || scan != 0 {
				t.Fatalf("%v batch of %d: beam counter moved %d, scan counter %d", prec, n, beam, scan)
			}
			for i, q := range qs {
				want, err := h.SearchInto(ctx, nil, q, 10)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResults(got[i], want) {
					t.Fatalf("%v batch of %d, query %d: batch %v != SearchInto %v", prec, n, i, got[i], want)
				}
			}
		}
	}
}

// TestSingleQueryScanMatchesExact: a single query that scanPlan sends
// to the store scan answers exactly what Exact.SearchInto answers, ids
// and score bits, over a RAM store and a cold (mapped) one, under both
// metrics, at k 1, 10 and past the store, on a freshly built graph and
// after churn through it (deletes, overwrites and new ids). Each such
// query counts once under hnsw_scan, in ehnad_ann_queries_total and in
// both of its stage histograms, and not at all under hnsw.
func TestSingleQueryScanMatchesExact(t *testing.T) {
	needScan(t)
	const n, dim = 1200, 32
	ctx := context.Background()
	for _, metric := range []Metric{Cosine, DotProduct} {
		ram := buildStoreAt(t, n, dim, embstore.SQ8)
		stores := map[string]*embstore.Store{"ram": ram}
		if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
			stores["mmap"] = coldStoreOf(t, ram)
		}
		for name, store := range stores {
			cfg := DefaultHNSWConfig()
			cfg.Metric = metric
			h := mustHNSW(t, store, cfg)
			e := NewExact(store, metric)
			rng := rand.New(rand.NewSource(113))
			check := func(stage string) {
				t.Helper()
				for _, k := range []int{1, 10, store.Len() + 5} {
					for i, q := range benchQueries(rng, 4, dim) {
						label := fmt.Sprintf("%v/%s/%s k=%d query %d", metric, name, stage, k, i)
						cand, rerank := observations(annStageScanCand), observations(annStageScanRerank)
						var got []Result
						var err error
						beam, scan := scanMoved(func() { got, err = h.SearchInto(ctx, nil, q, k) })
						if err != nil {
							t.Fatal(err)
						}
						if beam != 0 || scan != 1 || observations(annStageScanCand) != cand+1 || observations(annStageScanRerank) != rerank+1 {
							t.Fatalf("%s: beam moved %d, scan %d, scan stages %d and %d; want 0, 1, 1, 1", label,
								beam, scan, observations(annStageScanCand)-cand, observations(annStageScanRerank)-rerank)
						}
						want, err := e.SearchInto(ctx, nil, q, k)
						if err != nil {
							t.Fatal(err)
						}
						if len(want) != min(k, store.Len()) || !sameBits(got, want) {
							t.Fatalf("%s: routed single query\n%v\n!= Exact.SearchInto\n%v", label, got, want)
						}
					}
				}
			}
			check("built")
			vec := make([]float64, dim)
			for i := 0; i < 150; i++ {
				h.Remove(graph.NodeID(rng.Intn(n)))
			}
			for i := 0; i < 150; i++ { // overwrites and new ids
				if err := h.Add(graph.NodeID(rng.Intn(n+100)), randVec(rng, vec)); err != nil {
					t.Fatal(err)
				}
			}
			check("churned")
		}
	}
}

// TestScanBatchCancelMidSweep: a context that turns canceled after the
// front-door check is seen at the first block boundary.
func TestScanBatchCancelMidSweep(t *testing.T) {
	needScan(t)
	h := sq8Graph(t, 600, 16, Cosine)
	qs := benchQueries(rand.New(rand.NewSource(83)), 8, 16)
	got, err := h.SearchBatch(newFlipCtx(), qs, 5)
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("canceled sweep returned %d answers, err %v", len(got), err)
	}
}

// TestScanBatchValidation: one bad query fails the batch before any
// sweep, with the message SearchInto gives.
func TestScanBatchValidation(t *testing.T) {
	needScan(t)
	h := sq8Graph(t, 200, 16, Cosine)
	qs := benchQueries(rand.New(rand.NewSource(89)), 8, 16)
	if _, err := h.SearchBatch(context.Background(), qs, 0); err == nil {
		t.Fatal("k=0 batch accepted")
	}
	qs[5] = qs[5][:15]
	if _, err := h.SearchBatch(context.Background(), qs, 3); err == nil {
		t.Fatal("batch with a wrong-dim query accepted")
	}
}

// TestScanBatchDuringWrites scans while Add, overwrite and Remove run
// against the store's shard locks — the removes swap-remove overlay rows
// under a scan that has let their shard go: every answer holds only ids
// that were live at some point of the call, each once, every list at
// its k; and because a task holds one shard's read lock at a time, a
// writer gets in while a 1,024-query batch is still in flight. (Run
// under -race in CI.)
func TestScanBatchDuringWrites(t *testing.T) {
	needScan(t)
	// 12,000 rows under a threshold of 6·1024·4: a scan long enough (tens
	// of ms for the big batch) to overlap writers on one CPU, over a
	// graph cheap enough (M 4, efConstruction 8) to build under -race.
	const n, dim, churnIDs = 12000, 16, 64
	cfg := HNSWConfig{M: 4, EfConstruction: 8, EfSearch: 1024, Seed: 1}
	h := mustHNSW(t, buildStoreAt(t, n, dim, embstore.SQ8), cfg)
	gone := map[graph.NodeID]bool{}
	for id := graph.NodeID(0); id < 100; id++ { // dead before any batch starts
		h.Remove(id)
		gone[id] = true
	}

	ctx := context.Background()
	qs := benchQueries(rand.New(rand.NewSource(97)), 1024, dim)
	swept := make(chan [][]Result)
	go func() {
		got, err := h.SearchBatch(ctx, qs, 10)
		if err != nil {
			t.Error(err)
		}
		swept <- got
	}()

	// The writer: new ids, overwrites of stable ids, removals of its own
	// ids, until the batch returns; it counts the writes that completed
	// while the batch was still running.
	rng := rand.New(rand.NewSource(101))
	vec := make([]float64, dim)
	inFlight := 0
	var got [][]Result
	for got == nil {
		id := graph.NodeID(n + rng.Intn(churnIDs))
		var err error
		switch rng.Intn(3) {
		case 0:
			err = h.Add(id, randVec(rng, vec))
		case 1:
			err = h.Add(graph.NodeID(100+rng.Intn(n-100)), randVec(rng, vec))
		default:
			h.Remove(id)
		}
		if err != nil {
			t.Fatal(err)
		}
		select {
		case got = <-swept:
		default:
			inFlight++
		}
	}
	if inFlight == 0 {
		t.Fatal("no write completed while the 1,024-query batch was in flight")
	}
	t.Logf("%d writes completed during the batch", inFlight)
	if len(got) != len(qs) {
		t.Fatalf("%d answers for %d queries", len(got), len(qs))
	}
	for _, rs := range got {
		if len(rs) != 10 {
			t.Fatalf("answer of %d results, want 10", len(rs))
		}
		seen := map[graph.NodeID]bool{}
		for _, r := range rs {
			if gone[r.ID] || r.ID >= n+churnIDs || seen[r.ID] {
				t.Fatalf("id %d: never live during the call, or returned twice", r.ID)
			}
			seen[r.ID] = true
		}
	}
	checkGraphInvariants(t, h)
}

// TestScanBatchAllocs: in steady state a swept batch allocates its
// answer — the outer slice and one result slice per query — and a
// constant more (the per-group error slots, the fan-out closure); all
// sweep state is pooled, so a daemon's heap does not grow with traffic.
func TestScanBatchAllocs(t *testing.T) {
	needScan(t)
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := sq8Graph(t, 1000, 32, Cosine)
	qs := benchQueries(rand.New(rand.NewSource(103)), 32, 32)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	batch := func() {
		if _, err := h.SearchBatch(ctx, qs, 10); err != nil {
			t.Fatal(err)
		}
	}
	batch() // warm the scratch pool
	if allocs := testing.AllocsPerRun(20, batch); allocs > float64(len(qs)+3) {
		t.Fatalf("a %d-query swept batch allocated %v times", len(qs), allocs)
	}
}
