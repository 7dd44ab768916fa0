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
	"ehna/internal/vecmath"
)

// needScan skips tests of the sweep itself on backends whose plan never
// picks it (TestSearchBatchBeamWhenNoScan covers those).
func needScan(t *testing.T) {
	t.Helper()
	if !vecmath.HasSQ8Sym() {
		t.Skip("no SIMD symmetric kernel: SearchBatch never scans on this backend")
	}
}

// sq8Graph builds a default-config graph, under metric, over n random
// dim-wide sq8 vectors — small enough that every batch of four or more
// is scanned. Batches read the store, so a built graph compares with
// Exact as a loaded one would.
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
// ranking Exact defines, under both metrics, for every batch size 4–37
// (every padding of the last kernel group, tasks of one and two groups
// and more), and sizes 1–3 take the beam. Against the float64 truth over
// the source matrix it holds the sq8 recall floor (TestSQ8Recall's).
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
				if size < scanGroup {
					if _, err := h.SearchBatch(context.Background(), qs, k); err != nil {
						t.Fatal(err)
					}
					return
				}
				for i, rs := range checkBatchAgainstExact(t, metric.String(), h, qs, k) {
					approx = append(approx, ids(rs))
					truth = append(truth, truthTopK(src, qs[i], k, metric))
				}
			})
			if wantScan := size >= scanGroup; (scan == uint64(size)) != wantScan || (beam == uint64(size)) == wantScan {
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

// TestScanPlanBoundary pins the plan's inequality — slots ≤ c·max(ef,
// kk)·M, batch ≥ 4, sq8 on a SIMD backend — and shows it is what
// SearchBatch acts on: one slot past the threshold, or one notch of ef
// below it, moves the batch from the hnsw_scan counter to the hnsw one.
// It pins insertPlan's inequality the same way; TestSweepDiscoveryIsExact
// shows inserts under it are swept.
func TestScanPlanBoundary(t *testing.T) {
	const ef, kk, m = 64, 40, 16
	limit := scanCrossover * ef * m
	for _, c := range []struct {
		name                    string
		prec                    embstore.Precision
		sym                     bool
		batch, slots, ef, kk, m int
		want                    bool
	}{
		{"at the threshold", embstore.SQ8, true, 32, limit, ef, kk, m, true},
		{"one slot over", embstore.SQ8, true, 32, limit + 1, ef, kk, m, false},
		{"kk above ef widens it", embstore.SQ8, true, 32, scanCrossover * 400 * m, ef, 400, m, true},
		{"batch of four", embstore.SQ8, true, 4, 10, ef, kk, m, true},
		{"batch of three", embstore.SQ8, true, 3, 10, ef, kk, m, false},
		{"scalar backend", embstore.SQ8, false, 32, 10, ef, kk, m, false},
		{"f32 slab", embstore.F32, true, 32, 10, ef, kk, m, false},
		{"empty graph", embstore.SQ8, true, 32, 0, ef, kk, m, true},
	} {
		if got := scanPlan(c.prec, c.sym, c.batch, c.slots, c.ef, c.kk, c.m); got != c.want {
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
	// M 4, ef 16, k 1 (kk 4): the threshold is 6·16·4 = 384 slots.
	cfg := HNSWConfig{M: 4, EfConstruction: 40, EfSearch: 16, Seed: 1}
	h := mustHNSW(t, buildStoreAt(t, 384, 16, embstore.SQ8), cfg)
	rng := rand.New(rand.NewSource(73))
	qs := benchQueries(rng, 8, 16)
	batch := func() {
		if _, err := h.SearchBatch(context.Background(), qs, 1); err != nil {
			t.Fatal(err)
		}
	}
	if beam, scan := scanMoved(batch); beam != 0 || scan != 8 {
		t.Fatalf("384 slots at threshold 384: beam moved %d, scan %d", beam, scan)
	}
	h.SetEfSearch(15)
	if beam, scan := scanMoved(batch); beam != 8 || scan != 0 {
		t.Fatalf("384 slots at threshold 360: beam moved %d, scan %d", beam, scan)
	}
	h.SetEfSearch(16)
	if err := h.Add(9999, randVec(rng, make([]float64, 16))); err != nil {
		t.Fatal(err)
	}
	if beam, scan := scanMoved(batch); beam != 8 || scan != 0 {
		t.Fatalf("385 slots at threshold 384: beam moved %d, scan %d", beam, scan)
	}
}

// TestSearchBatchBeamWhenNoScan: wherever the plan says no — a scalar
// backend (-tags noasm, EHNA_NOSIMD=1), an f32 slab, a batch
// under four — SearchBatch is exactly SearchInto per query.
func TestSearchBatchBeamWhenNoScan(t *testing.T) {
	ctx := context.Background()
	for _, prec := range allPrecisions {
		h := mustHNSW(t, buildStoreAt(t, 800, 16, prec), DefaultHNSWConfig())
		for _, n := range []int{3, 12} {
			if n >= scanGroup && prec == embstore.SQ8 && vecmath.HasSQ8Sym() {
				continue // the one combination that sweeps
			}
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
