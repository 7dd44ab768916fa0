package ann

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ehna/internal/graph"
)

// TestSwapperDelegates: the wrapper is a faithful Index — same
// results, same metric, mutations visible.
func TestSwapperDelegates(t *testing.T) {
	store := buildStore(t, 300, 8)
	h, err := BuildHNSW(store, DefaultHNSWConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwapper(h)
	if sw.Metric() != h.Metric() {
		t.Fatal("metric not delegated")
	}
	q, _ := store.Get(5)
	want, err := h.Search(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw.Search(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	vec := make([]float64, 8)
	vec[0] = 42
	if err := sw.Add(9000, vec); err != nil {
		t.Fatal(err)
	}
	top, err := sw.Search(vec, 1)
	if err != nil || len(top) != 1 || top[0].ID != 9000 {
		t.Fatalf("added vector not found: %v %v", top, err)
	}
	if !sw.Remove(9000) {
		t.Fatal("remove of present id reported false")
	}
	batches, err := sw.SearchBatch(context.Background(), [][]float64{q, vec}, 3)
	if err != nil || len(batches) != 2 {
		t.Fatalf("batch: %v %v", batches, err)
	}
}

// TestCompactReclaimsAllTombstones: churn a graph until it is mostly
// tombstones, compact, and check the new graph has zero tombstones,
// indexes exactly the store, and still answers correctly.
func TestCompactReclaimsAllTombstones(t *testing.T) {
	store := buildStore(t, 500, 8)
	h, err := BuildHNSW(store, DefaultHNSWConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwapper(h)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		id := graph.NodeID(rng.Intn(500))
		if rng.Float64() < 0.5 {
			sw.Remove(id)
		} else {
			vec := make([]float64, 8)
			for j := range vec {
				vec[j] = rng.NormFloat64()
			}
			if err := sw.Add(id, vec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, tombs, _ := h.Stats(); tombs == 0 {
		t.Fatal("churn produced no tombstones; test is vacuous")
	}
	if h.TombstoneRatio() <= 0 {
		t.Fatal("tombstone ratio not positive after churn")
	}

	next, err := sw.CompactHNSW(store, DefaultHNSWConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := sw.Current().(*HNSW); !ok || got != next {
		t.Fatal("compacted index not promoted")
	}
	alive, tombs, _ := next.Stats()
	if tombs != 0 {
		t.Fatalf("%d tombstones after compaction, want 0", tombs)
	}
	if alive != store.Len() {
		t.Fatalf("compacted graph indexes %d nodes, store holds %d", alive, store.Len())
	}
	if sw.Rebuilds() != 1 {
		t.Fatalf("rebuild count %d, want 1", sw.Rebuilds())
	}
	// Every stored vector must be findable as its own nearest neighbor.
	for _, id := range store.IDs()[:50] {
		q, _ := store.Get(id)
		top, err := sw.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) != 1 || top[0].ID != id {
			t.Fatalf("node %d not its own nearest neighbor after compaction: %v", id, top)
		}
	}
}

// TestCompactRefusesConcurrentRebuild: the second compaction must fail
// fast, not corrupt the first.
func TestCompactRefusesConcurrentRebuild(t *testing.T) {
	store := buildStore(t, 200, 8)
	h, err := BuildHNSW(store, DefaultHNSWConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwapper(h)
	sw.mu.Lock()
	sw.rebuilding = true
	sw.mu.Unlock()
	if _, err := sw.CompactHNSW(store, DefaultHNSWConfig()); err != ErrRebuildInProgress {
		t.Fatalf("concurrent rebuild error = %v, want ErrRebuildInProgress", err)
	}
	sw.mu.Lock()
	sw.rebuilding = false
	sw.mu.Unlock()
	if _, err := sw.CompactHNSW(store, DefaultHNSWConfig()); err != nil {
		t.Fatalf("rebuild after release: %v", err)
	}
}

// churnIDBase keeps churned ids disjoint from the stable set whose
// ground truth the soak test pins at start: searchers filter churn ids
// out of a widened result list before comparing against the pinned
// truth, so churn vectors can live in-distribution (like real
// embedding updates) without invalidating it.
const churnIDBase = 1 << 20

// TestChurnSoakCompaction is the churn/crash harness's live half:
// concurrent upserts, deletes and searches run while compaction
// rebuilds swap the HNSW index underneath them. Asserts recall@10 on a
// stable query set never drops below 0.9, that a quiesced compaction
// ends with zero tombstones, and that SearchInto is still
// allocation-free after the swap. Run with -race in CI; skipped under
// -short.
func TestChurnSoakCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped under -short")
	}
	const (
		dim     = 16
		stableN = 2000
		queries = 30
		k       = 10
		// Searchers ask for kWide results and drop churn ids before
		// comparing to the pinned stable truth; the headroom absorbs
		// the churn vectors that legitimately rank above stable ones
		// (expected ~kWide x churn fraction, far below the slack).
		kWide     = 4 * k
		minRecall = 0.9
	)
	// Race instrumentation slows HNSW inserts by an order of magnitude
	// and CI may give us very few cores; shrink the store and the
	// build beam so the soak exercises the same interleavings in
	// seconds, not minutes. Churned ids stay a minority of the corpus
	// (~20%): a write stream that continuously replaces most of the
	// graph is a bulk reload, not churn, and is served by a rebuild.
	nStable, churnIDs, efC := stableN, 400, 0 // efC 0 = config default
	if raceEnabled {
		nStable, churnIDs, efC = 300, 60, 60
	}
	store := buildStore(t, nStable, dim)
	cfg := DefaultHNSWConfig()
	if efC > 0 {
		cfg.EfConstruction = efC
	}
	h, err := BuildHNSW(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwapper(h)

	// Ground truth for the stable queries, pinned before any churn
	// exists: the float64 ranking of the never-mutated stable vectors
	// the store was loaded from.
	src := sourceMatrix(nStable, dim)
	queryVecs := make([][]float64, queries)
	truth := make([][]graph.NodeID, queries)
	for i := 0; i < queries; i++ {
		queryVecs[i] = src.Row(i * 7)
		truth[i] = truthTopK(src, queryVecs[i], k, cfg.Metric)
	}
	recallOf := func(got []Result, want []graph.NodeID) float64 {
		hits := 0
		for _, g := range got {
			for _, w := range want {
				if g.ID == w {
					hits++
					break
				}
			}
		}
		return float64(hits) / float64(len(want))
	}

	stop := make(chan struct{})
	var firstErr atomic.Value
	fail := func(format string, args ...any) {
		firstErr.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	var wg sync.WaitGroup

	// Mutators: continuous upsert/delete churn on the disjoint ID range.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if n%16 == 15 {
					// Full-speed mutation on few cores starves the
					// compaction's catch-up; real write load has gaps.
					time.Sleep(time.Millisecond)
				}
				id := graph.NodeID(churnIDBase + rng.Intn(churnIDs))
				if rng.Float64() < 0.4 {
					sw.Remove(id)
					continue
				}
				// In-distribution vectors: churn must look like real
				// embedding updates (a degenerate far-away cluster
				// makes every insert walk a score plateau and can trap
				// beams — a different failure mode than this test's).
				vec := make([]float64, dim)
				for j := range vec {
					vec[j] = rng.NormFloat64()
				}
				if err := sw.Add(id, vec); err != nil {
					fail("churn add: %v", err)
					return
				}
			}
		}(w)
	}

	// Searchers: continuously check that the pinned stable truth stays
	// findable — search wide, drop churn ids, gate on the remainder.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]Result, 0, kWide)
			stable := make([]Result, 0, kWide)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%8 == 7 {
					// Don't starve the rebuild on few-core machines.
					time.Sleep(200 * time.Microsecond)
				}
				qi := (i + w) % queries
				var err error
				dst, err = sw.SearchInto(context.Background(), dst[:0], queryVecs[qi], kWide)
				if err != nil {
					fail("search during churn: %v", err)
					return
				}
				stable = stable[:0]
				for _, r := range dst {
					if r.ID < churnIDBase {
						stable = append(stable, r)
					}
				}
				if r := recallOf(stable, truth[qi]); r < minRecall {
					fail("stable recall@%d dropped to %.3f during churn (query %d, %d churn hits in top-%d)",
						k, r, qi, len(dst)-len(stable), kWide)
					return
				}
			}
		}(w)
	}

	// Foreground: compaction cycles racing the churn above.
	cycles := 3
	if raceEnabled {
		cycles = 2
	}
	for c := 0; c < cycles; c++ {
		if _, err := sw.CompactHNSW(store, cfg); err != nil {
			t.Fatalf("compaction cycle %d: %v", c, err)
		}
		time.Sleep(20 * time.Millisecond) // let churn rebuild a backlog
	}
	close(stop)
	wg.Wait()
	if msg := firstErr.Load(); msg != nil {
		t.Fatal(msg)
	}

	// Quiesce: delete every churned id, compact once more, and the
	// graph must be tombstone-free and exactly aligned with the store.
	for id := graph.NodeID(churnIDBase); id < graph.NodeID(churnIDBase+churnIDs); id++ {
		sw.Remove(id)
	}
	final, err := sw.CompactHNSW(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alive, tombs, _ := final.Stats()
	if tombs != 0 {
		t.Fatalf("%d tombstones after quiesced compaction, want 0", tombs)
	}
	if alive != store.Len() || alive != nStable {
		t.Fatalf("final graph: %d alive, store %d, want %d", alive, store.Len(), nStable)
	}
	for qi := range queryVecs {
		got, err := sw.Search(queryVecs[qi], k)
		if err != nil {
			t.Fatal(err)
		}
		if r := recallOf(got, truth[qi]); r < minRecall {
			t.Fatalf("recall@%d = %.3f after final compaction (query %d)", k, r, qi)
		}
	}

	// The PR 2/3 bar survives the swap: SearchInto through the Swapper
	// on the compacted graph allocates nothing in steady state.
	if raceEnabled {
		return // race instrumentation allocates; covered by alloc_test builds
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dst := make([]Result, 0, k)
	for i := 0; i < 3; i++ {
		if dst, err = sw.SearchInto(context.Background(), dst[:0], queryVecs[0], k); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = sw.SearchInto(context.Background(), dst[:0], queryVecs[0], k)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SearchInto allocated %v times per query after index swap", allocs)
	}
}

var _ Index = (*Swapper)(nil)
