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

// churnIDBase keeps churned ids disjoint from the stable set whose
// ground truth the soak test pins at start: searchers filter churn ids
// out of a widened result list before comparing against the pinned
// truth, so churn vectors can live in-distribution (like real
// embedding updates) without invalidating it.
const churnIDBase = 1 << 20

// TestChurnSoak is the churn/crash harness's live half: concurrent
// upserts, deletes and searches run against one HNSW graph, whose
// inserts take over the slots the deletes and overwrites free. Asserts
// recall@10 on a stable query set never drops below 0.9, that once the
// churn stops the graph holds no more slots than it ever had live nodes
// and every tombstone waits on the free list, and that SearchInto is
// still allocation-free. Run with -race in CI; skipped under -short.
func TestChurnSoak(t *testing.T) {
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
	// graph is a bulk reload, not churn.
	nStable, churnIDs, churnOps, efC := stableN, 400, 3000, 0 // efC 0 = config default
	if raceEnabled {
		nStable, churnIDs, churnOps, efC = 300, 60, 400, 60
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
	var mutators, searchers sync.WaitGroup
	// peak is the most live nodes the graph has held: the bound on its
	// slot count when every insert reuses a freed slot if one waits. The
	// mutators take turns (mutMu) so that the count read after an Add is
	// the one the Add left; searches still run beside every insert.
	var mutMu sync.Mutex
	peak, _, _ := h.Stats()

	// Mutators: churnOps upserts and deletes each on the disjoint ID
	// range.
	for w := 0; w < 2; w++ {
		mutators.Add(1)
		go func(w int) {
			defer mutators.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for n := 0; n < churnOps; n++ {
				if n%16 == 15 {
					// Full-speed mutation on few cores starves the
					// searchers; real write load has gaps.
					time.Sleep(time.Millisecond)
				}
				id := graph.NodeID(churnIDBase + rng.Intn(churnIDs))
				if rng.Float64() < 0.4 {
					mutMu.Lock()
					h.Remove(id)
					mutMu.Unlock()
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
				mutMu.Lock()
				err := h.Add(id, vec)
				alive, _, _ := h.Stats()
				peak = max(peak, alive)
				mutMu.Unlock()
				if err != nil {
					fail("churn add: %v", err)
					return
				}
			}
		}(w)
	}

	// Searchers: until the churn ends, check that the pinned stable
	// truth stays findable — search wide, drop churn ids, gate on the
	// remainder.
	for w := 0; w < 2; w++ {
		searchers.Add(1)
		go func(w int) {
			defer searchers.Done()
			dst := make([]Result, 0, kWide)
			stable := make([]Result, 0, kWide)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%8 == 7 {
					// Don't starve the mutators on few-core machines.
					time.Sleep(200 * time.Microsecond)
				}
				qi := (i + w) % queries
				var err error
				dst, err = h.SearchInto(context.Background(), dst[:0], queryVecs[qi], kWide)
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

	mutators.Wait()
	close(stop)
	searchers.Wait()
	if msg := firstErr.Load(); msg != nil {
		t.Fatal(msg)
	}

	// Quiesce: delete every churned id. The graph must index exactly the
	// store, hold no more slots than its peak live count, and keep every
	// tombstone on its free list.
	for id := graph.NodeID(churnIDBase); id < graph.NodeID(churnIDBase+churnIDs); id++ {
		h.Remove(id)
	}
	checkGraphInvariants(t, h)
	alive, tombs, _ := h.Stats()
	if alive != store.Len() || alive != nStable {
		t.Fatalf("final graph: %d alive, store %d, want %d", alive, store.Len(), nStable)
	}
	h.mu.RLock()
	slots, free := len(h.nodes), len(h.free)
	h.mu.RUnlock()
	t.Logf("after the churn: %d slots, peak live %d, %d tombstones", slots, peak, tombs)
	if slots > peak {
		t.Fatalf("%d slots, more than the peak live count %d", slots, peak)
	}
	if free != tombs {
		t.Fatalf("%d slots on the free list, %d tombstones", free, tombs)
	}
	for qi := range queryVecs {
		got, err := h.Search(queryVecs[qi], k)
		if err != nil {
			t.Fatal(err)
		}
		if r := recallOf(got, truth[qi]); r < minRecall {
			t.Fatalf("recall@%d = %.3f after the churn (query %d)", k, r, qi)
		}
	}

	// The PR 2/3 bar survives the churn: SearchInto over reused slots
	// allocates nothing in steady state.
	if raceEnabled {
		return // race instrumentation allocates; covered by alloc_test builds
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dst := make([]Result, 0, k)
	for i := 0; i < 3; i++ {
		if dst, err = h.SearchInto(context.Background(), dst[:0], queryVecs[0], k); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = h.SearchInto(context.Background(), dst[:0], queryVecs[0], k)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SearchInto allocated %v times per query after the churn", allocs)
	}
}
