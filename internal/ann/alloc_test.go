package ann

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/tensor"
)

// allPrecisions is every slab layout a store can have.
var allPrecisions = []embstore.Precision{embstore.F32, embstore.SQ8}

// buildStore loads n random dim-dimensional vectors into an F32 store.
func buildStore(t testing.TB, n, dim int) *embstore.Store {
	t.Helper()
	return buildStoreAt(t, n, dim, embstore.F32)
}

// sourceMatrix is the n×dim matrix buildStoreAt loads: row i is what
// node i was upserted with.
func sourceMatrix(n, dim int) *tensor.Matrix {
	return tensor.Randn(n, dim, 1, rand.New(rand.NewSource(7)))
}

// buildStoreAt loads n random dim-dimensional vectors into a store of
// the given slab precision.
func buildStoreAt(t testing.TB, n, dim int, prec embstore.Precision) *embstore.Store {
	t.Helper()
	s, err := embstore.FromMatrix(sourceMatrix(n, dim), prec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// coldStoreOf snapshots src into a flat v3 file and reopens it as an
// mmap-backed cold store, so the alloc tests can assert the re-rank
// path stays allocation-free when vectors come from the mapping.
func coldStoreOf(t *testing.T, src *embstore.Store) *embstore.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveSnapshotV3(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cold, _, err := embstore.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cold.Close() })
	return cold
}

// TestSearchIntoZeroAlloc asserts the single-query path of every index
// type is allocation-free in steady state at every slab precision —
// over heap slabs and (where mmap exists) over a mapped cold base, so
// the asymmetric re-rank reading vectors straight from the mapping is
// covered too. HNSW is asserted on both of its plans: SearchInto, which
// scanPlan sends to the store scan over these 2,000 sq8 rows on a SIMD
// backend, and the beam (searchBeam) over the same graph. Scratch (including the narrowed/quantized query
// context) comes from the pool, results land in the caller's buffer.
// GOMAXPROCS is pinned to 1 so no other goroutine's allocations land in
// the count, and GC is paused so the scratch pool cannot be emptied
// mid-measurement.
func TestSearchIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	q := make([]float64, 32)
	for i := range q {
		q[i] = float64(i%5) - 2
	}
	const k = 10

	// A cancelable context (not Background) so the cooperative
	// cancellation polls run with a live Done channel — the guarantee
	// must hold for real request contexts, not just the nil-channel
	// short circuit. Done() is materialized once, outside the loop.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_ = ctx.Done()

	for _, prec := range allPrecisions {
		ram := buildStoreAt(t, 2000, 32, prec)
		backings := []struct {
			name  string
			store *embstore.Store
		}{{"ram", ram}}
		if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
			backings = append(backings, struct {
				name  string
				store *embstore.Store
			}{"mmap", coldStoreOf(t, ram)})
		}
		for _, b := range backings {
			store := b.store
			exact := NewExact(store, Cosine)
			hnsw, err := BuildHNSW(store, DefaultHNSWConfig())
			if err != nil {
				t.Fatal(err)
			}
			for name, idx := range map[string]Index{"exact": exact, "hnsw": hnsw, "hnsw-beam": beamOf{hnsw}} {
				dst := make([]Result, 0, k)
				// Warm the scratch pool and result buffers.
				for i := 0; i < 3; i++ {
					if dst, err = idx.SearchInto(ctx, dst, q, k); err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(100, func() {
					var err error
					dst, err = idx.SearchInto(ctx, dst, q, k)
					if err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s/%s/%s SearchInto allocated %v times per query", name, prec, b.name, allocs)
				}
				if len(dst) != k {
					t.Errorf("%s/%s/%s SearchInto returned %d results, want %d", name, prec, b.name, len(dst), k)
				}
			}
		}
	}
}

// TestSearchIntoMatchesSearch checks the buffered path returns exactly
// what the allocating path returns, for every index type at every slab
// precision.
func TestSearchIntoMatchesSearch(t *testing.T) {
	for _, prec := range allPrecisions {
		store := buildStoreAt(t, 500, 16, prec)
		hnsw, err := BuildHNSW(store, DefaultHNSWConfig())
		if err != nil {
			t.Fatal(err)
		}
		for name, idx := range map[string]Index{
			"exact": NewExact(store, Cosine),
			"hnsw":  hnsw,
		} {
			for qi := 0; qi < 10; qi++ {
				q := make([]float64, 16)
				rng := rand.New(rand.NewSource(int64(qi)))
				for i := range q {
					q[i] = rng.NormFloat64()
				}
				want, err := idx.SearchInto(context.Background(), nil, q, 7)
				if err != nil {
					t.Fatal(err)
				}
				got, err := idx.SearchInto(context.Background(), make([]Result, 3), q, 7)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s q%d: %d results vs %d", name, prec, qi, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s q%d result %d: %+v vs %+v", name, prec, qi, i, got[i], want[i])
					}
				}
			}
		}
	}
}
