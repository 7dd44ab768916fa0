package ann

import (
	"math/rand"
	"runtime"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/graph"
)

// The in-process twins of bench/'s ann.build_ms_per_knode, ann.add_us
// and ann.readd_us: the write_mixed shape (5000×64 sq8, default graph
// config) on one CPU, so a graph-mutation change can be timed without
// the daemon, the WAL or the harness around it.
const benchN, benchDim = 5000, 64

// benchStore pins the benchmark to one CPU (Build fans out over
// GOMAXPROCS workers otherwise) and returns the sq8 store.
func benchStore(b *testing.B) *embstore.Store {
	b.Helper()
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return buildStoreAt(b, benchN, benchDim, embstore.SQ8)
}

func benchGraph(b *testing.B) (*HNSW, *rand.Rand) {
	b.Helper()
	h, err := BuildHNSW(benchStore(b), DefaultHNSWConfig())
	if err != nil {
		b.Fatal(err)
	}
	return h, rand.New(rand.NewSource(41))
}

func randVec(rng *rand.Rand, vec []float64) []float64 {
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	return vec
}

func BenchmarkHNSWBuild5k(b *testing.B) {
	store := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildHNSW(store, DefaultHNSWConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHNSWAddNew(b *testing.B) {
	h, rng := benchGraph(b)
	vec := make([]float64, benchDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Add(graph.NodeID(benchN+i), randVec(rng, vec)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHNSWAddOverwrite(b *testing.B) {
	h, rng := benchGraph(b)
	vec := make([]float64, benchDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Add(graph.NodeID(rng.Intn(benchN)), randVec(rng, vec)); err != nil {
			b.Fatal(err)
		}
	}
}
