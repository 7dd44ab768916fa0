package ann

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/graph"
)

// The in-process twins of bench/'s ann.build_ms_per_knode, ann.add_us,
// ann.readd_us and ann.graph_load_ms: the write_mixed shape (5000×64 sq8, default graph
// config) on one CPU, so a graph-mutation change can be timed without
// the daemon, the WAL or the harness around it.
const benchN, benchDim = 5000, 64

// pinOneCPU holds the benchmark to one CPU until it ends. The testing
// package resets GOMAXPROCS when a sub-benchmark starts measuring, so
// sub-benchmarks pin themselves.
func pinOneCPU(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// benchStore pins the benchmark to one CPU (Build fans out over
// GOMAXPROCS workers otherwise) and returns the sq8 store.
func benchStore(b *testing.B) *embstore.Store {
	b.Helper()
	pinOneCPU(b)
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

// BenchmarkHNSWLoadGraph5k is the twin of bench's ann.graph_load_ms:
// LoadHNSWGraph of the 5000×64 sq8 graph from its file, allocations
// reported per load.
func BenchmarkHNSWLoadGraph5k(b *testing.B) {
	h, _ := benchGraph(b)
	path := filepath.Join(b.TempDir(), "graph.gob")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.SaveGraph(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		_, err = LoadHNSWGraph(f, h.store)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchQueries draws n fresh Gaussian queries.
func benchQueries(rng *rand.Rand, n, dim int) [][]float64 {
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = randVec(rng, make([]float64, dim))
	}
	return qs
}

// reportPerQuery reports the benchmark's time per query in µs, the unit
// of bench's ann.search_* metrics.
func reportPerQuery(b *testing.B, queriesPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*queriesPerOp), "µs/query")
}

// BenchmarkHNSWSearchBatch32 is the twin of bench's
// ann.search_batch_us_per_query: read_batch's shape — 32-query batches,
// k 10, ef 192 over 5000×64 sq8 on one CPU.
func BenchmarkHNSWSearchBatch32(b *testing.B) {
	h, rng := benchGraph(b)
	h.SetEfSearch(192)
	qs := benchQueries(rng, 32, benchDim)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.SearchBatch(ctx, qs, 10); err != nil {
			b.Fatal(err)
		}
	}
	reportPerQuery(b, len(qs))
}

// BenchmarkHNSWSearchInto is the twin of ann.search_into_us: single
// queries through HNSW.SearchInto, same shape, which at 5000 rows and
// ef 192 scanPlan answers by the one-query store scan.
func BenchmarkHNSWSearchInto(b *testing.B) {
	h, rng := benchGraph(b)
	h.SetEfSearch(192)
	qs := benchQueries(rng, 32, benchDim)
	ctx := context.Background()
	dst := make([]Result, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = h.SearchInto(ctx, dst, qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
	reportPerQuery(b, 1)
}

// BenchmarkExactSearchBatch32 is Exact's batch over the read_batch
// shape: 32-query batches, k 10, 5000×64 on one CPU, per precision.
func BenchmarkExactSearchBatch32(b *testing.B) {
	for _, prec := range allPrecisions {
		b.Run(prec.String(), func(b *testing.B) {
			pinOneCPU(b)
			e := NewExact(buildStoreAt(b, benchN, benchDim, prec), Cosine)
			qs := benchQueries(rand.New(rand.NewSource(41)), 32, benchDim)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.SearchBatch(ctx, qs, 10); err != nil {
					b.Fatal(err)
				}
			}
			reportPerQuery(b, len(qs))
		})
	}
}

// BenchmarkExactSearchInto is the twin of bench's ann.exact_us: one
// query at a time over the 5000×64 sq8 store on one CPU.
func BenchmarkExactSearchInto(b *testing.B) {
	e := NewExact(benchStore(b), Cosine)
	qs := benchQueries(rand.New(rand.NewSource(41)), 32, benchDim)
	ctx := context.Background()
	dst := make([]Result, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = e.SearchInto(ctx, dst, qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
	reportPerQuery(b, 1)
}

// BenchmarkScanCrossover is the table scanPlan's two constants were
// set from, µs per query on one CPU, k 10: a 32-query batch answered by
// a beam per query and by the store scan (scanCrossover), and single
// queries answered by the beam and by a one-query scan
// (scanCrossoverOne), at graph sizes from 5k to 50k and two beam
// widths. The scan's cost is linear in rows and the beam's nearly
// flat, so the columns cross; the plan must put each threshold where
// the scan is still well ahead, so the plan's own thresholds are rows
// of the table too. A benchmark, not a test, so tier-1 never builds
// the 50k graph.
func BenchmarkScanCrossover(b *testing.B) {
	pinOneCPU(b)
	ctx := context.Background()
	m := DefaultHNSWConfig().M
	for _, c := range []struct {
		n            int
		batch, singl []int // the beam widths each form is timed at
	}{
		{scanCrossoverOne * 64 * m, nil, []int{64}},
		{5000, []int{64, 192}, []int{64, 192}},
		{scanCrossover * 64 * m, []int{64}, nil},
		{10000, nil, []int{64, 192}},
		{scanCrossoverOne * 192 * m, nil, []int{192}},
		{scanCrossover * 192 * m, []int{192}, nil},
		{20000, []int{64, 192}, []int{64, 192}},
		{50000, []int{64, 192}, nil},
	} {
		h, err := BuildHNSW(buildStoreAt(b, c.n, benchDim, embstore.SQ8), DefaultHNSWConfig())
		if err != nil {
			b.Fatal(err)
		}
		qs := benchQueries(rand.New(rand.NewSource(41)), 32, benchDim)
		dst := make([]Result, 0, 10)
		type plan struct {
			name string
			run  func() error
		}
		batch := []plan{
			{"batch/beam", func() error {
				_, err := batchSearch(qs, 10, func(dst []Result, q []float64) ([]Result, error) { return h.searchBeam(ctx, dst, q, 10) })
				return err
			}},
			{"batch/scan", func() error { _, err := h.fallback.searchBatch(ctx, qs, 10, &hnswScanStats); return err }},
		}
		single := []plan{
			{"single/beam", func() (err error) {
				for _, q := range qs {
					if dst, err = h.searchBeam(ctx, dst, q, 10); err != nil {
						return err
					}
				}
				return nil
			}},
			{"single/scan", func() (err error) {
				for _, q := range qs {
					if dst, err = h.fallback.searchOne(ctx, dst, q, 10, &hnswScanStats); err != nil {
						return err
					}
				}
				return nil
			}},
		}
		for _, form := range []struct {
			efs   []int
			plans []plan
		}{{c.batch, batch}, {c.singl, single}} {
			for _, ef := range form.efs {
				h.SetEfSearch(ef)
				for _, p := range form.plans {
					b.Run(fmt.Sprintf("n=%d/ef=%d/%s", c.n, ef, p.name), func(b *testing.B) {
						pinOneCPU(b)
						for i := 0; i < b.N; i++ {
							if err := p.run(); err != nil {
								b.Fatal(err)
							}
						}
						reportPerQuery(b, len(qs))
					})
				}
			}
		}
	}
}

// BenchmarkInsertCrossover is the table insertCrossover was set from:
// an insert's neighbor discovery — what runs under the read lock, for
// a node on layer 0 only, as 15 in 16 are — by the efConstruction-wide
// beam and by the row sweep, at two graph sizes and at the plan's own
// threshold, µs per insert on one CPU at the default config
// (ef-construction 200, M 16). The sweep's cost is linear in slots and
// the beam's nearly flat; insertPlan must cut over while the sweep is
// still well ahead.
func BenchmarkInsertCrossover(b *testing.B) {
	pinOneCPU(b)
	cfg := DefaultHNSWConfig()
	for _, n := range []int{5000, insertCrossover * cfg.EfConstruction * cfg.M, 20000} {
		h := mustHNSW(b, buildStoreAt(b, n, benchDim, embstore.SQ8), cfg)
		// Rediscover the links of 512 spread-out nodes from their own rows.
		const probes = 512
		vecs := make([][]float64, probes)
		for i := range vecs {
			var v embstore.VecView
			h.store.Rows().View(int(probeSlot(i, n)), &v)
			vecs[i] = make([]float64, benchDim)
			v.DequantizeInto(vecs[i])
		}
		for _, plan := range []struct {
			name  string
			sweep bool
		}{{"beam", false}, {"sweep", true}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, plan.name), func(b *testing.B) {
				pinOneCPU(b)
				sc := new(hnswScratch)
				for i := 0; i < b.N; i++ {
					h.mu.RLock()
					h.discoverLocked(sc, probeSlot(i%probes, n), 0, vecs[i%probes], plan.sweep)
					h.mu.RUnlock()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/insert")
			})
		}
	}
}

// probeSlot spreads probe i of 512 over n slots.
func probeSlot(i, n int) uint32 { return uint32(i * n / 512) }
