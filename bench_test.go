// Package ehnabench regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each benchmark runs the corresponding
// experiment at the Quick preset and reports the headline numbers through
// b.ReportMetric, so
//
//	go test -bench . -benchtime 1x
//
// reprints the whole evaluation. `go run ./cmd/experiments -preset full`
// runs the same code at the Full preset.
package ehnabench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ehna/internal/ann"
	"ehna/internal/datagen"
	"ehna/internal/embstore"
	"ehna/internal/eval"
	"ehna/internal/experiments"
	"ehna/internal/graph"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

func quick() experiments.Settings { return experiments.Quick() }

// benchFig4 is the generic Figure 4 panel runner.
func benchFig4(b *testing.B, d datagen.Dataset) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4(quick(), d)
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Ps) - 1
		b.ReportMetric(r.Precisions["EHNA"][0], "EHNA_p@first")
		b.ReportMetric(r.Precisions["EHNA"][last], "EHNA_p@last")
		b.ReportMetric(r.Precisions["Node2Vec"][0], "N2V_p@first")
	}
}

// BenchmarkFig4ReconstructionDigg regenerates Figure 4a.
func BenchmarkFig4ReconstructionDigg(b *testing.B) { benchFig4(b, datagen.Digg) }

// BenchmarkFig4ReconstructionYelp regenerates Figure 4b.
func BenchmarkFig4ReconstructionYelp(b *testing.B) { benchFig4(b, datagen.Yelp) }

// BenchmarkFig4ReconstructionTmall regenerates Figure 4c.
func BenchmarkFig4ReconstructionTmall(b *testing.B) { benchFig4(b, datagen.Tmall) }

// BenchmarkFig4ReconstructionDBLP regenerates Figure 4d.
func BenchmarkFig4ReconstructionDBLP(b *testing.B) { benchFig4(b, datagen.DBLP) }

// benchLinkPred is the generic Tables III–VI runner.
func benchLinkPred(b *testing.B, d datagen.Dataset) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunLinkPred(quick(), d)
		if err != nil {
			b.Fatal(err)
		}
		cell := r.Cells[eval.WeightedL2]["EHNA"]
		b.ReportMetric(cell.AUC, "EHNA_WL2_AUC")
		b.ReportMetric(cell.F1, "EHNA_WL2_F1")
		b.ReportMetric(r.Cells[eval.Hadamard]["EHNA"].AUC, "EHNA_Had_AUC")
	}
}

// BenchmarkTable3LinkPredDigg regenerates Table III.
func BenchmarkTable3LinkPredDigg(b *testing.B) { benchLinkPred(b, datagen.Digg) }

// BenchmarkTable4LinkPredYelp regenerates Table IV.
func BenchmarkTable4LinkPredYelp(b *testing.B) { benchLinkPred(b, datagen.Yelp) }

// BenchmarkTable5LinkPredTmall regenerates Table V.
func BenchmarkTable5LinkPredTmall(b *testing.B) { benchLinkPred(b, datagen.Tmall) }

// BenchmarkTable6LinkPredDBLP regenerates Table VI.
func BenchmarkTable6LinkPredDBLP(b *testing.B) { benchLinkPred(b, datagen.DBLP) }

// BenchmarkTable7Ablation regenerates Table VII (on the Digg analogue; the
// Full preset in cmd/experiments covers all four datasets).
func BenchmarkTable7Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblation(quick(), []datagen.Dataset{datagen.Digg})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.F1["EHNA"][datagen.Digg], "EHNA_F1")
		b.ReportMetric(r.F1["EHNA-NA"][datagen.Digg], "NA_F1")
		b.ReportMetric(r.F1["EHNA-RW"][datagen.Digg], "RW_F1")
		b.ReportMetric(r.F1["EHNA-SL"][datagen.Digg], "SL_F1")
	}
}

// BenchmarkTable8Efficiency regenerates Table VIII.
func BenchmarkTable8Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunEfficiency(quick(), []datagen.Dataset{datagen.Digg})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Seconds["EHNA"][datagen.Digg], "EHNA_s")
		b.ReportMetric(r.Seconds["HTNE"][datagen.Digg], "HTNE_s")
		b.ReportMetric(r.Seconds["Node2Vec"][datagen.Digg], "N2V_s")
		b.ReportMetric(r.Seconds["Node2Vec_W"][datagen.Digg], "N2VW_s")
	}
}

// benchSweep is the generic Figure 5 panel runner.
func benchSweep(b *testing.B, p experiments.SweepParam) {
	b.Helper()
	s := quick()
	s.Repeats = 2
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunParamSweep(s, datagen.Yelp, p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Points[0].F1, "F1_first")
		b.ReportMetric(r.Points[len(r.Points)-1].F1, "F1_last")
	}
}

// BenchmarkFig5Margin regenerates Figure 5a.
func BenchmarkFig5Margin(b *testing.B) { benchSweep(b, experiments.SweepMargin) }

// BenchmarkFig5WalkLen regenerates Figure 5b.
func BenchmarkFig5WalkLen(b *testing.B) { benchSweep(b, experiments.SweepWalkLen) }

// BenchmarkFig5P regenerates Figure 5c.
func BenchmarkFig5P(b *testing.B) { benchSweep(b, experiments.SweepP) }

// BenchmarkFig5Q regenerates Figure 5d.
func BenchmarkFig5Q(b *testing.B) { benchSweep(b, experiments.SweepQ) }

// BenchmarkExtensionOperatorCombo runs the future-work extension the paper
// defers: single operators vs the 4-operator concatenation.
func BenchmarkExtensionOperatorCombo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunOperatorCombo(quick(), datagen.Digg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AUC["Combined"], "Combined_AUC")
		b.ReportMetric(r.AUC["Hadamard"], "Hadamard_AUC")
	}
}

// servingDim is the embedding width for the serving-path benchmarks,
// matching the EHNA default.
const servingDim = 32

// BenchmarkEmbstoreBulkLoad measures loading a full embedding matrix
// into the sharded store at serving scales.
func BenchmarkEmbstoreBulkLoad(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			emb := tensor.Randn(n, servingDim, 1, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := embstore.FromMatrix(emb, embstore.F32)
				if err != nil {
					b.Fatal(err)
				}
				if s.Len() != n {
					b.Fatal("short load")
				}
			}
		})
	}
}

// benchANN measures per-query latency of an index over a store of the
// given slab precision and reports recall@10 against the float64
// ranking of the source matrix plus the per-vector slab footprint.
func benchANN(b *testing.B, n int, prec embstore.Precision, mk func(*embstore.Store) (ann.Index, error)) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	emb := tensor.Randn(n, servingDim, 1, rng)
	s, err := embstore.FromMatrix(emb, prec)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := mk(s)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	// Recall over a fixed query sample (once, outside the loop) — the
	// ground truth is a float64 brute force over emb, so every stored
	// precision is charged for what it lost.
	var approx, truth [][]graph.NodeID
	for qi := 0; qi < 20; qi++ {
		ar, err := idx.SearchInto(context.Background(), nil, emb.Row(qi), k)
		if err != nil {
			b.Fatal(err)
		}
		truth = append(truth, cosineTopK(emb, emb.Row(qi), k))
		approx = append(approx, resultIDs(ar))
	}
	recall, err := eval.MeanRecallAtK(approx, truth)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.SearchInto(context.Background(), nil, emb.Row(i%n), k); err != nil {
			b.Fatal(err)
		}
	}
	// After the loop: ResetTimer discards metrics reported before it.
	b.ReportMetric(recall, "recall@10")
	b.ReportMetric(float64(prec.BytesPerVector(servingDim)), "bytes_per_vector")
}

// cosineTopK returns the k rows of emb (row i is node i) most cosine-
// similar to q, by float64 full sort.
func cosineTopK(emb *tensor.Matrix, q []float64, k int) []graph.NodeID {
	qn := vecmath.Norm(q)
	cos := make([]float64, emb.Rows)
	ids := make([]graph.NodeID, emb.Rows)
	for i := range ids {
		ids[i] = graph.NodeID(i)
		if rn := vecmath.Norm(emb.Row(i)); qn != 0 && rn != 0 {
			cos[i] = vecmath.Dot(q, emb.Row(i)) / (qn * rn)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return cos[ids[a]] > cos[ids[b]] })
	return ids[:k]
}

func resultIDs(rs []ann.Result) []graph.NodeID {
	out := make([]graph.NodeID, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// benchPrecisions is the slab matrix BenchmarkANNTopK sweeps.
var benchPrecisions = []embstore.Precision{embstore.F32, embstore.SQ8}

// BenchmarkANNTopK compares exact scan and HNSW graph search at serving
// scales, each across the two slab precisions (recall@10 is always
// measured against the float64 ranking, and bytes_per_vector
// records the memory side of the trade). HNSW runs at its defaults (the
// config whose 100k recall is gated at ≥ 0.95 by TestHNSWRecall100k;
// TestSQ8Recall gates the quantized plane).
func BenchmarkANNTopK(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		n := n
		for _, prec := range benchPrecisions {
			prec := prec
			b.Run(fmt.Sprintf("exact/n=%d/p=%s", n, prec), func(b *testing.B) {
				benchANN(b, n, prec, func(s *embstore.Store) (ann.Index, error) {
					return ann.NewExact(s, ann.Cosine), nil
				})
			})
			b.Run(fmt.Sprintf("hnsw/n=%d/p=%s", n, prec), func(b *testing.B) {
				benchANN(b, n, prec, func(s *embstore.Store) (ann.Index, error) {
					return ann.BuildHNSW(s, ann.DefaultHNSWConfig())
				})
			})
		}
	}
}

// BenchmarkKernels measures the vecmath hot kernels in isolation at
// the dims the serving benchmarks exercise. MB/s is total bytes
// touched per call (both operands; for the sq8 kernels the f64 query
// plus the int8 codes), so the same kernel's number is comparable
// across backends: run once as-is and once with EHNA_NOSIMD=1 (or
// -tags noasm) to measure the SIMD speedup on this machine. The
// active backend is reported once per sub-benchmark as backend=0
// (scalar), 1 (avx2) or 2 (neon).
func BenchmarkKernels(b *testing.B) {
	backendID := map[string]float64{"scalar": 0, "avx2": 1, "neon": 2}[vecmath.Backend()]
	for _, dim := range []int{32, 64, 128} {
		dim := dim
		rng := rand.New(rand.NewSource(4))
		a64 := make([]float64, dim)
		b64 := make([]float64, dim)
		a32 := make([]float32, dim)
		b32 := make([]float32, dim)
		for i := 0; i < dim; i++ {
			a64[i] = rng.NormFloat64()
			b64[i] = rng.NormFloat64()
			a32[i] = float32(a64[i])
			b32[i] = float32(b64[i])
		}
		aCode := make([]int8, dim)
		bCode := make([]int8, dim)
		aScale, aOffset, aSum := vecmath.EncodeSQ8(a64, aCode)
		bScale, bOffset, bSum := vecmath.EncodeSQ8(b64, bCode)
		qSum := vecmath.Sum(a64)
		var sinkF float64 // keep kernel results observable

		run := func(name string, bytes int, fn func()) {
			b.Run(fmt.Sprintf("%s/dim=%d", name, dim), func(b *testing.B) {
				b.SetBytes(int64(bytes))
				b.ReportMetric(backendID, "backend")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fn()
				}
			})
		}
		run("Dot", dim*16, func() { sinkF += vecmath.Dot(a64, b64) })
		run("SqDist", dim*16, func() { sinkF += vecmath.SqDist(a64, b64) })
		run("Dot32", dim*8, func() { sinkF += vecmath.Dot32(a32, b32) })
		run("DotSQ8", dim*9, func() { sinkF += vecmath.DotSQ8(a64, bCode, bScale, bOffset, qSum) })
		run("DotSQ8Sym", dim*2, func() {
			sinkF += vecmath.DotSQ8Sym(aCode, bCode, aScale, aOffset, bScale, bOffset, aSum, bSum)
		})
		run("EncodeSQ8", dim*9, func() {
			s, o, c := vecmath.EncodeSQ8(a64, aCode)
			sinkF += s + o + float64(c)
		})
		if sinkF == 0.12345 {
			b.Log(sinkF)
		}
	}
}

// BenchmarkExtensionNodeClassification runs the node-classification
// application (community prediction on the labeled DBLP analogue).
func BenchmarkExtensionNodeClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunNodeClassification(quick())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Accuracy["EHNA"], "EHNA_acc")
		b.ReportMetric(r.Accuracy["Node2Vec"], "N2V_acc")
	}
}
