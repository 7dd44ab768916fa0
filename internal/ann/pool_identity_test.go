package ann

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ehna/internal/embstore"
	"ehna/internal/tensor"
	"ehna/internal/vecmath"
)

// twinStore is an sq8 store of n rows at dim whose second half repeats
// its first (row i+n/2 holds row i's vector), so every row has a twin
// with the same codes and factors: exact score ties, broken by ID.
func twinStore(t testing.TB, n, dim int) *embstore.Store {
	t.Helper()
	m := tensor.Randn(n, dim, 1, rand.New(rand.NewSource(83)))
	for i := n / 2; i < n; i++ {
		copy(m.Row(i), m.Row(i-n/2))
	}
	s, err := embstore.FromMatrix(m, embstore.DefaultShards, embstore.SQ8)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// graphDigest builds the default-config graph over store under metric
// on one CPU and returns the SHA-256 of its graph file.
func graphDigest(t testing.TB, store *embstore.Store, metric Metric) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultHNSWConfig()
	cfg.Metric = metric
	var buf bytes.Buffer
	if err := mustHNSW(t, store, cfg).SaveGraph(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// oraclePush is topK.push as it was before its sift-down went
// branch-free: the worse child picked by an if on worse.
func oraclePush(t *topK, r Result) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, r)
		for i := len(t.heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !worse(t.heap[i], t.heap[p]) {
				break
			}
			t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
			i = p
		}
		return
	}
	if !worse(t.heap[0], r) {
		return
	}
	h, i := t.heap, 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && worse(h[c+1], h[c]) {
			c++
		}
		if !worse(h[c], r) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = r
}

// oracleScoreBlockSym is scoreBlockSym as it was before the survivor
// kernel: every (row, query) pair scored in Go, query-outer and
// row-inner, against a floor that rises as the pool fills, with code
// dots from a plain loop and pushes through oraclePush.
func (sc *scanScratch) oracleScoreBlockSym(r *embstore.Run, lo, hi, dim int, cosine bool) {
	n := hi - lo
	rowOff, rowScale, rowSum := sc.rowOff[:n], sc.rowScale[:n], sc.rowSum[:n]
	for i := range rowOff {
		scale, offset, norm, cs := r.SQ8(lo + i)
		rowOff[i], rowScale[i], rowSum[i] = sq8RowFactor(scale, offset, norm, cs, cosine)
	}
	codes, ids := r.Codes[lo*dim:hi*dim], r.IDs[lo:hi]
	for j := range sc.q {
		sq, g, lane := &sc.q[j], &sc.groups[j/scanGroup], j%scanGroup
		a, b, c, floor, q := g.A[lane], g.B[lane], g.C[lane], sq.floor, sq.ctx.sq8q.Code
		for i := range rowOff {
			var dot int32
			for x, code := range codes[i*dim : (i+1)*dim] {
				dot += int32(code) * int32(q[x])
			}
			score := filterScore(rowOff[i], rowSum[i], rowScale[i], a, b, c, dot)
			if score < floor || r.Masked(lo+i) {
				continue
			}
			oraclePush(&sq.pool, Result{ID: ids[i], Score: score})
			if len(sq.pool.heap) == sq.pool.k {
				floor = sq.pool.heap[0].Score
			}
		}
		sq.floor = floor
	}
}

// scanWith runs the two-stage scan over e's store for qs as one task,
// scoring each block with score, and returns each query's pool in heap
// order and its re-ranked top k.
func scanWith(e *Exact, qs [][]float64, k int, score func(sc *scanScratch, r *embstore.Run, lo, hi, dim int, cosine bool)) (pools, top [][]Result) {
	sc := new(scanScratch)
	sc.prepare(e.store, e.metric, qs, k)
	dim, cosine := e.store.Dim(), e.metric != DotProduct
	for si := 0; si < e.store.NumShards(); si++ {
		e.store.ScanShard(si, func(r embstore.Run) bool {
			for lo := 0; lo < len(r.IDs); lo += scanBlockRows {
				score(sc, &r, lo, min(lo+scanBlockRows, len(r.IDs)), dim, cosine)
			}
			return true
		})
	}
	for j := range qs {
		pools = append(pools, append([]Result(nil), sc.q[j].pool.heap...))
	}
	sc.rerank(e.store, e.metric, k)
	for j := range qs {
		top = append(top, append([]Result(nil), sc.q[j].top.sorted()...))
	}
	return pools, top
}

// sameBits reports whether two result lists hold the same IDs and
// bit-identical scores, in order.
func sameBits(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestScanPoolsMatchOracle: the survivor kernel and the branch-free
// pool leave every query's pool exactly as scoring every (row, query)
// pair in Go left it — heap array and score bits — over a store of
// twinned rows (exact ties), at every batch size around the kernel's
// group of four and the task cap, at k 1, 10 and past the store, under
// both metrics. Exact.SearchBatch, Exact.SearchInto and, where scanPlan
// scans, HNSW.SearchBatch answer the oracle's re-ranked top k bit for
// bit.
func TestScanPoolsMatchOracle(t *testing.T) {
	if !vecmath.HasSQ8Sym() {
		t.Skip("no SIMD symmetric kernel: sq8 scans are single-stage on this backend")
	}
	const n, dim = 1100, 40 // dim 40: a 16- and 32-lane tail for both SIMD bodies
	store := twinStore(t, n, dim)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(84))
	for _, metric := range []Metric{Cosine, DotProduct} {
		e := NewExact(store, metric)
		cfg := DefaultHNSWConfig()
		cfg.Metric = metric
		h := mustHNSW(t, store, cfg)
		for _, size := range []int{1, 3, 4, 7, 32, 33} {
			qs := benchQueries(rng, size, dim)
			for i := 0; i < size; i += 3 { // some queries are stored rows, tied with their twins
				store.With(uint32(rng.Intn(n)), func(v *embstore.VecView) { v.DequantizeInto(qs[i]) })
			}
			for _, k := range []int{1, 10, n + 5} {
				label := fmt.Sprintf("%v/%d queries/k=%d", metric, size, k)
				wantPools, want := scanWith(e, qs, k, (*scanScratch).oracleScoreBlockSym)
				gotPools, _ := scanWith(e, qs, k, (*scanScratch).scoreBlockSym)
				for j := range qs {
					if !sameBits(gotPools[j], wantPools[j]) {
						t.Fatalf("%s: query %d's pool\n%v\n!= oracle's\n%v", label, j, gotPools[j], wantPools[j])
					}
				}
				batch, err := e.SearchBatch(ctx, qs, k)
				if err != nil {
					t.Fatal(err)
				}
				for j, q := range qs {
					if !sameBits(batch[j], want[j]) {
						t.Fatalf("%s: Exact.SearchBatch query %d = %v, oracle %v", label, j, batch[j], want[j])
					}
					single, err := e.SearchInto(ctx, nil, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(single, want[j]) {
						t.Fatalf("%s: Exact.SearchInto query %d = %v, oracle %v", label, j, single, want[j])
					}
				}
				if !scanPlan(embstore.SQ8, true, size, n, h.Config().EfSearch, k, cfg.M) {
					continue // the beam answers: not the scanner under test
				}
				scanned, err := h.SearchBatch(ctx, qs, k)
				if err != nil {
					t.Fatal(err)
				}
				for j := range qs {
					if !sameBits(scanned[j], want[j]) {
						t.Fatalf("%s: HNSW.SearchBatch query %d = %v, oracle %v", label, j, scanned[j], want[j])
					}
				}
			}
		}
	}
}

// twinGraphDigests are the SHA-256 digests of the graph files
// graphDigest writes for twinStore(1100, 40), by metric, as built by
// every sq8 scan and insert sweep before the survivor kernel: the
// kernel chooses which rows are scored, never which rows win.
var twinGraphDigests = map[Metric]string{
	Cosine:     "c79e37957339458ffef5217920ee15040f3dce411eb1555c243fada93a454fb8",
	DotProduct: "0f653cb1a2d313f606e26519bf9d3666fb65e2800b7cf58d67069bf1cb6bdd6c",
}

// TestBuildGraphFileUnchanged: the insert sweep, filtering through the
// survivor kernel, builds byte for byte the graph file it built before,
// on the backends whose inserts sweep (the digests are of their sq8
// encoder's codes; the default and GOAMD64=v3 builds both wrote them).
func TestBuildGraphFileUnchanged(t *testing.T) {
	if !vecmath.HasSQ8Sym() {
		t.Skip("no SIMD symmetric kernel: inserts do not sweep on this backend")
	}
	store := twinStore(t, 1100, 40)
	for metric, want := range twinGraphDigests {
		if got := graphDigest(t, store, metric); got != want {
			t.Errorf("%v: graph file digest %s, want %s", metric, got, want)
		}
	}
}
