package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// gemmRef is the textbook triple loop the kernels are checked against.
func gemmRef(c []float64, ldc int, at func(i, p int) float64, bt func(p, j int) float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			c[i*ldc+j] += s
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestGemmMatchesReference sweeps shapes around the tile boundaries
// (partial 4-row tiles, column counts that leave a scalar remainder,
// k = 0) with leading dimensions wider than the rows, through whichever
// backend is active and through the portable kernel directly. Elements
// of C outside the m×n block must not be touched.
func TestGemmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 10} {
		for _, n := range []int{1, 3, 4, 8, 9, 16, 21, 32} {
			for _, k := range []int{0, 1, 2, 5, 17, 64} {
				lda, ldb, ldc := max(m, k)+3, max(n, k)+2, n+5
				a := randSlice(rng, (max(m, k)+1)*lda)
				b := randSlice(rng, (max(n, k)+1)*ldb)
				c0 := randSlice(rng, (m+1)*ldc)

				type variant struct {
					name string
					run  func(c []float64)
					at   func(i, p int) float64
					bt   func(p, j int) float64
				}
				nn := func(i, p int) float64 { return a[i*lda+p] }
				tn := func(i, p int) float64 { return a[p*lda+i] }
				bn := func(p, j int) float64 { return b[p*ldb+j] }
				bT := func(p, j int) float64 { return b[j*ldb+p] }
				for _, v := range []variant{
					{"NN", func(c []float64) { GemmNN(c, ldc, a, lda, b, ldb, m, n, k) }, nn, bn},
					{"TN", func(c []float64) { GemmTN(c, ldc, a, lda, b, ldb, m, n, k) }, tn, bn},
					{"NT", func(c []float64) { GemmNT(c, ldc, a, lda, b, ldb, m, n, k) }, nn, bT},
					{"NN/go", func(c []float64) { gemmGo(c, ldc, a, lda, 1, b, ldb, m, 0, n, k) }, nn, bn},
					{"TN/go", func(c []float64) { gemmGo(c, ldc, a, 1, lda, b, ldb, m, 0, n, k) }, tn, bn},
				} {
					got := append([]float64(nil), c0...)
					want := append([]float64(nil), c0...)
					v.run(got)
					gemmRef(want, ldc, v.at, v.bt, m, n, k)
					if d := maxAbsDiff(got, want); d > 1e-12 {
						t.Fatalf("%s m=%d n=%d k=%d: max |Δ| = %g", v.name, m, n, k, d)
					}
					for i := 0; i <= m; i++ {
						for j := 0; j < ldc; j++ {
							if (i == m || j >= n) && got[i*ldc+j] != c0[i*ldc+j] {
								t.Fatalf("%s m=%d n=%d k=%d: wrote outside the block at (%d,%d)", v.name, m, n, k, i, j)
							}
						}
					}
				}
			}
		}
	}
}

func TestGemmRejectsShortOperands(t *testing.T) {
	for name, f := range map[string]func(){
		"c":   func() { GemmNN(make([]float64, 7), 4, make([]float64, 8), 4, make([]float64, 16), 4, 2, 4, 4) },
		"a":   func() { GemmNN(make([]float64, 8), 4, make([]float64, 7), 4, make([]float64, 16), 4, 2, 4, 4) },
		"b":   func() { GemmNN(make([]float64, 8), 4, make([]float64, 8), 4, make([]float64, 15), 4, 2, 4, 4) },
		"ldc": func() { GemmNN(make([]float64, 8), 3, make([]float64, 8), 4, make([]float64, 16), 4, 2, 4, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("short %s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkGemm times the three products at the LSTM's shapes: the
// per-step recurrent product (70×32 · 32×128), the hoisted input
// projection and the deferred weight gradient (700 rows).
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSlice(rng, 700*32)
	w := randSlice(rng, 32*128)
	d := randSlice(rng, 700*128)
	out := make([]float64, 700*128)
	b.Run("NN/70x32x128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmNN(out, 128, x, 32, w, 128, 70, 128, 32)
		}
	})
	b.Run("NN/700x32x128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmNN(out, 128, x, 32, w, 128, 700, 128, 32)
		}
	})
	b.Run("TN/32x128x700", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmTN(out, 128, x, 32, d, 128, 32, 128, 700)
		}
	})
	b.Run("NT/700x32x128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmNT(out, 32, d, 128, w, 128, 700, 32, 128)
		}
	})
	b.Run("go/700x32x128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gemmGo(out, 128, x, 32, 1, w, 128, 700, 0, 128, 32)
		}
	})
}
