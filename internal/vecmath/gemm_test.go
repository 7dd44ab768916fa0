package vecmath

import (
	"fmt"
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

func to32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
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

// BenchmarkGemm times the products at the LSTM's shapes: the per-step
// recurrent product (70×32 · 32×128), the hoisted input projection,
// the deferred weight gradient and the input gradient dx (700 rows),
// each in float64 and, on the f32 rows beside it, in float32 — the
// LSTM's compute precision.
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSlice(rng, 700*32)
	w := randSlice(rng, 32*128)
	wT := randSlice(rng, 128*32)
	d := randSlice(rng, 700*128)
	out := make([]float64, 700*128)
	x32, w32, wT32, d32 := to32(x), to32(w), to32(wT), to32(d)
	out32 := make([]float32, 700*128)
	b.Run("NN/70x32x128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmNN(out, 128, x, 32, w, 128, 70, 128, 32)
		}
	})
	b.Run("NN/70x32x128/f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmNN32(out32, 128, x32, 32, w32, 128, 70, 128, 32)
		}
	})
	b.Run("NN/700x32x128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmNN(out, 128, x, 32, w, 128, 700, 128, 32)
		}
	})
	b.Run("NN/700x32x128/f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmNN32(out32, 128, x32, 32, w32, 128, 700, 128, 32)
		}
	})
	b.Run("TN/32x128x700", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmTN(out, 128, x, 32, d, 128, 32, 128, 700)
		}
	})
	b.Run("TN/32x128x700/f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmTN32(out32, 128, x32, 32, d32, 128, 32, 128, 700)
		}
	})
	b.Run("NN/700x128x32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmNN(out, 32, d, 128, wT, 32, 700, 32, 128)
		}
	})
	b.Run("NN/700x128x32/f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemmNN32(out32, 32, d32, 128, wT32, 32, 700, 32, 128)
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

// gemm32Case is one float32 product and its operands.
type gemm32Case struct {
	m, n, k, lda, ldb, ldc int
	trans                  bool // A given k×m (GemmTN32)
	a, b, c                []float32
}

// gemm32Body names one float32 body a case can run.
type gemm32Body int

const (
	dispatched gemm32Body = iota // GemmNN32/GemmTN32: the ZMM tile where the CPU has it
	ymmTiles                     // the same with the ZMM tile disallowed: the AVX2 4×16 tile
	goKernel                     // the portable kernel alone
)

// run applies one body to a copy of C.
func (g gemm32Case) run(body gemm32Body) []float32 {
	c := append([]float32(nil), g.c...)
	rsa, csa := g.lda, 1
	if g.trans {
		rsa, csa = 1, g.lda
	}
	switch {
	case body == goKernel:
		gemmGo(c, g.ldc, g.a, rsa, csa, g.b, g.ldb, g.m, 0, g.n, g.k)
	case body == ymmTiles:
		gemm32Bodies(c, g.ldc, g.a, rsa, csa, g.b, g.ldb, g.m, g.n, g.k, false)
	case g.trans:
		GemmTN32(c, g.ldc, g.a, g.lda, g.b, g.ldb, g.m, g.n, g.k)
	default:
		GemmNN32(c, g.ldc, g.a, g.lda, g.b, g.ldb, g.m, g.n, g.k)
	}
	return c
}

// check holds both bodies to the product computed in float64 within
// the rounding bound of a k-term float32 dot product added to C,
// (k+2)·2⁻²⁴·(|c| + Σ|a·b|), whatever order or fusing either body
// uses, and checks that neither writes outside the m×n block. Where
// the ZMM tile runs, the dispatched result must also equal the AVX2
// tiles' bit for bit.
func (g gemm32Case) check(t *testing.T) {
	t.Helper()
	at := func(i, p int) float64 {
		if g.trans {
			return float64(g.a[p*g.lda+i])
		}
		return float64(g.a[i*g.lda+p])
	}
	tile, port := g.run(dispatched), g.run(goKernel)
	if simd512 {
		g.checkBits(t, tile, g.run(ymmTiles))
	}
	for i := 0; i <= g.m && i*g.ldc < len(g.c); i++ {
		for j := 0; j < g.ldc && i*g.ldc+j < len(g.c); j++ {
			x := i*g.ldc + j
			if i == g.m || j >= g.n {
				if tile[x] != g.c[x] || port[x] != g.c[x] {
					t.Fatalf("%+v: wrote outside the block at (%d,%d)", g.shape(), i, j)
				}
				continue
			}
			want, mag := float64(g.c[x]), math.Abs(float64(g.c[x]))
			for p := 0; p < g.k; p++ {
				prod := at(i, p) * float64(g.b[p*g.ldb+j])
				want += prod
				mag += math.Abs(prod)
			}
			bound := float64(g.k+2) * 0x1p-24 * mag
			for _, body := range []struct {
				name string
				got  float32
			}{{Backend(), tile[x]}, {"go", port[x]}} {
				if d := math.Abs(float64(body.got) - want); d > bound {
					t.Fatalf("%v (%s) at (%d,%d): %v, float64 product %v, |Δ| %g > %g", g.shape(), body.name, i, j, body.got, want, d, bound)
				}
			}
		}
	}
}

// checkBits fails unless got (the dispatched body) and want (the AVX2
// tiles) hold the same bits everywhere.
func (g gemm32Case) checkBits(t *testing.T, got, want []float32) {
	t.Helper()
	for x := range got {
		if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
			t.Fatalf("%v at (%d,%d): 4×32 tile wrote %v, 4×16 tile %v", g.shape(), x/g.ldc, x%g.ldc, got[x], want[x])
		}
	}
}

func (g gemm32Case) shape() string {
	op := "NN"
	if g.trans {
		op = "TN"
	}
	return fmt.Sprintf("%s m=%d n=%d k=%d", op, g.m, g.n, g.k)
}

// newGemm32Case fills a case of the given shape from rng, with leading
// dimensions wider than the rows and one spare row of C.
func newGemm32Case(rng *rand.Rand, m, n, k int, trans bool) gemm32Case {
	g := gemm32Case{m: m, n: n, k: k, lda: max(m, k) + 3, ldb: n + 2, ldc: n + 5, trans: trans}
	fill := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	g.a = fill((max(m, k) + 1) * g.lda)
	g.b = fill((k + 1) * g.ldb)
	g.c = fill((m + 1) * g.ldc)
	return g
}

// gemm32BodiesRun names the bodies the dispatcher runs on this CPU.
func gemm32BodiesRun() string {
	switch {
	case trainAsm && simd64 && simd512:
		return "avx512 4×32 + avx2 4×16 + go"
	case trainAsm && simd64:
		return "avx2 4×16 + go"
	}
	return "go"
}

// TestGemm32BodiesMatch runs the float32 products over every row count
// mod 4 (partial tiles of one to three rows), every column count mod
// 32 up to 96 (the 4×32 tile, the 16-column remainder on the 4×16 tile
// and the Go columns beside them) and k tails from 0 up, NN and TN:
// the dispatched body and the Go kernel each stay within the float32
// rounding bound of the float64 product, and on AVX-512F the
// dispatched body equals the AVX2 tiles bit for bit.
func TestGemm32BodiesMatch(t *testing.T) {
	t.Logf("dispatched bodies: %s", gemm32BodiesRun())
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13} {
		for n := 1; n <= 97; n++ {
			for _, k := range []int{0, 1, 2, 3, 7, 16, 33} {
				for _, trans := range []bool{false, true} {
					newGemm32Case(rng, m, n, k, trans).check(t)
				}
			}
		}
	}
}

// TestGemm32WideTileMatchesAVX2 holds the 4×32 tile to the 4×16 one
// bit for bit at the LSTM's own shapes, where a column's chain runs
// to k = 700 (the weight gradient); it skips on CPUs without AVX-512F.
func TestGemm32WideTileMatchesAVX2(t *testing.T) {
	if !(trainAsm && simd64 && simd512) {
		t.Skipf("no AVX-512F tile on this CPU/backend (dispatched bodies: %s)", gemm32BodiesRun())
	}
	rng := rand.New(rand.NewSource(5))
	for _, s := range []struct {
		m, n, k int
		trans   bool
	}{
		{70, 128, 32, false}, {700, 128, 32, false}, {70, 32, 128, false},
		{700, 32, 128, false}, {33, 128, 700, true}, {71, 112, 45, true},
	} {
		g := newGemm32Case(rng, s.m, s.n, s.k, s.trans)
		g.checkBits(t, g.run(dispatched), g.run(ymmTiles))
	}
}

// FuzzGemm32 drives the bodies with fuzzed shapes and values: byte 0
// picks m (1–12), byte 1 n (1–96), byte 2 k (0–40) and the transpose,
// and the rest are the operands' values as signed bytes plus a third
// (so that products and sums round, and a body that rounds differently
// shows), scaled by a power of two the next byte picks, so magnitudes
// span 2⁻²⁰ to 2²⁰.
func FuzzGemm32(f *testing.F) {
	f.Add([]byte{3, 17, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 15, 64 + 31, 0x80, 0x7f, 0xff, 0x01})
	f.Add([]byte{11, 47, 39, 20, 200, 13, 77})
	f.Add([]byte{6, 79, 64 + 40, 3, 9, 250, 128, 77})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		m, n, k := 1+int(data[0])%12, 1+int(data[1])%96, int(data[2])%41
		trans := data[2]&64 != 0
		vals, scale := data[3:], math.Ldexp(1, int(data[3])%41-20)
		next := 0
		value := func() float32 {
			v := (float64(int8(vals[next%len(vals)])) + 1.0/3) * scale
			next++
			return float32(v)
		}
		g := newGemm32Case(rand.New(rand.NewSource(1)), m, n, k, trans)
		for _, s := range [][]float32{g.a, g.b, g.c} {
			for i := range s {
				s[i] = value()
			}
		}
		g.check(t)
	})
}
