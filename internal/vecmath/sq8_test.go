package vecmath

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func refL1(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// closeF32 checks a float32-accumulated kernel against its float64
// reference: tolerance scales with the magnitude of the terms summed
// (not the result, which cancellation can drive toward zero).
func closeF32(got, want, termMag float64) bool {
	return math.Abs(got-want) <= 1e-4*(termMag+1)
}

func toF32(v []float64) []float32 {
	out := make([]float32, len(v))
	F64To32(out, v)
	return out
}

// TestFloat32KernelsMatchReference checks the f32 family against the
// float64 references over lengths 0–257 (every unroll remainder). The
// references run on the narrowed-then-widened values, so the only
// divergence measured is the kernels' float32 accumulation.
func TestFloat32KernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 257; n++ {
		a := randVec(rng, n)
		b := randVec(rng, n)
		a32, b32 := toF32(a), toF32(b)
		// Widen back so the reference sees exactly the f32 lane values.
		aw := make([]float64, n)
		bw := make([]float64, n)
		F32To64(aw, a32)
		F32To64(bw, b32)
		for i := range aw {
			if aw[i] != float64(float32(a[i])) {
				t.Fatalf("F64To32/F32To64 n=%d lane %d: %g", n, i, aw[i])
			}
		}

		var termMag float64
		for i := range aw {
			termMag += math.Abs(aw[i] * bw[i])
		}
		if got, want := Dot32(a32, b32), refDot(aw, bw); !closeF32(got, want, termMag) {
			t.Fatalf("Dot32 n=%d: got %g want %g", n, got, want)
		}
	}
}

// sq8Slop is the float-rounding allowance on top of the exact-math
// quantization bounds.
func sq8Slop(scale, offset float64) float64 {
	return 1e-9 * (math.Abs(offset) + 256*scale + 1)
}

// TestSQ8KernelsMatchReference checks encode/decode reconstruction
// bounds and both distance kernels against scalar references over
// lengths 0–257.
func TestSQ8KernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 0; n <= 257; n++ {
		v := randVec(rng, n)
		q := randVec(rng, n)
		code := make([]int8, n)
		scale, offset, codeSum := EncodeSQ8(v, code)

		// Σ code matches.
		var wantSum int32
		for _, c := range code {
			wantSum += int32(c)
		}
		if codeSum != wantSum {
			t.Fatalf("EncodeSQ8 n=%d: codeSum %d want %d", n, codeSum, wantSum)
		}

		// Reconstruction error ≤ scale/2 per lane.
		dec := make([]float64, n)
		DecodeSQ8(dec, code, scale, offset)
		bound := scale/2 + sq8Slop(scale, offset)
		for i := range v {
			if d := math.Abs(dec[i] - v[i]); d > bound {
				t.Fatalf("DecodeSQ8 n=%d lane %d: |%g − %g| = %g > %g", n, i, dec[i], v[i], d, bound)
			}
		}

		// DotSQ8 is algebraically Dot(q, dec): tight agreement.
		qSum := Sum(q)
		got := DotSQ8(q, code, scale, offset, qSum)
		want := refDot(q, dec)
		tight := 1e-9 * (refL1(q)*(math.Abs(offset)+128*scale) + 1)
		if math.Abs(got-want) > tight {
			t.Fatalf("DotSQ8 n=%d vs Dot(q,dec): got %g want %g", n, got, want)
		}
		// ...and within the documented envelope of the true dot.
		env := scale/2*refL1(q) + tight
		if d := math.Abs(got - refDot(q, v)); d > env {
			t.Fatalf("DotSQ8 n=%d envelope: |%g − %g| = %g > %g", n, got, refDot(q, v), d, env)
		}

		// DotSQ8Sym is algebraically Dot(decA, decB).
		code2 := make([]int8, n)
		scale2, offset2, codeSum2 := EncodeSQ8(q, code2)
		dec2 := make([]float64, n)
		DecodeSQ8(dec2, code2, scale2, offset2)
		gotSym := DotSQ8Sym(code, code2, scale, offset, scale2, offset2, codeSum, codeSum2)
		wantSym := refDot(dec, dec2)
		symSlop := 1e-9 * (refL1(dec)*math.Max(math.Abs(offset2)+128*scale2, 1) + refL1(dec2) + math.Abs(wantSym) + 1)
		if math.Abs(gotSym-wantSym) > symSlop {
			t.Fatalf("DotSQ8Sym n=%d: got %g want %g", n, gotSym, wantSym)
		}

		// Sum matches its reference.
		var wantQSum float64
		for _, x := range q {
			wantQSum += x
		}
		if !close12(qSum, wantQSum) {
			t.Fatalf("Sum n=%d: got %g want %g", n, qSum, wantQSum)
		}
	}
}

// TestSQ8ConstantVector: scale-0 encodes reconstruct exactly.
func TestSQ8ConstantVector(t *testing.T) {
	v := []float64{3.25, 3.25, 3.25, 3.25, 3.25}
	code := make([]int8, len(v))
	scale, offset, codeSum := EncodeSQ8(v, code)
	if scale != 0 || offset != 3.25 || codeSum != 0 {
		t.Fatalf("constant encode: scale %g offset %g sum %d", scale, offset, codeSum)
	}
	dec := make([]float64, len(v))
	DecodeSQ8(dec, code, scale, offset)
	for i, x := range dec {
		if x != 3.25 {
			t.Fatalf("constant decode lane %d: %g", i, x)
		}
	}
}

// TestSQ8ExtremeLanesClamp: codes stay in int8 for adversarial ranges.
func TestSQ8ExtremeLanesClamp(t *testing.T) {
	v := []float64{-1e9, 1e9, 0, 1e-9, -1e-9, 5}
	code := make([]int8, len(v))
	scale, offset, _ := EncodeSQ8(v, code)
	dec := make([]float64, len(v))
	DecodeSQ8(dec, code, scale, offset)
	bound := scale/2 + sq8Slop(scale, offset)
	for i := range v {
		if d := math.Abs(dec[i] - v[i]); d > bound {
			t.Fatalf("extreme lane %d: err %g > %g", i, d, bound)
		}
	}
}

// TestCompressedKernelsZeroAlloc asserts the new kernel families are
// allocation-free, matching the float64 bar.
func TestCompressedKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randVec(rng, 131)
	b := randVec(rng, 131)
	a32, b32 := toF32(a), toF32(b)
	code := make([]int8, 131)
	code2 := make([]int8, 131)
	dec := make([]float64, 131)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += Dot32(a32, b32)
		F64To32(a32, a)
		F32To64(dec, b32)
		sink += Sum(a)
		s, o, cs := EncodeSQ8(a, code)
		s2, o2, cs2 := EncodeSQ8(b, code2)
		DecodeSQ8(dec, code, s, o)
		sink += DotSQ8(b, code, s, o, Sum(b))
		sink += DotSQ8Sym(code, code2, s, o, s2, o2, cs, cs2)
	})
	if allocs != 0 {
		t.Fatalf("compressed kernels allocated %v times per run", allocs)
	}
	_ = sink
}

func TestSQ8LengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotSQ8 with mismatched lengths did not panic")
		}
	}()
	DotSQ8(make([]float64, 3), make([]int8, 4), 1, 0, 0)
}

// sym4Rows is the row-count axis of the Sym4Survivors tests: none, a
// few, and counts around the scan's 256-row block.
var sym4Rows = []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 17, 31, 64, 255, 256, 257, 300}

// sym4Case is one Sym4Survivors call at slice offset off: rows, row
// factors, dots and survivors each sit inside a larger buffer whose
// other elements are guards the kernel must neither read into its sums
// nor write. fill picks every code. After one(off) it is the
// Sym1Survivors call on lane 0 of the same inputs instead.
type sym4Case struct {
	dim                      int
	lanes                    int // 4, or 1 for Sym1Survivors
	g                        Sym4Queries
	q8                       [4][]int8
	rowsBuf                  []int8
	dotsBuf                  []int32
	survBuf                  []uint32
	rows                     []int8
	dots                     []int32
	surv                     []uint32
	rowOff, rowSum, rowScale []float64
}

const (
	sym4DotGuard  = int32(-0x5a5a5a5b)
	sym4SurvGuard = uint32(0xa5a5a5a5)
)

// newSym4Case draws codes from fill and factors and lane terms from rng
// at the scale of real sq8 scores (a score of order one), with floors
// spread so that rows both pass and fail them. Lane 0's floor is row
// 0's exact score, so a score equal to its floor is in every case that
// has a row. With special, a tenth of the factors, terms and floors are
// NaN or ±Inf, and lane 3 is padding: +Inf floor.
func newSym4Case(dim, nRows, off int, fill func() int8, rng *rand.Rand, special bool) *sym4Case {
	c := &sym4Case{
		dim:     dim,
		lanes:   4,
		rowsBuf: make([]int8, off+nRows*dim+5),
		dotsBuf: make([]int32, off+4*nRows+5),
		survBuf: make([]uint32, off+nRows+5),
	}
	for i := range c.rowsBuf {
		c.rowsBuf[i] = 0x7b // a guard lane read into a sum would show
	}
	c.resetOutputs()
	c.rows = c.rowsBuf[off : off+nRows*dim]
	c.dots = c.dotsBuf[off : off+4*nRows]
	c.surv = c.survBuf[off : off+nRows]
	for i := range c.rows {
		c.rows[i] = fill()
	}
	for j := range c.q8 {
		c.q8[j] = make([]int8, dim)
		for i := range c.q8[j] {
			c.q8[j][i] = fill()
		}
		c.g.Set(j, c.q8[j])
	}
	value := func(scale float64) float64 {
		if special && rng.Intn(10) == 0 {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		return rng.NormFloat64() * scale
	}
	dotScale := 1 / (128 * math.Sqrt(float64(dim)) * 64)
	for j := 0; j < 4; j++ {
		c.g.A[j], c.g.B[j], c.g.C[j] = value(1), value(1/float64(dim)), value(1)
		c.g.Floor[j] = value(1)
	}
	c.rowOff, c.rowSum, c.rowScale = make([]float64, nRows), make([]float64, nRows), make([]float64, nRows)
	for r := 0; r < nRows; r++ {
		c.rowOff[r], c.rowSum[r], c.rowScale[r] = value(0.1), value(1), value(dotScale)
	}
	if nRows > 0 {
		c.g.Floor[0] = refSym4Score(c, 0, 0, refCodeDot(c.rows[:dim], c.q8[0]))
	}
	if special {
		c.g.Floor[3] = math.Inf(1)
	}
	return c
}

func refCodeDot(a, b []int8) int32 {
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

// one makes the case a Sym1Survivors call at slice offset off: one dot
// a row, lane 0 only. The rest of the four-lane dots buffer is guard.
func (c *sym4Case) one(off int) *sym4Case {
	c.lanes = 1
	c.dots = c.dotsBuf[off : off+len(c.rowOff)]
	c.resetOutputs()
	return c
}

// refSym4Score is the kernel's score, each product rounded on its own.
func refSym4Score(c *sym4Case, r, j int, dot int32) float64 {
	return float64(c.rowOff[r]*c.g.A[j]) + float64(c.rowSum[r]*c.g.B[j]) + float64(c.rowScale[r]*c.g.C[j]*float64(dot))
}

// resetOutputs puts the guard values back in the output buffers, so a
// case can run through one body after another.
func (c *sym4Case) resetOutputs() {
	for i := range c.dotsBuf {
		c.dotsBuf[i] = sym4DotGuard
	}
	for i := range c.survBuf {
		c.survBuf[i] = sym4SurvGuard
	}
}

// run calls body on the case and checks its dots against code dots
// computed here, its survivors against scores computed here (NaN
// survives, a score equal to its floor survives), and every guard.
func (c *sym4Case) run(t *testing.T, name string, off int, body func(dots []int32, surv []uint32, g *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int) {
	t.Helper()
	nRows, dim := len(c.rowOff), c.dim
	got := body(c.dots, c.surv, &c.g, c.rows, c.rowOff, c.rowSum, c.rowScale)
	var want []uint32
	for r := 0; r < nRows; r++ {
		var mask uint32
		for j := 0; j < c.lanes; j++ {
			dot := refCodeDot(c.rows[r*dim:(r+1)*dim], c.q8[j])
			if c.dots[c.lanes*r+j] != dot {
				t.Fatalf("%s dim=%d rows=%d off=%d: dots[%d][%d] = %d, want %d", name, dim, nRows, off, r, j, c.dots[c.lanes*r+j], dot)
			}
			if score := refSym4Score(c, r, j, dot); !(score < c.g.Floor[j]) {
				mask |= 1 << j
			}
		}
		if mask != 0 {
			want = append(want, uint32(r)<<4|mask)
		}
	}
	if got != len(want) || !slices.Equal(c.surv[:got], want) {
		t.Fatalf("%s dim=%d rows=%d off=%d: survivors %x, want %x", name, dim, nRows, off, c.surv[:min(got, nRows)], want)
	}
	for i, v := range c.rowsBuf {
		if (i < off || i >= off+len(c.rows)) && v != 0x7b {
			t.Fatalf("%s dim=%d off=%d: row guard %d overwritten", name, dim, off, i)
		}
	}
	for i, v := range c.dotsBuf {
		if (i < off || i >= off+len(c.dots)) && v != sym4DotGuard {
			t.Fatalf("%s dim=%d rows=%d off=%d: dots guard %d overwritten (%d)", name, dim, nRows, off, i, v)
		}
	}
	for i, v := range c.survBuf {
		if (i < off || i >= off+len(c.surv)) && v != sym4SurvGuard {
			t.Fatalf("%s dim=%d rows=%d off=%d: survivor guard %d overwritten (%x)", name, dim, nRows, off, i, v)
		}
	}
}

// randomCodes returns a fill drawing uniform int8 codes from an inline
// xorshift, cheaper than math/rand over the ~60M codes the kernel
// cross fills.
func randomCodes(seed uint32) func() int8 {
	return func() int8 {
		seed ^= seed << 13
		seed ^= seed >> 17
		seed ^= seed << 5
		return int8(seed >> 11)
	}
}

// TestSym4SurvivorsMatchesReference: the dispatched kernel's dots and
// survivors are the ones computed here for every dim 1–130 (below and
// above the SIMD threshold, every chunk/tail split of both SIMD
// bodies), over the row counts above, at three slice offsets, on
// random and on extreme codes, with and without non-finite factors.
func TestSym4SurvivorsMatchesReference(t *testing.T) {
	random := randomCodes(47)
	alt := int8(127)
	fills := map[string]func() int8{
		"min":    func() int8 { return -128 },
		"max":    func() int8 { return 127 },
		"minmax": func() int8 { alt = ^alt; return alt }, // ^127 == -128
	}
	rng := rand.New(rand.NewSource(48))
	for dim := 1; dim <= 130; dim++ {
		for _, off := range []int{0, 1, 3} {
			for _, nRows := range sym4Rows {
				newSym4Case(dim, nRows, off, random, rng, nRows%2 == 1).run(t, "random", off, Sym4Survivors)
			}
			for name, fill := range fills {
				newSym4Case(dim, 3, off, fill, rng, false).run(t, name, off, Sym4Survivors)
			}
		}
	}
}

// TestSym1SurvivorsMatchesReference is the same cross for the
// dispatched one-query kernel: every dim 1–130, the row counts above
// (every split into fours and a remainder), three slice offsets.
func TestSym1SurvivorsMatchesReference(t *testing.T) {
	random := randomCodes(61)
	alt := int8(127)
	fills := map[string]func() int8{
		"min":    func() int8 { return -128 },
		"max":    func() int8 { return 127 },
		"minmax": func() int8 { alt = ^alt; return alt },
	}
	rng := rand.New(rand.NewSource(62))
	for dim := 1; dim <= 130; dim++ {
		for _, off := range []int{0, 1, 3} {
			for _, nRows := range sym4Rows {
				newSym4Case(dim, nRows, off, random, rng, nRows%2 == 1).one(off).run(t, "random", off, Sym1Survivors)
			}
			for name, fill := range fills {
				newSym4Case(dim, 5, off, fill, rng, false).one(off).run(t, name, off, Sym1Survivors)
			}
		}
	}
}

func TestSym4SurvivorsShapePanics(t *testing.T) {
	var g Sym4Queries
	g.Set(0, make([]int8, 16))
	f := make([]float64, 2)
	for name, call := range map[string]func(){
		"no queries":  func() { Sym4Survivors(nil, nil, new(Sym4Queries), nil, nil, nil, nil) },
		"ragged rows": func() { Sym4Survivors(make([]int32, 8), make([]uint32, 2), &g, make([]int8, 33), f, f, f) },
		"short dots":  func() { Sym4Survivors(make([]int32, 7), make([]uint32, 2), &g, make([]int8, 32), f, f, f) },
		"long dots":   func() { Sym4Survivors(make([]int32, 9), make([]uint32, 2), &g, make([]int8, 32), f, f, f) },
		"short surv":  func() { Sym4Survivors(make([]int32, 8), make([]uint32, 1), &g, make([]int8, 32), f, f, f) },
		"short sums":  func() { Sym4Survivors(make([]int32, 8), make([]uint32, 2), &g, make([]int8, 32), f, f[:1], f) },
		"short scale": func() { Sym4Survivors(make([]int32, 8), make([]uint32, 2), &g, make([]int8, 32), f, f, f[:1]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sym4Survivors with %s did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestSym1SurvivorsShapePanics(t *testing.T) {
	var g Sym4Queries
	g.Set(0, make([]int8, 16))
	f := make([]float64, 2)
	for name, call := range map[string]func(){
		"no query":    func() { Sym1Survivors(nil, nil, new(Sym4Queries), nil, nil, nil, nil) },
		"ragged rows": func() { Sym1Survivors(make([]int32, 2), make([]uint32, 2), &g, make([]int8, 33), f, f, f) },
		"short dots":  func() { Sym1Survivors(make([]int32, 1), make([]uint32, 2), &g, make([]int8, 32), f, f, f) },
		"four dots":   func() { Sym1Survivors(make([]int32, 8), make([]uint32, 2), &g, make([]int8, 32), f, f, f) },
		"short surv":  func() { Sym1Survivors(make([]int32, 2), make([]uint32, 1), &g, make([]int8, 32), f, f, f) },
		"short sums":  func() { Sym1Survivors(make([]int32, 2), make([]uint32, 2), &g, make([]int8, 32), f, f[:1], f) },
		"short scale": func() { Sym1Survivors(make([]int32, 2), make([]uint32, 2), &g, make([]int8, 32), f, f, f[:1]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sym1Survivors with %s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkSym4Survivors times each kernel body the CPU has on the
// scan's own shape — one 256-row block of 64-lane rows, floors a pool
// in steady state sets (about one row in 16 survives some lane) — and
// reports ns per (row, query) pair.
func BenchmarkSym4Survivors(b *testing.B) {
	const dim, nRows = 64, 256
	c := newSym4Case(dim, nRows, 0, randomCodes(53), rand.New(rand.NewSource(54)), false)
	for j := range c.g.Floor {
		c.g.Floor[j] = 2
	}
	for name, body := range sym4Bodies(dim) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body(c.dots, c.surv, &c.g, c.rows, c.rowOff, c.rowSum, c.rowScale)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(4*nRows), "ns/pair")
		})
	}
}

// BenchmarkSym1Survivors is BenchmarkSym4Survivors for the one-query
// kernel: the same block and floor, ns per row. Set beside
// BenchmarkSym4Survivors' ns/pair ×4, it is what a single query saves
// per row over running padded in four lanes.
func BenchmarkSym1Survivors(b *testing.B) {
	const dim, nRows = 64, 256
	c := newSym4Case(dim, nRows, 0, randomCodes(53), rand.New(rand.NewSource(54)), false).one(0)
	c.g.Floor[0] = 2
	for name, body := range sym1Bodies(dim) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body(c.dots, c.surv, &c.g, c.rows, c.rowOff, c.rowSum, c.rowScale)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nRows, "ns/row")
		})
	}
}
