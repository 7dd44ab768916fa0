package vecmath

import (
	"math"
	"math/rand"
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

// codes4Rows is the row-count axis of the DotSQ8SymCodes4 tests: none,
// a few, and counts around the scan's 256-row block.
var codes4Rows = []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 17, 31, 64, 255, 256, 257, 300}

// codes4Case builds one DotSQ8SymCodes4 call at slice offset off: rows,
// queries and output each sit inside a larger buffer whose other
// elements are guards the kernel must neither read into its sums nor
// write. fill picks every code; the int16 queries mirror int8 codes.
type codes4Case struct {
	dstBuf  []int32
	qwBuf   []int16
	rowsBuf []int8
	dst     []int32
	qw      []int16
	rows    []int8
	q8      [4][]int8
}

const codes4Guard = int32(-0x5a5a5a5b)

func newCodes4Case(dim, nRows, off int, fill func() int8) *codes4Case {
	c := &codes4Case{
		dstBuf:  make([]int32, off+4*nRows+5),
		qwBuf:   make([]int16, off+4*dim+5),
		rowsBuf: make([]int8, off+nRows*dim+5),
	}
	for i := range c.dstBuf {
		c.dstBuf[i] = codes4Guard
	}
	for i := range c.qwBuf {
		c.qwBuf[i] = 0x7b7b // a guard lane read into a sum would show
	}
	for i := range c.rowsBuf {
		c.rowsBuf[i] = 0x7b
	}
	c.dst = c.dstBuf[off : off+4*nRows]
	c.qw = c.qwBuf[off : off+4*dim]
	c.rows = c.rowsBuf[off : off+nRows*dim]
	for i := range c.rows {
		c.rows[i] = fill()
	}
	for j := range c.q8 {
		c.q8[j] = make([]int8, dim)
		for i := range c.q8[j] {
			c.q8[j][i] = fill()
			c.qw[j*dim+i] = int16(c.q8[j][i])
		}
	}
	return c
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

// check asserts the output equals four DotSQ8SymCodes calls per row and
// that no guard element moved.
func (c *codes4Case) check(t *testing.T, name string, dim, off int) {
	t.Helper()
	for r := 0; r < len(c.dst)/4; r++ {
		row := c.rows[r*dim : (r+1)*dim]
		for j := range c.q8 {
			if got, want := c.dst[4*r+j], DotSQ8SymCodes(c.q8[j], row); got != want {
				t.Fatalf("%s dim=%d rows=%d off=%d: dst[%d][%d] = %d, DotSQ8SymCodes = %d",
					name, dim, len(c.dst)/4, off, r, j, got, want)
			}
		}
	}
	for i, v := range c.dstBuf {
		if (i < off || i >= off+len(c.dst)) && v != codes4Guard {
			t.Fatalf("%s dim=%d rows=%d off=%d: output guard %d overwritten (%d)", name, dim, len(c.dst)/4, off, i, v)
		}
	}
	for i, v := range c.qwBuf {
		if (i < off || i >= off+len(c.qw)) && v != 0x7b7b {
			t.Fatalf("%s dim=%d off=%d: query guard %d overwritten", name, dim, off, i)
		}
	}
	for i, v := range c.rowsBuf {
		if (i < off || i >= off+len(c.rows)) && v != 0x7b {
			t.Fatalf("%s dim=%d off=%d: row guard %d overwritten", name, dim, off, i)
		}
	}
}

// TestDotSQ8SymCodes4MatchesSingle: the four-query kernel is bit-equal
// to four single-query calls per row for every dim 1–130 (below and
// above the SIMD threshold, every chunk/tail split), over the row
// counts above, at three slice offsets, on random and on extreme codes.
func TestDotSQ8SymCodes4MatchesSingle(t *testing.T) {
	random := randomCodes(47)
	alt := int8(127)
	fills := map[string]func() int8{
		"min":    func() int8 { return -128 },
		"max":    func() int8 { return 127 },
		"minmax": func() int8 { alt = ^alt; return alt }, // ^127 == -128
	}
	for dim := 1; dim <= 130; dim++ {
		for _, off := range []int{0, 1, 3} {
			for _, nRows := range codes4Rows {
				c := newCodes4Case(dim, nRows, off, random)
				DotSQ8SymCodes4(c.dst, c.qw, c.rows, dim)
				c.check(t, "random", dim, off)
			}
			for name, fill := range fills {
				c := newCodes4Case(dim, 3, off, fill)
				DotSQ8SymCodes4(c.dst, c.qw, c.rows, dim)
				c.check(t, name, dim, off)
			}
		}
	}
}

func TestDotSQ8SymCodes4ShapePanics(t *testing.T) {
	for name, call := range map[string]func(){
		"zero dim":    func() { DotSQ8SymCodes4(nil, nil, nil, 0) },
		"short query": func() { DotSQ8SymCodes4(make([]int32, 4), make([]int16, 63), make([]int8, 16), 16) },
		"ragged rows": func() { DotSQ8SymCodes4(make([]int32, 4), make([]int16, 64), make([]int8, 17), 16) },
		"short dst":   func() { DotSQ8SymCodes4(make([]int32, 7), make([]int16, 64), make([]int8, 32), 16) },
		"long dst":    func() { DotSQ8SymCodes4(make([]int32, 9), make([]int16, 64), make([]int8, 32), 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DotSQ8SymCodes4 with %s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkDotSQ8SymCodes4 times the kernel on the scan's own shape —
// one 256-row block of 64-lane rows — and reports ns per (row, query)
// pair, the unit a DotSQ8SymCodes call (bench's vecmath.dot_sq8sym_ns)
// is measured in.
func BenchmarkDotSQ8SymCodes4(b *testing.B) {
	const dim, nRows = 64, 256
	c := newCodes4Case(dim, nRows, 0, randomCodes(53))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotSQ8SymCodes4(c.dst, c.qw, c.rows, dim)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(4*nRows), "ns/pair")
}
