package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// TestSIMDKernelsMatchScalar is the cross-backend oracle: every
// assembly kernel against its scalar twin, lengths 0–257 so every
// main-block/remainder/tail combination is hit, at three base offsets
// so the loads run both 32-byte-aligned and unaligned (Go only
// guarantees element alignment, the kernels must not care). Each
// family is gated on its own flag, so architectures with partial
// coverage (arm64) still exercise what they have.
func TestSIMDKernelsMatchScalar(t *testing.T) {
	if !simd64 && !simd32 && !simdSQ8 && !simdSym && !simdEnc {
		t.Skip("no SIMD backend active")
	}
	rng := rand.New(rand.NewSource(41))
	relClose := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*(math.Abs(want)+1)
	}
	for n := 0; n <= 257; n++ {
		for _, off := range []int{0, 1, 3} {
			af := make([]float64, off+n)
			bf := make([]float64, off+n)
			a32 := make([]float32, off+n)
			b32 := make([]float32, off+n)
			ac := make([]int8, off+n)
			bc := make([]int8, off+n)
			for i := range af {
				af[i] = rng.NormFloat64()
				bf[i] = rng.NormFloat64()
				a32[i] = float32(rng.NormFloat64())
				b32[i] = float32(rng.NormFloat64())
				ac[i] = int8(rng.Intn(256) - 128)
				bc[i] = int8(rng.Intn(256) - 128)
			}
			a, b := af[off:], bf[off:]
			x, y := a32[off:], b32[off:]
			ca, cb := ac[off:], bc[off:]

			if simd64 {
				if got, want := dotSIMD(a, b), dotScalar(a, b); !relClose(got, want, 1e-12) {
					t.Fatalf("n=%d off=%d dotSIMD=%g scalar=%g", n, off, got, want)
				}
				if got, want := sqDistSIMD(a, b), sqDistScalar(a, b); !relClose(got, want, 1e-12) {
					t.Fatalf("n=%d off=%d sqDistSIMD=%g scalar=%g", n, off, got, want)
				}
			}
			// The block activations against the loop they replace.
			if simd64 && trainAsm {
				got := make([]float64, n)
				sigmoidAVX2(got, a)
				for i, x := range a {
					if want := Sigmoid(x); !activClose(got[i], want) {
						t.Fatalf("n=%d off=%d lane %d sigmoidAVX2(%g)=%g scalar=%g", n, off, i, x, got[i], want)
					}
				}
				tanhAVX2(got, a)
				for i, x := range a {
					if want := math.Tanh(x); !activClose(got[i], want) {
						t.Fatalf("n=%d off=%d lane %d tanhAVX2(%g)=%g scalar=%g", n, off, i, x, got[i], want)
					}
				}
			}
			// f32 kernels accumulate in float32 on both sides; allow the
			// documented ~√n·2⁻²⁴ wiggle via a 1e-4 relative band.
			if simd32 {
				if got, want := dot32SIMD(x, y), dot32Scalar(x, y); !relClose(got, want, 1e-4) {
					t.Fatalf("n=%d off=%d dot32SIMD=%g scalar=%g", n, off, got, want)
				}
			}
			if simdSQ8 {
				if got, want := dotSQ8RawSIMD(a, ca), dotSQ8Scalar(a, ca, 1, 0, 0); !relClose(got, want, 1e-12) {
					t.Fatalf("n=%d off=%d dotSQ8RawSIMD=%g scalar=%g", n, off, got, want)
				}
			}
			// The symmetric code dot is pure integer arithmetic: exact.
			if simdSym {
				var sym int32
				for i := range ca {
					sym += int32(ca[i]) * int32(cb[i])
				}
				if got := dotSQ8SymRawSIMD(ca, cb); got != sym {
					t.Fatalf("n=%d off=%d dotSQ8SymRawSIMD=%d want %d", n, off, got, sym)
				}
			}
			// Min/max is exact too (no arithmetic, only comparisons).
			if simdEnc && n > 0 {
				lo, hi := minMaxSIMD(a)
				wlo, whi := a[0], a[0]
				for _, v := range a[1:] {
					wlo = math.Min(wlo, v)
					whi = math.Max(whi, v)
				}
				if lo != wlo || hi != whi {
					t.Fatalf("n=%d off=%d minMaxSIMD=(%g,%g) want (%g,%g)", n, off, lo, hi, wlo, whi)
				}
			}
		}
	}
}

// sym4Bodies is every Sym4Survivors body this CPU can run at dim, by
// name: the Go reference always; from simdMinLanes up, the AVX2 body
// where the SIMD symmetric backend is active and the VNNI body where
// the CPU probe found it.
func sym4Bodies(dim int) map[string]func(dots []int32, surv []uint32, g *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	bodies := map[string]func(dots []int32, surv []uint32, g *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int{
		"go": sym4SurvivorsGo,
	}
	if dim < simdMinLanes {
		return bodies
	}
	if simdSym {
		bodies["avx2"] = sym4SurvivorsAVX2
	}
	if simdVNNI {
		bodies["vnni"] = sym4SurvivorsVNNI
	}
	return bodies
}

// TestSym4SurvivorsBodies holds every body the CPU has to the same dots
// and survivor lists, each called directly rather than through the
// dispatcher, so a VNNI machine tests its AVX2 body too: the SIMD
// bodies' dims (whole chunks, and tails of 8 and 4 lanes for AVX2 and
// of 16, 24 and 4 for VNNI), row counts up to one scan block, codes at
// both extremes, NaN and ±Inf factors, terms and floors, and a +Inf
// padded lane.
func TestSym4SurvivorsBodies(t *testing.T) {
	for _, name := range []string{"avx2", "vnni"} {
		if sym4Bodies(simdMinLanes)[name] == nil {
			t.Logf("%s body not available on this CPU/backend: not run", name)
		}
	}
	random := randomCodes(59)
	alt := int8(127)
	fills := map[string]func() int8{
		"random": random,
		"min":    func() int8 { return -128 },
		"max":    func() int8 { return 127 },
		"minmax": func() int8 { alt = ^alt; return alt },
	}
	for _, dim := range []int{16, 24, 32, 64, 100, 128} {
		for _, nRows := range []int{0, 1, 7, 256} {
			for fname, fill := range fills {
				for _, special := range []bool{false, true} {
					for name, body := range sym4Bodies(dim) {
						for _, off := range []int{0, 3} {
							// One seed per case, so every body sees the same inputs.
							rng := rand.New(rand.NewSource(int64(dim*1000 + nRows)))
							newSym4Case(dim, nRows, off, fill, rng, special).run(t, name+"/"+fname, off, body)
						}
					}
				}
			}
		}
	}
}

// TestEncodeSQ8CrossBackend: the SIMD encoder rounds nearest-even
// where the scalar encoder rounds half away from zero, so codes may
// differ by one on exact .5 boundaries — but scale/offset/codeSum must
// stay consistent and every lane must hold the reconstruction bound.
func TestEncodeSQ8CrossBackend(t *testing.T) {
	if !simdEnc {
		t.Skip("SIMD encode backend not active")
	}
	rng := rand.New(rand.NewSource(43))
	for n := simdMinLanes; n <= 257; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 3
		}
		simdCode := make([]int8, n)
		sScale, sOffset, sSum := EncodeSQ8(v, simdCode) // SIMD path (len ≥ simdMinLanes)

		scalarCode := make([]int8, n)
		gScale, gOffset, gSum := encodeSQ8ScalarForTest(v, scalarCode)

		if sScale != gScale || sOffset != gOffset {
			t.Fatalf("n=%d scale/offset diverge: simd (%g,%g) scalar (%g,%g)", n, sScale, sOffset, gScale, gOffset)
		}
		var recount int32
		for i := range simdCode {
			d := int(simdCode[i]) - int(scalarCode[i])
			if d < -1 || d > 1 {
				t.Fatalf("n=%d lane %d: simd code %d vs scalar %d (diff > 1)", n, i, simdCode[i], scalarCode[i])
			}
			recount += int32(simdCode[i])
			dec := sOffset + sScale*float64(simdCode[i])
			if math.Abs(dec-v[i]) > sScale/2+1e-9*(math.Abs(sOffset)+256*sScale+1) {
				t.Fatalf("n=%d lane %d: reconstruction %g vs %g exceeds scale/2=%g", n, i, dec, v[i], sScale/2)
			}
		}
		if recount != sSum {
			t.Fatalf("n=%d codeSum %d does not match codes (%d)", n, sSum, recount)
		}
		_ = gSum
	}
}

// encodeSQ8ScalarForTest is EncodeSQ8's scalar body, duplicated here so
// the test can reach it while the dispatch flags route the public entry
// point to SIMD.
func encodeSQ8ScalarForTest(v []float64, code []int8) (scale, offset float64, codeSum int32) {
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	scale = (hi - lo) / 255
	if scale == 0 {
		return 0, lo, 0
	}
	offset = lo + 128*scale
	inv := 1 / scale
	for i, x := range v {
		c := int(math.Round((x-lo)*inv)) - 128
		if c < -128 {
			c = -128
		} else if c > 127 {
			c = 127
		}
		code[i] = int8(c)
		codeSum += int32(c)
	}
	return scale, offset, codeSum
}

// TestDispatchedKernelsZeroAlloc pins the public entry points at zero
// allocations with the SIMD backend active — the go:noescape
// annotations must keep caller slices on the stack. (Runs in every
// configuration; on scalar builds it pins the fallback too.)
func TestDispatchedKernelsZeroAlloc(t *testing.T) {
	a := make([]float64, 128)
	b := make([]float64, 128)
	x := make([]float32, 128)
	y := make([]float32, 128)
	c := make([]int8, 128)
	d := make([]int8, 128)
	act := make([]float64, 128)
	var g Sym4Queries
	for j := 0; j < 4; j++ {
		g.Set(j, d[:32])
	}
	dots, surv, f := make([]int32, 4*4), make([]uint32, 4), make([]float64, 4)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5) - 2
		x[i] = float32(a[i])
		y[i] = float32(b[i])
		c[i] = int8(i%255 - 127)
		d[i] = int8((i*3)%255 - 127)
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += Dot(a, b)
		sink += SqDist(a, b)
		sink += Dot32(x, y)
		sink += DotSQ8(a, c, 0.1, -0.5, 2)
		sink += DotSQ8Sym(c, d, 0.1, -0.5, 0.2, 0.3, 5, -7)
		Sym4Survivors(dots, surv, &g, c, f, f, f)
		_, _, _ = EncodeSQ8(a, c)
		SigmoidInto(act, a)
		TanhInto(act, a)
	})
	if allocs != 0 {
		t.Fatalf("dispatched kernels allocated %v times per run", allocs)
	}
	_ = sink
}
