package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The block activations are checked against the float64 functions of
// the math package rounded to float32, which is what the fallback loop
// computes: on a scalar build every comparison below is exact, on the
// AVX2 backend it bounds the kernels' error.
var activations = []struct {
	name string
	into func(dst, src []float32)
	ref  func(float64) float64
	lo   float32 // the function's range
}{
	{"SigmoidInto32", SigmoidInto32, Sigmoid, 0},
	{"TanhInto32", TanhInto32, math.Tanh, -1},
}

// activULP is the kernels' contract: error against the correctly
// rounded float32 value, in units of its last place (the AVX2 bodies
// measure 2.0 at worst). Where the true value is below float32's
// smallest normal the kernels may flush it to zero instead (an
// absolute error below minNormal32).
const (
	activULP    = 3
	minNormal32 = 0x1p-126
)

// ulps32 returns |got − want| in units of want's last place.
func ulps32(got, want float32) float64 {
	if got == want {
		return 0
	}
	a := math.Abs(float64(want))
	step := float64(math.Nextafter32(float32(a), float32(math.Inf(1)))) - a
	return math.Abs(float64(got)-float64(want)) / step
}

func activClose(got, want float32) bool {
	return ulps32(got, want) <= activULP ||
		(math.Abs(float64(want)) < minNormal32 && math.Abs(float64(got)-float64(want)) < minNormal32)
}

// activRef is the correctly rounded float32 value of f at x.
func activRef(f func(float64) float64, x float32) float32 { return float32(f(float64(x))) }

// TestActivationAccuracy sweeps [−100, 100] — past where both functions
// saturate in float32 and past the clamp at −88 — on a grid of 2⁻¹⁰, on
// a finer grid around zero where tanh(x) ≈ x must keep its relative
// accuracy, down through the subnormals, and over 1e5 random draws,
// and logs the worst disagreement in ulp.
func TestActivationAccuracy(t *testing.T) {
	var src []float32
	for i := -100 << 10; i <= 100<<10; i++ {
		src = append(src, float32(i)/1024)
	}
	for e := -149; e <= -10; e++ {
		for _, m := range []float64{1, 1.3, 1.7} {
			if v := float32(math.Ldexp(m, e)); v != 0 {
				src = append(src, v, -v)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		switch i % 3 {
		case 0:
			src = append(src, float32(rng.NormFloat64()))
		case 1:
			src = append(src, float32(200*rng.Float64()-100))
		default:
			src = append(src, float32(2*rng.Float64()-1)) // tanh's small-argument range
		}
	}
	dst := make([]float32, len(src))
	for _, a := range activations {
		a.into(dst, src)
		var worst float64
		var at float32
		for i, x := range src {
			want := activRef(a.ref, x)
			if !activClose(dst[i], want) {
				t.Fatalf("%s(%v) = %v, float64 math rounds to %v (%.1f ulp)", a.name, x, dst[i], want, ulps32(dst[i], want))
			}
			if u := ulps32(dst[i], want); u > worst && math.Abs(float64(want)) >= minNormal32 {
				worst, at = u, x
			}
		}
		t.Logf("%s on %s: worst %.1f ulp at x = %v over %d points", a.name, Backend(), worst, at, len(src))
	}
}

// TestActivationSpecialValues: signed zeros, infinities, NaN, the
// largest and the smallest magnitudes, subnormals, and the arguments
// around the clamp (±88) and far past it (±700). Results never leave
// the function's range, and tanh keeps the sign of a zero.
func TestActivationSpecialValues(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	src := []float32{
		0, negZero, inf, -inf, nan,
		1e38, -1e38, math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40, minNormal32, -minNormal32,
		30, -30, 87, -87, 87.5, -87.5, 88, -88, 88.5, -88.5, 89, -89, 104, -104,
		700, -700, 9, -9, 10, -10, 0.625, -0.625, 0.5 * math.Ln2, -0.5 * math.Ln2,
	}
	dst := make([]float32, len(src))
	for _, a := range activations {
		a.into(dst, src)
		for i, x := range src {
			got, want := dst[i], activRef(a.ref, x)
			switch {
			case x != x:
				if got == got {
					t.Errorf("%s(NaN) = %v", a.name, got)
				}
				continue
			case !(got >= a.lo && got <= 1):
				t.Errorf("%s(%v) = %v outside [%v, 1]", a.name, x, got, a.lo)
			case math.Signbit(float64(got)) != math.Signbit(float64(want)):
				t.Errorf("%s(%v) = %v, want the sign of %v", a.name, x, got, want)
			}
			if !activClose(got, want) {
				t.Errorf("%s(%v) = %v, float64 math rounds to %v", a.name, x, got, want)
			}
		}
	}
	one := []float32{inf, -inf, 0, negZero}
	got := make([]float32, len(one))
	SigmoidInto32(got, one)
	if got[0] != 1 || got[1] != 0 || got[2] != 0.5 || got[3] != 0.5 {
		t.Errorf("SigmoidInto32(±Inf, ±0) = %v", got)
	}
	TanhInto32(got, one)
	if got[0] != 1 || got[1] != -1 || got[2] != 0 || got[3] != 0 || !math.Signbit(float64(got[3])) {
		t.Errorf("TanhInto32(±Inf, ±0) = %v", got)
	}
}

// TestActivationLengthsAndAliasing runs every length 0–67 at three
// starting offsets, so the eight-lane loop and the masked tail are hit
// at aligned and unaligned addresses: in place and into a disjoint
// destination give the same bits, every element agrees with math, and
// the elements on either side of the block are not touched.
func TestActivationLengthsAndAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const guard = -777.0
	for _, a := range activations {
		for n := 0; n <= 67; n++ {
			for _, off := range []int{0, 1, 3} {
				buf := make([]float32, off+n+9)
				out := make([]float32, off+n+9)
				for i := range buf {
					buf[i], out[i] = guard, guard
				}
				src := buf[off : off+n]
				for i := range src {
					src[i] = float32(6 * rng.NormFloat64())
				}
				in := append([]float32(nil), src...)
				a.into(out[off:off+n], src)
				a.into(src, src)
				for i := range in {
					if src[i] != out[off+i] {
						t.Fatalf("%s n=%d off=%d lane %d: in place %v, disjoint %v", a.name, n, off, i, src[i], out[off+i])
					}
					if want := activRef(a.ref, in[i]); !activClose(src[i], want) {
						t.Fatalf("%s n=%d off=%d lane %d: %v(%v) = %v, math says %v", a.name, n, off, i, a.name, in[i], src[i], want)
					}
				}
				for i := range buf {
					if (i < off || i >= off+n) && (buf[i] != guard || out[i] != guard) {
						t.Fatalf("%s n=%d off=%d wrote outside the block at %d", a.name, n, off, i)
					}
				}
			}
		}
	}
}

func TestActivationLengthMismatchPanics(t *testing.T) {
	for _, a := range activations {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short dst: expected panic", a.name)
				}
			}()
			a.into(make([]float32, 3), make([]float32, 4))
		}()
	}
}

// BenchmarkSigmoidInto32 and BenchmarkTanhInto32 time the kernels at
// the LSTM's row (the packed [i|f|o] block of a 32-wide layer) and at a
// block long enough to amortize the call.
func BenchmarkSigmoidInto32(b *testing.B) { benchActivation(b, SigmoidInto32) }
func BenchmarkTanhInto32(b *testing.B)    { benchActivation(b, TanhInto32) }

func benchActivation(b *testing.B, into func(dst, src []float32)) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{96, 4096} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(2 * rng.NormFloat64()) // pre-activations of a trained gate: a few units wide
		}
		dst := make([]float32, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				into(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}
