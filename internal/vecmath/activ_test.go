package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The block activations are checked against the math package, which is
// what the fallback loop calls: on a scalar build every comparison
// below is exact, on the AVX2 backend it bounds the kernels' error.
var activations = []struct {
	name string
	into func(dst, src []float64)
	ref  func(float64) float64
	lo   float64 // the function's range
}{
	{"SigmoidInto", SigmoidInto, Sigmoid, 0},
	{"TanhInto", TanhInto, math.Tanh, -1},
}

// activTol is the kernels' contract: relative error against the math
// package, 4.5 ulp at worst.
const activTol = 1e-15

func activClose(got, want float64) bool {
	return got == want || math.Abs(got-want) <= activTol*math.Abs(want)
}

// ulps returns |got − want| in units of want's last place.
func ulps(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / (math.Nextafter(math.Abs(want), math.Inf(1)) - math.Abs(want))
}

// TestActivationAccuracy sweeps [−40, 40] — past where both functions
// saturate in float64 — on a grid of 2⁻¹⁰, on a finer grid around zero
// where tanh(x) ≈ x must keep its relative accuracy, and over 1e5
// random draws, and logs the worst disagreement with math.
func TestActivationAccuracy(t *testing.T) {
	var src []float64
	for i := -40 << 10; i <= 40<<10; i++ {
		src = append(src, float64(i)/1024)
	}
	for e := -60; e <= -10; e++ {
		for _, m := range []float64{1, 1.3, 1.7} {
			src = append(src, math.Ldexp(m, e), -math.Ldexp(m, e))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		switch i % 3 {
		case 0:
			src = append(src, rng.NormFloat64())
		case 1:
			src = append(src, 80*rng.Float64()-40)
		default:
			src = append(src, 2*rng.Float64()-1) // tanh's small-argument range
		}
	}
	dst := make([]float64, len(src))
	for _, a := range activations {
		a.into(dst, src)
		var worst, at float64
		for i, x := range src {
			want := a.ref(x)
			if !activClose(dst[i], want) {
				t.Fatalf("%s(%v) = %v, math says %v (%.1f ulp)", a.name, x, dst[i], want, ulps(dst[i], want))
			}
			if u := ulps(dst[i], want); u > worst {
				worst, at = u, x
			}
		}
		t.Logf("%s on %s: worst %.1f ulp from math at x = %v over %d points", a.name, Backend(), worst, at, len(src))
	}
}

// TestActivationSpecialValues: signed zeros, infinities, NaN, the
// largest and the smallest magnitudes. Results never leave the
// function's range, and tanh keeps the sign of a zero.
func TestActivationSpecialValues(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	src := []float64{
		0, negZero, inf, -inf, nan,
		1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
		5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
		30, -30, 700, -700, 709, -709, 710, -710, 745, -745, 746, -746,
		19, -19, 20, -20, 0.625, -0.625, 0.5 * math.Ln2, -0.5 * math.Ln2,
	}
	dst := make([]float64, len(src))
	for _, a := range activations {
		a.into(dst, src)
		for i, x := range src {
			got, want := dst[i], a.ref(x)
			switch {
			case math.IsNaN(x):
				if !math.IsNaN(got) {
					t.Errorf("%s(NaN) = %v", a.name, got)
				}
				continue
			case !(got >= a.lo && got <= 1):
				t.Errorf("%s(%v) = %v outside [%v, 1]", a.name, x, got, a.lo)
			case math.Signbit(got) != math.Signbit(want):
				t.Errorf("%s(%v) = %v, want the sign of %v", a.name, x, got, want)
			}
			// Where σ(x) is denormal (x < −708.4) the kernel may flush
			// it to zero: an absolute error below 2.3e-308.
			if !activClose(got, want) && math.Abs(got-want) > 2.3e-308 {
				t.Errorf("%s(%v) = %v, math says %v", a.name, x, got, want)
			}
		}
	}
	one := []float64{inf, -inf, 0, negZero}
	got := make([]float64, len(one))
	SigmoidInto(got, one)
	if got[0] != 1 || got[1] != 0 || got[2] != 0.5 || got[3] != 0.5 {
		t.Errorf("SigmoidInto(±Inf, ±0) = %v", got)
	}
	TanhInto(got, one)
	if got[0] != 1 || got[1] != -1 || got[2] != 0 || got[3] != 0 || !math.Signbit(got[3]) {
		t.Errorf("TanhInto(±Inf, ±0) = %v", got)
	}
}

// TestActivationLengthsAndAliasing runs every length 0–67 at three
// starting offsets, so the four-lane loop and the masked tail are hit
// at aligned and unaligned addresses: in place and into a disjoint
// destination give the same bits, every element agrees with math, and
// the elements on either side of the block are not touched.
func TestActivationLengthsAndAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const guard = -777.0
	for _, a := range activations {
		for n := 0; n <= 67; n++ {
			for _, off := range []int{0, 1, 3} {
				buf := make([]float64, off+n+5)
				out := make([]float64, off+n+5)
				for i := range buf {
					buf[i], out[i] = guard, guard
				}
				src := buf[off : off+n]
				for i := range src {
					src[i] = 6 * rng.NormFloat64()
				}
				in := append([]float64(nil), src...)
				a.into(out[off:off+n], src)
				a.into(src, src)
				for i := range in {
					if src[i] != out[off+i] {
						t.Fatalf("%s n=%d off=%d lane %d: in place %v, disjoint %v", a.name, n, off, i, src[i], out[off+i])
					}
					if want := a.ref(in[i]); !activClose(src[i], want) {
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
			a.into(make([]float64, 3), make([]float64, 4))
		}()
	}
}

// BenchmarkSigmoidInto and BenchmarkTanhInto time the kernels at the
// LSTM's row (the packed [i|f|o] block of a 32-wide layer) and at a
// block long enough to amortize the call.
func BenchmarkSigmoidInto(b *testing.B) { benchActivation(b, SigmoidInto) }
func BenchmarkTanhInto(b *testing.B)    { benchActivation(b, TanhInto) }

func benchActivation(b *testing.B, into func(dst, src []float64)) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{96, 4096} {
		src := randSlice(rng, n)
		for i := range src {
			src[i] *= 2 // pre-activations of a trained gate: a few units wide
		}
		dst := make([]float64, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				into(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		})
	}
}
