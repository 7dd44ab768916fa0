package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// refDot is the naive scalar reference all kernels are checked against.
func refDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func refSquaredL2(v []float64) float64 { return refDot(v, v) }

func refSqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// close12 reports whether got matches want within 1e-12 relative error
// (absolute near zero). Unrolled kernels reassociate float64 sums, so
// exact equality is not expected.
func close12(got, want float64) bool {
	diff := math.Abs(got - want)
	scale := math.Max(math.Abs(got), math.Abs(want))
	if scale < 1 {
		return diff <= 1e-12
	}
	return diff <= 1e-12*scale
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestKernelsMatchReference exercises every kernel against its scalar
// reference across lengths 0–257, covering all unroll remainders (the
// ISSUE's acceptance range).
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 257; n++ {
		a := randVec(rng, n)
		b := randVec(rng, n)

		if got, want := Dot(a, b), refDot(a, b); !close12(got, want) {
			t.Fatalf("Dot n=%d: got %g want %g", n, got, want)
		}
		if got, want := SquaredL2(a), refSquaredL2(a); !close12(got, want) {
			t.Fatalf("SquaredL2 n=%d: got %g want %g", n, got, want)
		}
		if got, want := Norm(a), math.Sqrt(refSquaredL2(a)); !close12(got, want) {
			t.Fatalf("Norm n=%d: got %g want %g", n, got, want)
		}
		if got, want := SqDist(a, b), refSqDist(a, b); !close12(got, want) {
			t.Fatalf("SqDist n=%d: got %g want %g", n, got, want)
		}

		// Axpy vs reference.
		alpha := rng.NormFloat64()
		dst := append([]float64(nil), a...)
		want := append([]float64(nil), a...)
		Axpy(dst, alpha, b)
		for i := range want {
			want[i] += alpha * b[i]
		}
		assertVecClose(t, "Axpy", n, dst, want)

		// Add.
		dst = append([]float64(nil), a...)
		want = append([]float64(nil), a...)
		Add(dst, b)
		for i := range want {
			want[i] += b[i]
		}
		assertVecClose(t, "Add", n, dst, want)

		// ScaleInPlace.
		dst = append([]float64(nil), a...)
		want = append([]float64(nil), a...)
		ScaleInPlace(dst, alpha)
		for i := range want {
			want[i] *= alpha
		}
		assertVecClose(t, "ScaleInPlace", n, dst, want)

		// Zero.
		dst = append([]float64(nil), a...)
		Zero(dst)
		for i, v := range dst {
			if v != 0 {
				t.Fatalf("Zero n=%d: dst[%d] = %g", n, i, v)
			}
		}

		// Score operators.
		if n > 0 {
			got := make([]float64, n)
			want := make([]float64, n)
			ScoreMean(got, a, b)
			for i := range want {
				want[i] = (a[i] + b[i]) / 2
			}
			assertVecClose(t, "ScoreMean", n, got, want)

			ScoreHadamard(got, a, b)
			for i := range want {
				want[i] = a[i] * b[i]
			}
			assertVecClose(t, "ScoreHadamard", n, got, want)

			ScoreL1(got, a, b)
			for i := range want {
				want[i] = math.Abs(a[i] - b[i])
			}
			assertVecClose(t, "ScoreL1", n, got, want)

			ScoreL2(got, a, b)
			for i := range want {
				d := a[i] - b[i]
				want[i] = d * d
			}
			assertVecClose(t, "ScoreL2", n, got, want)
		}
	}
}

func assertVecClose(t *testing.T, name string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if !close12(got[i], want[i]) {
			t.Fatalf("%s n=%d: [%d] got %g want %g", name, n, i, got[i], want[i])
		}
	}
}

// TestSgnsUpdateMatchesReference checks the fused SGNS kernel against
// the three-pass scalar implementation it replaced (skipgram.updateOne
// pre-refactor) across lengths 0–257.
func TestSgnsUpdateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 257; n++ {
		v := randVec(rng, n)
		ctx := randVec(rng, n)
		grad := randVec(rng, n)
		label := float64(rng.Intn(2))
		lr := 0.025

		wantScore := Sigmoid(refDot(v, ctx))
		g := lr * (label - wantScore)
		wantGrad := append([]float64(nil), grad...)
		wantCtx := append([]float64(nil), ctx...)
		for i := range wantCtx {
			wantGrad[i] += g * wantCtx[i]
			wantCtx[i] += g * v[i]
		}

		gotScore := SgnsUpdate(v, ctx, grad, label, lr)
		if !close12(gotScore, wantScore) {
			t.Fatalf("SgnsUpdate n=%d score: got %g want %g", n, gotScore, wantScore)
		}
		assertVecClose(t, "SgnsUpdate grad", n, grad, wantGrad)
		assertVecClose(t, "SgnsUpdate ctx", n, ctx, wantCtx)
	}
}

// TestOptimizerStepsMatchReference checks the fused Adam kernel against
// its unfused reference.
func TestOptimizerStepsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 4, 7, 32, 129, 257} {
		g := randVec(rng, n)
		w := randVec(rng, n)
		m := randVec(rng, n)
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Abs(rng.NormFloat64())
		}
		const lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
		c1, c2 := 1-math.Pow(beta1, 3), 1-math.Pow(beta2, 3)
		wantW := append([]float64(nil), w...)
		wantM := append([]float64(nil), m...)
		wantV := append([]float64(nil), v...)
		for i := range wantW {
			wantM[i] = beta1*wantM[i] + (1-beta1)*g[i]
			wantV[i] = beta2*wantV[i] + (1-beta2)*g[i]*g[i]
			wantW[i] -= lr * (wantM[i] / c1) / (math.Sqrt(wantV[i]/c2) + eps)
		}
		AdamStep(w, m, v, g, lr, beta1, beta2, eps, c1, c2)
		assertVecClose(t, "AdamStep w", n, w, wantW)
		assertVecClose(t, "AdamStep m", n, m, wantM)
		assertVecClose(t, "AdamStep v", n, v, wantV)
	}
}

func TestSigmoidStable(t *testing.T) {
	for _, x := range []float64{-1000, -10, 0, 10, 1000} {
		s := Sigmoid(x)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("Sigmoid(%g) = %g", x, s)
		}
	}
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %g", got)
	}
}

// TestKernelsZeroAlloc asserts that every kernel is allocation-free.
func TestKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randVec(rng, 131)
	b := randVec(rng, 131)
	dst := make([]float64, 131)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += Dot(a, b)
		sink += SquaredL2(a)
		sink += Norm(b)
		sink += SqDist(a, b)
		Axpy(dst, 0.5, a)
		Add(dst, b)
		ScaleInPlace(dst, 0.99)
		ScoreMean(dst, a, b)
		ScoreHadamard(dst, a, b)
		ScoreL1(dst, a, b)
		ScoreL2(dst, a, b)
		sink += SgnsUpdate(a, dst, b, 1, 0.01)
	})
	if allocs != 0 {
		t.Fatalf("kernels allocated %v times per run", allocs)
	}
	_ = sink
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot(make([]float64, 3), make([]float64, 4))
}
