// Package vecmath is the single home of the repo's float64 vector
// kernels. Every hot loop — hogwild SGNS updates (internal/skipgram,
// internal/baselines/line), the EHNA trainer's dense math
// (internal/tensor, internal/ag, internal/nn), exact and HNSW
// similarity scans (internal/ann, internal/embstore) and the Table II
// edge operators (internal/eval) — routes through this package instead
// of hand-rolling its own scalar loop.
//
// All kernels are allocation-free and 4-way unrolled with independent
// accumulators, which buys instruction-level parallelism the naive
// single-accumulator loop cannot express (float64 adds must otherwise
// serialize to preserve evaluation order). Unrolling changes the
// floating-point summation order relative to a naive loop; results
// agree with the scalar reference to ~1e-12 relative error (asserted
// exhaustively for lengths 0–257 in vecmath_test.go and fuzzed in
// fuzz_test.go).
//
// Length mismatches are programmer errors and panic, mirroring
// internal/tensor and slice indexing.
//
// Fused kernels (SgnsUpdate, AdamStep, Score*) fold what used
// to be two or three passes over the operands into one, halving memory
// traffic on the training hot paths.
package vecmath

import "math"

// Dot returns the inner product Σ a[i]·b[i].
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	if simd64 && len(a) >= simdMinLanes {
		return dotSIMD(a, b)
	}
	return dotScalar(a, b)
}

func dotScalar(a, b []float64) float64 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes dst += alpha·x (the BLAS axpy primitive).
func Axpy(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic("vecmath: Axpy length mismatch")
	}
	x = x[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += alpha * x[i]
		dst[i+1] += alpha * x[i+1]
		dst[i+2] += alpha * x[i+2]
		dst[i+3] += alpha * x[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += alpha * x[i]
	}
}

// Add computes dst += x.
func Add(dst, x []float64) {
	if len(dst) != len(x) {
		panic("vecmath: Add length mismatch")
	}
	x = x[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += x[i]
		dst[i+1] += x[i+1]
		dst[i+2] += x[i+2]
		dst[i+3] += x[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += x[i]
	}
}

// ScaleInPlace computes v *= s element-wise.
func ScaleInPlace(v []float64, s float64) {
	n := len(v) &^ 3
	for i := 0; i < n; i += 4 {
		v[i] *= s
		v[i+1] *= s
		v[i+2] *= s
		v[i+3] *= s
	}
	for i := n; i < len(v); i++ {
		v[i] *= s
	}
}

// Zero sets every element of v to zero.
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// SquaredL2 returns Σ v[i]².
func SquaredL2(v []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(v) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += v[i] * v[i]
		s1 += v[i+1] * v[i+1]
		s2 += v[i+2] * v[i+2]
		s3 += v[i+3] * v[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for i := n; i < len(v); i++ {
		s += v[i] * v[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖₂.
func Norm(v []float64) float64 { return math.Sqrt(SquaredL2(v)) }

// SqDist returns the squared Euclidean distance ‖a−b‖².
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: SqDist length mismatch")
	}
	if simd64 && len(a) >= simdMinLanes {
		return sqDistSIMD(a, b)
	}
	return sqDistScalar(a, b)
}

func sqDistScalar(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s2) + (s1 + s3)
	for i := n; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Sigmoid is the numerically stable logistic function.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// SgnsUpdate is the fused skip-gram-with-negative-sampling update for
// one (input, context) pair with the given label (1 = positive,
// 0 = negative):
//
//	score = σ(v·ctx); g = lr·(label − score)
//	grad += g·ctx     (input-vector gradient, applied by the caller
//	ctx  += g·v        after all of the pair's negatives)
//
// The dot product, both axpys and the sigmoid run in a single pass,
// replacing the three separate loops of the naive implementation.
// v, ctx and grad must be distinct slices (no aliasing) of equal
// length. Returns the pre-update score σ(v·ctx).
func SgnsUpdate(v, ctx, grad []float64, label, lr float64) float64 {
	if len(v) != len(ctx) || len(v) != len(grad) {
		panic("vecmath: SgnsUpdate length mismatch")
	}
	score := Sigmoid(Dot(v, ctx))
	g := lr * (label - score)
	ctx = ctx[:len(v)]
	grad = grad[:len(v)]
	n := len(v) &^ 3
	for i := 0; i < n; i += 4 {
		c0, c1, c2, c3 := ctx[i], ctx[i+1], ctx[i+2], ctx[i+3]
		grad[i] += g * c0
		grad[i+1] += g * c1
		grad[i+2] += g * c2
		grad[i+3] += g * c3
		ctx[i] = c0 + g*v[i]
		ctx[i+1] = c1 + g*v[i+1]
		ctx[i+2] = c2 + g*v[i+2]
		ctx[i+3] = c3 + g*v[i+3]
	}
	for i := n; i < len(v); i++ {
		c := ctx[i]
		grad[i] += g * c
		ctx[i] = c + g*v[i]
	}
	return score
}

// AdamStep applies one Adam update (Kingma & Ba) over the parameter w
// with first/second moment buffers m and v, gradient g and the
// bias-correction denominators c1 = 1−β1ᵗ, c2 = 1−β2ᵗ. All four
// slices must have equal length; the moment update and the parameter
// step run in one fused pass.
func AdamStep(w, m, v, g []float64, lr, beta1, beta2, eps, c1, c2 float64) {
	if len(w) != len(m) || len(w) != len(v) || len(w) != len(g) {
		panic("vecmath: AdamStep length mismatch")
	}
	m = m[:len(w)]
	v = v[:len(w)]
	g = g[:len(w)]
	for i, gi := range g {
		mi := beta1*m[i] + (1-beta1)*gi
		vi := beta2*v[i] + (1-beta2)*gi*gi
		m[i] = mi
		v[i] = vi
		w[i] -= lr * (mi / c1) / (math.Sqrt(vi/c2) + eps)
	}
}

// ScoreMean writes the element-wise mean (ex+ey)/2 into dst — the
// Mean edge operator of the paper's Table II.
func ScoreMean(dst, ex, ey []float64) {
	checkScore(dst, ex, ey)
	ey = ey[:len(dst)]
	ex = ex[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = (ex[i] + ey[i]) * 0.5
		dst[i+1] = (ex[i+1] + ey[i+1]) * 0.5
		dst[i+2] = (ex[i+2] + ey[i+2]) * 0.5
		dst[i+3] = (ex[i+3] + ey[i+3]) * 0.5
	}
	for i := n; i < len(dst); i++ {
		dst[i] = (ex[i] + ey[i]) * 0.5
	}
}

// ScoreHadamard writes the element-wise product ex⊙ey into dst — the
// Hadamard edge operator of Table II.
func ScoreHadamard(dst, ex, ey []float64) {
	checkScore(dst, ex, ey)
	ey = ey[:len(dst)]
	ex = ex[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = ex[i] * ey[i]
		dst[i+1] = ex[i+1] * ey[i+1]
		dst[i+2] = ex[i+2] * ey[i+2]
		dst[i+3] = ex[i+3] * ey[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] = ex[i] * ey[i]
	}
}

// ScoreL1 writes the element-wise absolute difference |ex−ey| into dst
// — the Weighted-L1 edge operator of Table II.
func ScoreL1(dst, ex, ey []float64) {
	checkScore(dst, ex, ey)
	ey = ey[:len(dst)]
	ex = ex[:len(dst)]
	for i := range dst {
		dst[i] = math.Abs(ex[i] - ey[i])
	}
}

// ScoreL2 writes the element-wise squared difference (ex−ey)² into dst
// — the Weighted-L2 edge operator of Table II.
func ScoreL2(dst, ex, ey []float64) {
	checkScore(dst, ex, ey)
	ey = ey[:len(dst)]
	ex = ex[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		d0 := ex[i] - ey[i]
		d1 := ex[i+1] - ey[i+1]
		d2 := ex[i+2] - ey[i+2]
		d3 := ex[i+3] - ey[i+3]
		dst[i] = d0 * d0
		dst[i+1] = d1 * d1
		dst[i+2] = d2 * d2
		dst[i+3] = d3 * d3
	}
	for i := n; i < len(dst); i++ {
		d := ex[i] - ey[i]
		dst[i] = d * d
	}
}

func checkScore(dst, ex, ey []float64) {
	if len(dst) != len(ex) || len(ex) != len(ey) {
		panic("vecmath: score operator length mismatch")
	}
}
