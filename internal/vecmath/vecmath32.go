// Float32 kernel family: the half-width lane of the compressed vector
// plane. An embstore at Precision F32 keeps its slabs as []float32, so
// every distance computation moves 4 bytes per lane instead of 8 — at
// serving scale the scans are memory-bandwidth-bound, and halving the
// bytes moved is close to halving the scan time once the store
// outgrows cache.
//
// The kernels mirror their float64 siblings: allocation-free, 4-way
// unrolled with independent accumulators, panicking on length
// mismatch. Accumulation runs in float32 (the unrolled accumulators
// keep the error ~√(n)·2⁻²⁴ relative, asserted against the float64
// references in vecmath_test.go); results are returned widened to
// float64 so callers mix precisions without sprinkling conversions.
package vecmath

// Dot32 returns the inner product Σ a[i]·b[i] over float32 lanes.
func Dot32(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot32 length mismatch")
	}
	if simd32 && len(a) >= simdMinLanes {
		return dot32SIMD(a, b)
	}
	return dot32Scalar(a, b)
}

func dot32Scalar(a, b []float32) float64 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float32
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
	return float64(s)
}

// F64To32 narrows src into dst lane by lane — the conversion kernel a
// query takes once so the per-candidate loop can stay all-float32.
// Lengths must match.
func F64To32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic("vecmath: F64To32 length mismatch")
	}
	src = src[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = float32(src[i])
		dst[i+1] = float32(src[i+1])
		dst[i+2] = float32(src[i+2])
		dst[i+3] = float32(src[i+3])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = float32(src[i])
	}
}

// F32To64 widens src into dst lane by lane (exact — every float32 is
// representable as a float64). Lengths must match.
func F32To64(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic("vecmath: F32To64 length mismatch")
	}
	src = src[:len(dst)]
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] = float64(src[i])
		dst[i+1] = float64(src[i+1])
		dst[i+2] = float64(src[i+2])
		dst[i+3] = float64(src[i+3])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = float64(src[i])
	}
}

// Sum returns Σ v[i]. Queries against SQ8 stores compute their lane
// sum once and thread it through DotSQ8's affine correction term.
func Sum(v []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(v) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += v[i]
		s1 += v[i+1]
		s2 += v[i+2]
		s3 += v[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for i := n; i < len(v); i++ {
		s += v[i]
	}
	return s
}
