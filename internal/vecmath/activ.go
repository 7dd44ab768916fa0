package vecmath

import "math"

// Block activations for the EHNA trainer's LSTM (internal/ag), which
// evaluates 160 of them per timestep row in float32. On the AVX2
// backend they run eight lanes at a time in activ_amd64.s, within a few
// ulp of the float64 functions rounded to float32 (activ_test.go pins
// the bound); everywhere else they are that rounding itself: the scalar
// loop over Sigmoid and math.Tanh.
//
// dst and src must have equal length and either be the same slice or
// not overlap.

// SigmoidInto32 writes σ(src[i]) to dst[i].
func SigmoidInto32(dst, src []float32) {
	if len(dst) != len(src) {
		panic("vecmath: SigmoidInto32 length mismatch")
	}
	if trainAsm && simd64 {
		sigmoid32AVX2(dst, src)
		return
	}
	for i, x := range src {
		dst[i] = float32(Sigmoid(float64(x)))
	}
}

// TanhInto32 writes tanh(src[i]) to dst[i].
func TanhInto32(dst, src []float32) {
	if len(dst) != len(src) {
		panic("vecmath: TanhInto32 length mismatch")
	}
	if trainAsm && simd64 {
		tanh32AVX2(dst, src)
		return
	}
	for i, x := range src {
		dst[i] = float32(math.Tanh(float64(x)))
	}
}
