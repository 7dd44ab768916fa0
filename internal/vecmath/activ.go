package vecmath

import "math"

// Block activations for the EHNA trainer's LSTM (internal/ag), which
// evaluates 160 of them per timestep row. On the AVX2 backend they run
// four lanes at a time in activ_amd64.s, within a few ulp of the math
// package (activ_test.go pins 1e-15 relative); everywhere else they are
// the scalar loop over Sigmoid and math.Tanh.
//
// dst and src must have equal length and either be the same slice or
// not overlap.

// SigmoidInto writes σ(src[i]) to dst[i].
func SigmoidInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vecmath: SigmoidInto length mismatch")
	}
	if trainAsm && simd64 {
		sigmoidAVX2(dst, src)
		return
	}
	for i, x := range src {
		dst[i] = Sigmoid(x)
	}
}

// TanhInto writes tanh(src[i]) to dst[i].
func TanhInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vecmath: TanhInto length mismatch")
	}
	if trainAsm && simd64 {
		tanhAVX2(dst, src)
		return
	}
	for i, x := range src {
		dst[i] = math.Tanh(x)
	}
}
