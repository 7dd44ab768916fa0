//go:build noasm || !amd64

package vecmath

const trainAsm = false

func gemmTile4x8(k int, a0, a1, a2, a3 *float64, csa int, b *float64, ldb int, c0, c1, c2, c3 *float64) {
	panic("vecmath: no simd backend")
}

func gemmTile4x16(k int, a0, a1, a2, a3 *float32, csa int, b *float32, ldb int, c0, c1, c2, c3 *float32) {
	panic("vecmath: no simd backend")
}

func gemmTile4x32(k int, a0, a1, a2, a3 *float32, csa int, b *float32, ldb int, c0, c1, c2, c3 *float32) {
	panic("vecmath: no simd backend")
}

func sigmoid32AVX2(dst, src []float32) { panic("vecmath: no simd backend") }
func tanh32AVX2(dst, src []float32)    { panic("vecmath: no simd backend") }

func lstmGateGradsAVX2(gates, dh []float32, dout []float64, dc, tc, cPrev []float32, n int) {
	panic("vecmath: no simd backend")
}
