//go:build noasm || !amd64

package vecmath

const trainAsm = false

func gemmTile4x8(k int, a0, a1, a2, a3 *float64, csa int, b *float64, ldb int, c0, c1, c2, c3 *float64) {
	panic("vecmath: no simd backend")
}

func sigmoidAVX2(dst, src []float64) { panic("vecmath: no simd backend") }
func tanhAVX2(dst, src []float64)    { panic("vecmath: no simd backend") }
