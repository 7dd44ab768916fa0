//go:build noasm || (!amd64 && !arm64)

package vecmath

// Scalar-only build: the flags are constants so the compiler folds the
// dispatch branches away and the linker drops the unreachable stubs —
// this build is byte-for-byte the pure-Go package.
const (
	simd64  = false
	simd32  = false
	simdSQ8 = false
	simdSym = false
	simdEnc = false

	simdVNNI = false
	simd512  = false
)

var backendName = "scalar"

func dotSIMD(a, b []float64) float64                 { panic("vecmath: no simd backend") }
func sqDistSIMD(a, b []float64) float64              { panic("vecmath: no simd backend") }
func dot32SIMD(a, b []float32) float64               { panic("vecmath: no simd backend") }
func dotSQ8RawSIMD(q []float64, code []int8) float64 { panic("vecmath: no simd backend") }
func dotSQ8SymRawSIMD(ac, bc []int8) int32           { panic("vecmath: no simd backend") }
func sym4SurvivorsAVX2(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	panic("vecmath: no simd backend")
}
func sym4SurvivorsVNNI(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	panic("vecmath: no simd backend")
}
func sym1SurvivorsAVX2(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	panic("vecmath: no simd backend")
}
func sym1SurvivorsVNNI(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	panic("vecmath: no simd backend")
}
func sq8RowFactorsAVX2(rowOff, rowScale, rowSum []float64, side []SQ8Sidecar, cosine bool) {
	panic("vecmath: no simd backend")
}
func minMaxSIMD(v []float64) (lo, hi float64)                      { panic("vecmath: no simd backend") }
func quantizeSIMD(v []float64, code []int8, lo, inv float64) int32 { panic("vecmath: no simd backend") }
