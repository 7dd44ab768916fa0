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
)

var backendName = "scalar"

func dotSIMD(a, b []float64) float64                 { panic("vecmath: no simd backend") }
func sqDistSIMD(a, b []float64) float64              { panic("vecmath: no simd backend") }
func dot32SIMD(a, b []float32) float64               { panic("vecmath: no simd backend") }
func dotSQ8RawSIMD(q []float64, code []int8) float64 { panic("vecmath: no simd backend") }
func dotSQ8SymRawSIMD(ac, bc []int8) int32           { panic("vecmath: no simd backend") }
func dotSQ8SymCodes4SIMD(dst []int32, qw []int16, rows []int8, dim int) {
	panic("vecmath: no simd backend")
}
func minMaxSIMD(v []float64) (lo, hi float64)                      { panic("vecmath: no simd backend") }
func quantizeSIMD(v []float64, code []int8, lo, inv float64) int32 { panic("vecmath: no simd backend") }
