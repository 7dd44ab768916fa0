//go:build !noasm

package vecmath

import "os"

// arm64: ASIMD (NEON) is mandatory in ARMv8, so there is no CPU probe
// — only the env kill switch. NEON coverage is the float kernel set
// (Dot/SqDist for training and Dot32, which carries HNSW beam traffic
// on f32 stores); the SQ8 integer family stays on the
// scalar fallback until the widening-multiply kernels land.
var (
	simd64  bool
	simd32  bool
	simdSQ8 bool // no NEON implementation yet
	simdSym bool // no NEON implementation yet
	simdEnc bool // no NEON implementation yet

	simdVNNI bool // amd64 only
	simd512  bool // amd64 only

	backendName = "scalar"
)

func init() {
	if os.Getenv("EHNA_NOSIMD") != "" {
		return
	}
	simd64, simd32 = true, true
	backendName = "neon"
}

//go:noescape
func dotSIMD(a, b []float64) float64

//go:noescape
func sqDistSIMD(a, b []float64) float64

//go:noescape
func dot32SIMD(a, b []float32) float64

// Unreachable: the SQ8 flags above are never set on arm64.
func dotSQ8RawSIMD(q []float64, code []int8) float64 { panic("vecmath: no neon sq8") }
func dotSQ8SymRawSIMD(ac, bc []int8) int32           { panic("vecmath: no neon sq8") }
func sym4SurvivorsAVX2(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	panic("vecmath: no neon sq8")
}
func sym4SurvivorsVNNI(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	panic("vecmath: no neon sq8")
}
func sym1SurvivorsAVX2(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	panic("vecmath: no neon sq8")
}
func sym1SurvivorsVNNI(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int {
	panic("vecmath: no neon sq8")
}
func sq8RowFactorsAVX2(rowOff, rowScale, rowSum []float64, side []SQ8Sidecar, cosine bool) {
	panic("vecmath: no neon sq8")
}
func minMaxSIMD(v []float64) (lo, hi float64)                      { panic("vecmath: no neon sq8") }
func quantizeSIMD(v []float64, code []int8, lo, inv float64) int32 { panic("vecmath: no neon sq8") }
