//go:build !noasm

package vecmath

import "os"

// Per-family dispatch flags. Split per family rather than one global
// so architectures with partial kernel coverage (arm64 implements the
// float kernels, not the SQ8 set) reuse the same wrapper code.
var (
	simd64  bool // Dot, SqDist
	simd32  bool // Dot32
	simdSQ8 bool // DotSQ8
	simdSym bool // DotSQ8Sym, Sym4Survivors
	simdEnc bool // EncodeSQ8 (min/max + quantize passes)

	// Sym4Survivors' AVX512-VNNI body; only ever set beside simdSym.
	simdVNNI bool

	backendName = "scalar"
)

func init() {
	if os.Getenv("EHNA_NOSIMD") != "" {
		return
	}
	if !cpuHasAVX2() {
		return
	}
	simd64, simd32, simdSQ8, simdSym, simdEnc = true, true, true, true, true
	simdVNNI = cpuHasAVX512VNNI()
	backendName = "avx2"
}

// Assembly kernels (simd_amd64.s). All of them tolerate any length
// including zero and leave no YMM state behind (VZEROUPPER before
// return); the go:noescape annotations keep callers' slices off the
// heap so the serving paths stay allocation-free.

//go:noescape
func dotSIMD(a, b []float64) float64

//go:noescape
func sqDistSIMD(a, b []float64) float64

//go:noescape
func dot32SIMD(a, b []float32) float64

// dotSQ8RawSIMD returns the raw Σ q[i]·code[i] sum; the wrapper
// applies the scale/offset affine correction.
//
//go:noescape
func dotSQ8RawSIMD(q []float64, code []int8) float64

// dotSQ8SymRawSIMD returns the raw int32 Σ ac[i]·bc[i] code dot; the
// wrapper applies the affine combination of the two codebooks.
//
//go:noescape
func dotSQ8SymRawSIMD(ac, bc []int8) int32

// sym4SurvivorsAVX2 and sym4SurvivorsVNNI are Sym4Survivors past its
// shape checks; the queries' dim must be at least simdMinLanes.
//
//go:noescape
func sym4SurvivorsAVX2(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int

//go:noescape
func sym4SurvivorsVNNI(dots []int32, surv []uint32, qs *Sym4Queries, rows []int8, rowOff, rowSum, rowScale []float64) int

// minMaxSIMD scans v (len ≥ 1) for its minimum and maximum.
//
//go:noescape
func minMaxSIMD(v []float64) (lo, hi float64)

// quantizeSIMD encodes whole 8-lane blocks of v (len must be a
// multiple of 8): code[i] = roundNearestEven((v[i]-lo)*inv) - 128,
// saturated to int8, returning the sum of the written codes. The
// caller handles the tail lanes and the degenerate-scale case.
//
//go:noescape
func quantizeSIMD(v []float64, code []int8, lo, inv float64) int32
