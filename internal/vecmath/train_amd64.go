//go:build !noasm

package vecmath

// trainAsm reports that the amd64-only training kernels below are
// built; callers still check simd64 (AVX2+FMA present and not disabled
// by EHNA_NOSIMD) before calling them.
const trainAsm = true

// gemmTile4x8 accumulates one 4×8 tile: for each row r and p < k,
// c_r[0:8] += a_r[p*csa] · b[p*ldb : p*ldb+8]. Rows are passed as
// pointers to their first element so that the caller can repeat a row
// (and point its c at scratch) to run a partial tile.
//
//go:noescape
func gemmTile4x8(k int, a0, a1, a2, a3 *float64, csa int, b *float64, ldb int, c0, c1, c2, c3 *float64)

// gemmTile4x16 is gemmTile4x8 in float32 over sixteen columns.
//
//go:noescape
func gemmTile4x16(k int, a0, a1, a2, a3 *float32, csa int, b *float32, ldb int, c0, c1, c2, c3 *float32)

// gemmTile4x32 is gemmTile4x16 over thirty-two columns, on AVX-512F;
// callers check simd512.
//
//go:noescape
func gemmTile4x32(k int, a0, a1, a2, a3 *float32, csa int, b *float32, ldb int, c0, c1, c2, c3 *float32)

// sigmoid32AVX2 and tanh32AVX2 (activ_amd64.s) take equal-length
// slices of any length, dst the same as src or disjoint from it.
//
//go:noescape
func sigmoid32AVX2(dst, src []float32)

//go:noescape
func tanh32AVX2(dst, src []float32)

// lstmGateGradsAVX2 (lstm_amd64.s) is LSTMGateGrads32 over units
// [0, n), n a multiple of eight.
//
//go:noescape
func lstmGateGradsAVX2(gates, dh []float32, dout []float64, dc, tc, cPrev []float32, n int)
