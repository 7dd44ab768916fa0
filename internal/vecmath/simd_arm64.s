//go:build !noasm

#include "textflag.h"

// NEON kernels for the float families. The Go arm64 assembler exposes
// no float vector ADD/SUB mnemonics, but FMLA/FMLS with a broadcast
// 1.0 multiplier compute the same single-rounded result (1·x is
// exact), so vector adds ride VFMLA against V31 = {1.0, …} and the
// a−b subtraction in SqDist rides VFMLS the same way.
//
// Layout mirrors simd_amd64.s: an 8-lane (f64) / 16-lane (f32) main
// loop over four accumulators, lane-extraction reduction, then a
// scalar FMOVD.P/FMOVS.P tail loop that dims 32/64/128 never enter.

// func dotSIMD(a, b []float64) float64
TEXT ·dotSIMD(SB), NOSPLIT, $0-56
	MOVD a_base+0(FP), R0
	MOVD a_len+8(FP), R2
	MOVD b_base+24(FP), R1
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16
	LSR  $3, R2, R3
	CBZ  R3, dot_reduce

dot_blk8:
	VLD1.P 64(R0), [V4.D2, V5.D2, V6.D2, V7.D2]
	VLD1.P 64(R1), [V8.D2, V9.D2, V10.D2, V11.D2]
	VFMLA  V8.D2, V4.D2, V0.D2
	VFMLA  V9.D2, V5.D2, V1.D2
	VFMLA  V10.D2, V6.D2, V2.D2
	VFMLA  V11.D2, V7.D2, V3.D2
	SUB    $1, R3, R3
	CBNZ   R3, dot_blk8

dot_reduce:
	FMOVD $1.0, F31
	VDUP  V31.D[0], V31.D2
	VFMLA V1.D2, V31.D2, V0.D2
	VFMLA V3.D2, V31.D2, V2.D2
	VFMLA V2.D2, V31.D2, V0.D2
	VMOV  V0.D[1], V16.D[0]
	FADDD F16, F0, F0
	AND   $7, R2, R2
	CBZ   R2, dot_done

dot_tail:
	FMOVD.P 8(R0), F2
	FMOVD.P 8(R1), F3
	FMADDD  F2, F0, F3, F0
	SUB     $1, R2, R2
	CBNZ    R2, dot_tail

dot_done:
	FMOVD F0, ret+48(FP)
	RET

// func sqDistSIMD(a, b []float64) float64
TEXT ·sqDistSIMD(SB), NOSPLIT, $0-56
	MOVD  a_base+0(FP), R0
	MOVD  a_len+8(FP), R2
	MOVD  b_base+24(FP), R1
	VEOR  V0.B16, V0.B16, V0.B16
	VEOR  V1.B16, V1.B16, V1.B16
	VEOR  V2.B16, V2.B16, V2.B16
	VEOR  V3.B16, V3.B16, V3.B16
	FMOVD $1.0, F31
	VDUP  V31.D[0], V31.D2
	LSR   $3, R2, R3
	CBZ   R3, sqd_reduce

sqd_blk8:
	VLD1.P 64(R0), [V4.D2, V5.D2, V6.D2, V7.D2]
	VLD1.P 64(R1), [V8.D2, V9.D2, V10.D2, V11.D2]
	VFMLS  V8.D2, V31.D2, V4.D2
	VFMLS  V9.D2, V31.D2, V5.D2
	VFMLS  V10.D2, V31.D2, V6.D2
	VFMLS  V11.D2, V31.D2, V7.D2
	VFMLA  V4.D2, V4.D2, V0.D2
	VFMLA  V5.D2, V5.D2, V1.D2
	VFMLA  V6.D2, V6.D2, V2.D2
	VFMLA  V7.D2, V7.D2, V3.D2
	SUB    $1, R3, R3
	CBNZ   R3, sqd_blk8

sqd_reduce:
	VFMLA V1.D2, V31.D2, V0.D2
	VFMLA V3.D2, V31.D2, V2.D2
	VFMLA V2.D2, V31.D2, V0.D2
	VMOV  V0.D[1], V16.D[0]
	FADDD F16, F0, F0
	AND   $7, R2, R2
	CBZ   R2, sqd_done

sqd_tail:
	FMOVD.P 8(R0), F2
	FMOVD.P 8(R1), F3
	FSUBD   F3, F2, F2
	FMADDD  F2, F0, F2, F0
	SUB     $1, R2, R2
	CBNZ    R2, sqd_tail

sqd_done:
	FMOVD F0, ret+48(FP)
	RET

// func dot32SIMD(a, b []float32) float64
TEXT ·dot32SIMD(SB), NOSPLIT, $0-56
	MOVD a_base+0(FP), R0
	MOVD a_len+8(FP), R2
	MOVD b_base+24(FP), R1
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16
	LSR  $4, R2, R3
	CBZ  R3, d32_reduce

d32_blk16:
	VLD1.P 64(R0), [V4.S4, V5.S4, V6.S4, V7.S4]
	VLD1.P 64(R1), [V8.S4, V9.S4, V10.S4, V11.S4]
	VFMLA  V8.S4, V4.S4, V0.S4
	VFMLA  V9.S4, V5.S4, V1.S4
	VFMLA  V10.S4, V6.S4, V2.S4
	VFMLA  V11.S4, V7.S4, V3.S4
	SUB    $1, R3, R3
	CBNZ   R3, d32_blk16

d32_reduce:
	FMOVS $1.0, F31
	VDUP  V31.S[0], V31.S4
	VFMLA V1.S4, V31.S4, V0.S4
	VFMLA V3.S4, V31.S4, V2.S4
	VFMLA V2.S4, V31.S4, V0.S4
	VMOV  V0.S[1], V16.S[0]
	VMOV  V0.S[2], V17.S[0]
	VMOV  V0.S[3], V18.S[0]
	FADDS F16, F0, F0
	FADDS F18, F17, F17
	FADDS F17, F0, F0
	AND   $15, R2, R2
	CBZ   R2, d32_cvt

d32_tail:
	FMOVS.P 4(R0), F2
	FMOVS.P 4(R1), F3
	FMADDS  F2, F0, F3, F0
	SUB     $1, R2, R2
	CBNZ    R2, d32_tail

d32_cvt:
	FCVTSD F0, F0
	FMOVD  F0, ret+48(FP)
	RET
