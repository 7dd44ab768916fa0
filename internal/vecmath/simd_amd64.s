//go:build !noasm

#include "textflag.h"

// AVX2+FMA kernels. Shared structure:
//
//   - wide main loop (16 f64 / 32 f32 / 16–32 int8 lanes per
//     iteration) over independent accumulators to hide FMA latency;
//   - a narrower vector loop for the mid-size remainder;
//   - horizontal reduction, VZEROUPPER, then a plain SSE scalar loop
//     for the last few lanes.
//
// Dimensions that are a multiple of the main block — the serving
// sweet spots 32, 64 and 128 — fall straight through both remainder
// loops on a single masked test each, so they never execute tail code.
// All loads are unaligned (VMOVUPD/VMOVUPS/VMOVDQU); Go slices only
// guarantee element alignment.

// func dotSIMD(a, b []float64) float64
TEXT ·dotSIMD(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, AX
	SHRQ   $4, AX
	JZ     dot_blk4

dot_blk16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        AX
	JNZ         dot_blk16

dot_blk4:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	MOVQ   CX, AX
	ANDQ   $15, AX
	SHRQ   $2, AX
	JZ     dot_reduce

dot_blk4_loop:
	VMOVUPD     (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        AX
	JNZ         dot_blk4_loop

dot_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	VZEROUPPER
	ANDQ         $3, CX
	JZ           dot_done

dot_tail:
	MOVSD (SI), X2
	MULSD (DI), X2
	ADDSD X2, X0
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   dot_tail

dot_done:
	MOVSD X0, ret+48(FP)
	RET

// func sqDistSIMD(a, b []float64) float64
TEXT ·sqDistSIMD(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, AX
	SHRQ   $4, AX
	JZ     sqd_blk4

sqd_blk16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VSUBPD      (DI), Y4, Y4
	VSUBPD      32(DI), Y5, Y5
	VSUBPD      64(DI), Y6, Y6
	VSUBPD      96(DI), Y7, Y7
	VFMADD231PD Y4, Y4, Y0
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        AX
	JNZ         sqd_blk16

sqd_blk4:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	MOVQ   CX, AX
	ANDQ   $15, AX
	SHRQ   $2, AX
	JZ     sqd_reduce

sqd_blk4_loop:
	VMOVUPD     (SI), Y4
	VSUBPD      (DI), Y4, Y4
	VFMADD231PD Y4, Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        AX
	JNZ         sqd_blk4_loop

sqd_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	VZEROUPPER
	ANDQ         $3, CX
	JZ           sqd_done

sqd_tail:
	MOVSD (SI), X2
	SUBSD (DI), X2
	MULSD X2, X2
	ADDSD X2, X0
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   sqd_tail

sqd_done:
	MOVSD X0, ret+48(FP)
	RET

// func dot32SIMD(a, b []float32) float64
TEXT ·dot32SIMD(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   CX, AX
	SHRQ   $5, AX
	JZ     d32_blk8

d32_blk32:
	VMOVUPS     (SI), Y4
	VMOVUPS     32(SI), Y5
	VMOVUPS     64(SI), Y6
	VMOVUPS     96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        AX
	JNZ         d32_blk32

d32_blk8:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	MOVQ   CX, AX
	ANDQ   $31, AX
	SHRQ   $3, AX
	JZ     d32_reduce

d32_blk8_loop:
	VMOVUPS     (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        AX
	JNZ         d32_blk8_loop

d32_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VPERMILPS    $0x4E, X0, X1
	VADDPS       X1, X0, X0
	VPERMILPS    $0xB1, X0, X1
	VADDPS       X1, X0, X0
	VZEROUPPER
	ANDQ         $7, CX
	JZ           d32_cvt

d32_tail:
	MOVSS (SI), X2
	MULSS (DI), X2
	ADDSS X2, X0
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   d32_tail

d32_cvt:
	CVTSS2SD X0, X0
	MOVSD    X0, ret+48(FP)
	RET

// func dotSQ8RawSIMD(q []float64, code []int8) float64
//
// Raw Σ q[i]·code[i]: sign-extend 16 codes to int32, convert to f64,
// FMA against the query. The affine (scale/offset) correction happens
// in the Go wrapper.
TEXT ·dotSQ8RawSIMD(SB), NOSPLIT, $0-56
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   code_base+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, AX
	SHRQ   $4, AX
	JZ     dq8_blk8

dq8_blk16:
	VMOVDQU      (DX), X4
	VPSRLDQ      $8, X4, X6
	VPMOVSXBD    X4, Y5
	VPMOVSXBD    X6, Y7
	VCVTDQ2PD    X5, Y8
	VEXTRACTI128 $1, Y5, X9
	VCVTDQ2PD    X9, Y10
	VCVTDQ2PD    X7, Y11
	VEXTRACTI128 $1, Y7, X12
	VCVTDQ2PD    X12, Y13
	VFMADD231PD  (SI), Y8, Y0
	VFMADD231PD  32(SI), Y10, Y1
	VFMADD231PD  64(SI), Y11, Y2
	VFMADD231PD  96(SI), Y13, Y3
	ADDQ         $16, DX
	ADDQ         $128, SI
	DECQ         AX
	JNZ          dq8_blk16

dq8_blk8:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	MOVQ   CX, AX
	ANDQ   $15, AX
	SHRQ   $3, AX
	JZ     dq8_reduce

	VMOVQ        (DX), X4
	VPMOVSXBD    X4, Y5
	VCVTDQ2PD    X5, Y8
	VEXTRACTI128 $1, Y5, X9
	VCVTDQ2PD    X9, Y10
	VFMADD231PD  (SI), Y8, Y0
	VFMADD231PD  32(SI), Y10, Y0
	ADDQ         $8, DX
	ADDQ         $64, SI

dq8_reduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	VZEROUPPER
	ANDQ         $7, CX
	JZ           dq8_done

dq8_tail:
	MOVBQSX  (DX), AX
	CVTSQ2SD AX, X2
	MULSD    (SI), X2
	ADDSD    X2, X0
	INCQ     DX
	ADDQ     $8, SI
	DECQ     CX
	JNZ      dq8_tail

dq8_done:
	MOVSD X0, ret+48(FP)
	RET

// func dotSQ8SymRawSIMD(ac, bc []int8) int32
//
// Raw int8×int8 code dot: widen to int16, VPMADDWD pairs into int32,
// accumulate. Products are ≤ 128², so each int32 lane absorbs two
// products per iteration — safe far beyond the 131k-lane bound
// DotSQ8Sym documents.
TEXT ·dotSQ8SymRawSIMD(SB), NOSPLIT, $0-52
	MOVQ  ac_base+0(FP), SI
	MOVQ  ac_len+8(FP), CX
	MOVQ  bc_base+24(FP), DI
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  CX, AX
	SHRQ  $5, AX
	JZ    sym_blk16

sym_blk32:
	VMOVDQU   (SI), X4
	VMOVDQU   16(SI), X5
	VMOVDQU   (DI), X6
	VMOVDQU   16(DI), X7
	VPMOVSXBW X4, Y4
	VPMOVSXBW X5, Y5
	VPMOVSXBW X6, Y6
	VPMOVSXBW X7, Y7
	VPMADDWD  Y6, Y4, Y4
	VPMADDWD  Y7, Y5, Y5
	VPADDD    Y4, Y0, Y0
	VPADDD    Y5, Y1, Y1
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      AX
	JNZ       sym_blk32

sym_blk16:
	MOVQ CX, AX
	ANDQ $31, AX
	SHRQ $4, AX
	JZ   sym_reduce

	VMOVDQU   (SI), X4
	VMOVDQU   (DI), X6
	VPMOVSXBW X4, Y4
	VPMOVSXBW X6, Y6
	VPMADDWD  Y6, Y4, Y4
	VPADDD    Y4, Y0, Y0
	ADDQ      $16, SI
	ADDQ      $16, DI

sym_reduce:
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, BX
	VZEROUPPER
	ANDQ         $15, CX
	JZ           sym_done

sym_tail:
	MOVBQSX (SI), AX
	MOVBQSX (DI), DX
	IMULQ   DX, AX
	ADDQ    AX, BX
	INCQ    SI
	INCQ    DI
	DECQ    CX
	JNZ     sym_tail

sym_done:
	MOVL BX, ret+48(FP)
	RET

// func dotSQ8SymCodes4SIMD(dst []int32, qw []int16, rows []int8, dim int)
//
// dotSQ8SymRawSIMD register-blocked over four queries: each 16-lane
// chunk of a row is loaded and widened once (VPMOVSXBW) and VPMADDWD'd
// against the same chunk of the four int16 queries, which stay in L1
// and enter as memory operands; one int32 accumulator per query. Three
// VPHADDDs fold the four accumulators into one XMM of four sums, stored
// as dst[4r:4r+4]. The dim%16 tail lanes add into those four words with
// plain integer code (no SSE, so the upper YMM state stays clean until
// the one VZEROUPPER at the end). Row and query codes are int8-ranged
// and int16, so a VPMADDWD pair sum is < 2²⁴ and nothing saturates.
TEXT ·dotSQ8SymCodes4SIMD(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R9
	MOVQ qw_base+24(FP), R10
	MOVQ rows_base+48(FP), DX
	MOVQ dim+72(FP), R8
	SHRQ $2, R9                // rows to go
	JZ   s4_done
	LEAQ (R10)(R8*2), R11      // queries 1..3
	LEAQ (R11)(R8*2), R12
	LEAQ (R12)(R8*2), R13

s4_row:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  BX, BX               // lane index
	MOVQ  R8, CX
	SHRQ  $4, CX
	JZ    s4_reduce

s4_blk16:
	VPMOVSXBW (DX)(BX*1), Y4
	VPMADDWD  (R10)(BX*2), Y4, Y5
	VPMADDWD  (R11)(BX*2), Y4, Y6
	VPMADDWD  (R12)(BX*2), Y4, Y7
	VPMADDWD  (R13)(BX*2), Y4, Y8
	VPADDD    Y5, Y0, Y0
	VPADDD    Y6, Y1, Y1
	VPADDD    Y7, Y2, Y2
	VPADDD    Y8, Y3, Y3
	ADDQ      $16, BX
	DECQ      CX
	JNZ       s4_blk16

s4_reduce:
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VMOVDQU      X0, (DI)
	CMPQ         BX, R8
	JGE          s4_next

s4_tail:
	MOVBQSX (DX)(BX*1), SI
	MOVWQSX (R10)(BX*2), AX
	IMULQ   SI, AX
	ADDL    AX, (DI)
	MOVWQSX (R11)(BX*2), AX
	IMULQ   SI, AX
	ADDL    AX, 4(DI)
	MOVWQSX (R12)(BX*2), AX
	IMULQ   SI, AX
	ADDL    AX, 8(DI)
	MOVWQSX (R13)(BX*2), AX
	IMULQ   SI, AX
	ADDL    AX, 12(DI)
	INCQ    BX
	CMPQ    BX, R8
	JLT     s4_tail

s4_next:
	ADDQ R8, DX
	ADDQ $16, DI
	DECQ R9
	JNZ  s4_row

s4_done:
	VZEROUPPER
	RET

// func minMaxSIMD(v []float64) (lo, hi float64)
//
// Requires len ≥ 1 (the EncodeSQ8 wrapper guarantees it). Seeds both
// accumulators with a broadcast of v[0]; re-scanning lane 0 in the
// main loop is harmless for min/max.
TEXT ·minMaxSIMD(SB), NOSPLIT, $0-40
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	VBROADCASTSD (SI), Y0
	VMOVAPD      Y0, Y1
	MOVQ         CX, AX
	SHRQ         $3, AX
	JZ           mm_reduce

mm_blk8:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VMINPD  Y2, Y0, Y0
	VMAXPD  Y2, Y1, Y1
	VMINPD  Y3, Y0, Y0
	VMAXPD  Y3, Y1, Y1
	ADDQ    $64, SI
	DECQ    AX
	JNZ     mm_blk8

mm_reduce:
	VEXTRACTF128 $1, Y0, X2
	VMINPD       X2, X0, X0
	VPERMILPD    $1, X0, X2
	VMINSD       X2, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VMAXPD       X3, X1, X1
	VPERMILPD    $1, X1, X3
	VMAXSD       X3, X1, X1
	VZEROUPPER
	ANDQ         $7, CX
	JZ           mm_done

mm_tail:
	MOVSD (SI), X4
	MINSD X4, X0
	MAXSD X4, X1
	ADDQ  $8, SI
	DECQ  CX
	JNZ   mm_tail

mm_done:
	MOVSD X0, lo+24(FP)
	MOVSD X1, hi+32(FP)
	RET

// func quantizeSIMD(v []float64, code []int8, lo, inv float64) int32
//
// len must be a multiple of 8. code[i] = rne((v[i]-lo)·inv) - 128
// (VCVTPD2DQ rounds nearest-even under the default MXCSR), clamped to
// int8 in the int32 domain *before* the code-sum accumulates, so the
// returned sum always matches the bytes written. The saturating packs
// that narrow to int8 are then exact.
TEXT ·quantizeSIMD(SB), NOSPLIT, $0-68
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	MOVQ         code_base+24(FP), DX
	VBROADCASTSD lo+48(FP), Y8
	VBROADCASTSD inv+56(FP), Y9
	MOVL         $128, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, X10
	MOVL         $127, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, X13
	MOVL         $-128, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, X14
	VPXOR        X11, X11, X11
	SHRQ         $3, CX
	JZ           q_sum

q_blk8:
	VMOVUPD    (SI), Y4
	VMOVUPD    32(SI), Y5
	VSUBPD     Y8, Y4, Y4
	VSUBPD     Y8, Y5, Y5
	VMULPD     Y9, Y4, Y4
	VMULPD     Y9, Y5, Y5
	VCVTPD2DQY Y4, X4
	VCVTPD2DQY Y5, X5
	VPSUBD     X10, X4, X4
	VPSUBD     X10, X5, X5
	VPMINSD    X13, X4, X4
	VPMINSD    X13, X5, X5
	VPMAXSD    X14, X4, X4
	VPMAXSD    X14, X5, X5
	VPADDD     X4, X11, X11
	VPADDD     X5, X11, X11
	VPACKSSDW  X5, X4, X6
	VPACKSSWB  X6, X6, X6
	VMOVQ      X6, (DX)
	ADDQ       $64, SI
	ADDQ       $8, DX
	DECQ       CX
	JNZ        q_blk8

q_sum:
	VPSHUFD $0x4E, X11, X12
	VPADDD  X12, X11, X11
	VPSHUFD $0xB1, X11, X12
	VPADDD  X12, X11, X11
	VMOVD   X11, AX
	VZEROUPPER
	MOVL    AX, ret+64(FP)
	RET
