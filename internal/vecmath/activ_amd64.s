//go:build !noasm

#include "textflag.h"

// AVX2+FMA logistic and tanh over a block, four lanes at a time. Both
// are built on z = exp(a) for a non-positive argument (a = −|x| for σ,
// a = −2|x| for tanh), so z never overflows:
//
//	a  = max(a, −709)                  clamp; VMAXPD passes a NaN through
//	t  = a·log2e + (1.5·2^52 + 1023)   rounds k = ⌊a/ln2⌉ into t's low bits,
//	                                   already biased for the exponent field
//	kf = t − (1.5·2^52 + 1023)         k as a float
//	s  = t << 52                       2^k, k ∈ [−1023, 0]; k = −1023 gives +0
//	r  = a − kf·ln2hi − kf·ln2lo       Cody–Waite, |r| ≤ ln2/2
//	q  = Σ_{j≤12} r^j/(j+1)!           Horner; exp(r) = 1 + r·q to < 1 ulp
//
// so exp(a) = s·(1 + r·q), flushed to zero below a ≈ −708.7 where
// math.Exp returns denormals. The last lanes of a block whose length is
// not a multiple of four are loaded and stored under a mask
// (VMASKMOVPD), so one body serves every length and no lane outside
// the slices is touched.

// Every constant is stored four times over: AVX2 arithmetic takes a
// full-width memory operand, not a broadcast one.
#define C4(off, v) \
	DATA activc<>+(off)(SB)/8, v; \
	DATA activc<>+(off+8)(SB)/8, v; \
	DATA activc<>+(off+16)(SB)/8, v; \
	DATA activc<>+(off+24)(SB)/8, v

#define SIGNBIT activc<>+0(SB)
#define CLAMP   activc<>+32(SB)
#define LOG2E   activc<>+64(SB)
#define MAGIC   activc<>+96(SB)
#define LN2HI   activc<>+128(SB)
#define LN2LO   activc<>+160(SB)
#define ONE     activc<>+192(SB)
#define TWO     activc<>+224(SB)
#define POLY(j) activc<>+(256+32*j)(SB)

C4(0, $0x8000000000000000)   // sign bit
C4(32, $0xc086280000000000)  // −709
C4(64, $0x3ff71547652b82fe)  // 1/ln2
C4(96, $0x43380000000003ff)  // 1.5·2^52 + 1023
C4(128, $0x3fe62e42fee00000) // ln2hi (math.Ln2Hi of exp.go: low 21 bits zero)
C4(160, $0x3dea39ef35793c76) // ln2lo
C4(192, $0x3ff0000000000000) // 1
C4(224, $0x4000000000000000) // 2
C4(256, $0x3ff0000000000000) // 1/1!
C4(288, $0x3fe0000000000000) // 1/2!
C4(320, $0x3fc5555555555555) // 1/3!
C4(352, $0x3fa5555555555555) // 1/4!
C4(384, $0x3f81111111111111) // 1/5!
C4(416, $0x3f56c16c16c16c17) // 1/6!
C4(448, $0x3f2a01a01a01a01a) // 1/7!
C4(480, $0x3efa01a01a01a01a) // 1/8!
C4(512, $0x3ec71de3a556c734) // 1/9!
C4(544, $0x3e927e4fb7789f5c) // 1/10!
C4(576, $0x3e5ae64567f544e4) // 1/11!
C4(608, $0x3e21eed8eff8d898) // 1/12!
C4(640, $0x3de6124613a86d09) // 1/13!
GLOBL activc<>(SB), RODATA|NOPTR, $672

// Lane masks for the tail: the four qwords at offset 32−8·rem select
// the first rem lanes.
DATA activmask<>+0(SB)/8, $-1
DATA activmask<>+8(SB)/8, $-1
DATA activmask<>+16(SB)/8, $-1
DATA activmask<>+24(SB)/8, $-1
DATA activmask<>+32(SB)/8, $0
DATA activmask<>+40(SB)/8, $0
DATA activmask<>+48(SB)/8, $0
DATA activmask<>+56(SB)/8, $0
GLOBL activmask<>(SB), RODATA|NOPTR, $64

// Registers shared by both kernels: Y0 x, Y1 a then r, Y2 t then s,
// Y3 kf, Y4 q, Y5–Y7 scratch; Y12 magic, Y13 one, Y14 clamp, Y15 sign
// bit. SI/DI walk src/dst, AX counts vectors, CX is the length.
#define LOADCONSTS \
	VMOVUPD MAGIC, Y12; \
	VMOVUPD ONE, Y13; \
	VMOVUPD CLAMP, Y14; \
	VMOVUPD SIGNBIT, Y15

// EXPCORE takes a in Y1 and leaves r in Y1, s in Y2 and q in Y4.
#define EXPCORE \
	VMAXPD       Y1, Y14, Y1; \
	VMOVAPD      Y12, Y2; \
	VFMADD231PD  LOG2E, Y1, Y2; \
	VSUBPD       Y12, Y2, Y3; \
	VPSLLQ       $52, Y2, Y2; \
	VFNMADD231PD LN2HI, Y3, Y1; \
	VFNMADD231PD LN2LO, Y3, Y1; \
	VMOVUPD      POLY(12), Y4; \
	VFMADD213PD  POLY(11), Y1, Y4; \
	VFMADD213PD  POLY(10), Y1, Y4; \
	VFMADD213PD  POLY(9), Y1, Y4; \
	VFMADD213PD  POLY(8), Y1, Y4; \
	VFMADD213PD  POLY(7), Y1, Y4; \
	VFMADD213PD  POLY(6), Y1, Y4; \
	VFMADD213PD  POLY(5), Y1, Y4; \
	VFMADD213PD  POLY(4), Y1, Y4; \
	VFMADD213PD  POLY(3), Y1, Y4; \
	VFMADD213PD  POLY(2), Y1, Y4; \
	VFMADD213PD  POLY(1), Y1, Y4; \
	VFMADD213PD  POLY(0), Y1, Y4

// SIGMOID maps x in Y0 to σ(x) in Y6: z = exp(−|x|), then 1/(1+z) for
// x ≥ 0 and z/(1+z) for x < 0 (the sign bit of x picks the numerator),
// which is vecmath.Sigmoid's own split.
#define SIGMOID \
	VORPD       Y15, Y0, Y1; \
	EXPCORE; \
	VFMADD213PD Y13, Y1, Y4; \
	VMULPD      Y2, Y4, Y4; \
	VADDPD      Y13, Y4, Y5; \
	VBLENDVPD   Y0, Y4, Y13, Y6; \
	VDIVPD      Y5, Y6, Y6

// TANH maps x in Y0 to tanh(x) in Y6 through
// m = expm1(−2|x|) = (s−1) + s·r·q, which loses nothing to
// cancellation for small x (k = 0 gives m = r·q), then
// |tanh x| = −m/(2+m) and x's sign bit is put back. m = −1 once
// exp(−2|x|) falls below half an ulp of 1, so the result saturates to
// exactly ±1.
#define TANH \
	VORPD       Y15, Y0, Y1; \
	VADDPD      Y1, Y1, Y1; \
	EXPCORE; \
	VMULPD      Y1, Y2, Y5; \
	VSUBPD      Y13, Y2, Y6; \
	VFMADD231PD Y5, Y4, Y6; \
	VADDPD      TWO, Y6, Y5; \
	VDIVPD      Y5, Y6, Y6; \
	VANDNPD     Y6, Y15, Y6; \
	VANDPD      Y15, Y0, Y7; \
	VORPD       Y7, Y6, Y6

// BLOCK applies BODY to src[0:len] and writes dst[0:len].
#define BLOCK(BODY, loop, tail, done) \
	MOVQ dst_base+0(FP), DI; \
	MOVQ src_base+24(FP), SI; \
	MOVQ src_len+32(FP), CX; \
	LOADCONSTS; \
	MOVQ CX, AX; \
	SHRQ $2, AX; \
	JZ   tail; \
loop: \
	VMOVUPD (SI), Y0; \
	BODY; \
	VMOVUPD Y6, (DI); \
	ADDQ    $32, SI; \
	ADDQ    $32, DI; \
	DECQ    AX; \
	JNZ     loop; \
tail: \
	ANDQ       $3, CX; \
	JZ         done; \
	SHLQ       $3, CX; \
	LEAQ       activmask<>+32(SB), AX; \
	SUBQ       CX, AX; \
	VMOVDQU    (AX), Y8; \
	VMASKMOVPD (SI), Y8, Y0; \
	BODY; \
	VMASKMOVPD Y6, Y8, (DI); \
done: \
	VZEROUPPER; \
	RET

// func sigmoidAVX2(dst, src []float64)
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-48
	BLOCK(SIGMOID, sigmoid_loop, sigmoid_tail, sigmoid_done)

// func tanhAVX2(dst, src []float64)
TEXT ·tanhAVX2(SB), NOSPLIT, $0-48
	BLOCK(TANH, tanh_loop, tanh_tail, tanh_done)
