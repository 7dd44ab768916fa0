//go:build !noasm

#include "textflag.h"

// AVX2+FMA logistic and tanh in float32 over a block, eight lanes at a
// time. Both are built on z = exp(a) for a non-positive argument
// (a = −|x| for σ, a = −2|x| for tanh), so z never overflows:
//
//	a  = max(a, −88)                   clamp; VMAXPS passes a NaN through
//	t  = a·log2e + (1.5·2^23 + 127)    rounds k = ⌊a/ln2⌉ into t's low bits,
//	                                   already biased for the exponent field
//	kf = t − (1.5·2^23 + 127)          k as a float
//	s  = t << 23                       2^k, k ∈ [−127, 0]; k = −127 gives +0
//	r  = a − kf·ln2hi − kf·ln2lo       Cody–Waite, |r| ≤ ln2/2
//	q  = 1 + r·P(r)                    exp(r) = 1 + r·q, P the degree-5
//	                                   minimax polynomial of Cephes' expf
//
// so exp(a) = s·(1 + r·q), flushed to zero below a ≈ −87.7 where
// exp(a) is already below float32's smallest normal. The last lanes of
// a block whose length is not a multiple of eight are loaded and
// stored under a mask (VMASKMOVPS), so one body serves every length
// and no lane outside the slices is touched.

// Every constant is stored eight times over: AVX2 arithmetic takes a
// full-width memory operand, not a broadcast one.
#define C8(off, v) \
	DATA activc<>+(off)(SB)/4, v; \
	DATA activc<>+(off+4)(SB)/4, v; \
	DATA activc<>+(off+8)(SB)/4, v; \
	DATA activc<>+(off+12)(SB)/4, v; \
	DATA activc<>+(off+16)(SB)/4, v; \
	DATA activc<>+(off+20)(SB)/4, v; \
	DATA activc<>+(off+24)(SB)/4, v; \
	DATA activc<>+(off+28)(SB)/4, v

#define SIGNBIT activc<>+0(SB)
#define CLAMP   activc<>+32(SB)
#define LOG2E   activc<>+64(SB)
#define MAGIC   activc<>+96(SB)
#define LN2HI   activc<>+128(SB)
#define LN2LO   activc<>+160(SB)
#define ONE     activc<>+192(SB)
#define TWO     activc<>+224(SB)
#define POLY(j) activc<>+(256+32*j)(SB)

C8(0, $0x80000000)   // sign bit
C8(32, $0xc2b00000)  // −88
C8(64, $0x3fb8aa3b)  // 1/ln2
C8(96, $0x4b40007f)  // 1.5·2^23 + 127
C8(128, $0x3f318000) // ln2hi = 0.693359375 (nine significant bits)
C8(160, $0xb95e8083) // ln2lo = −2.12194440e-4
C8(192, $0x3f800000) // 1
C8(224, $0x40000000) // 2
C8(256, $0x39506967) // 1.9875691500e-4
C8(288, $0x3ab743ce) // 1.3981999507e-3
C8(320, $0x3c088908) // 8.3334519073e-3
C8(352, $0x3d2aa9c1) // 4.1665795894e-2
C8(384, $0x3e2aaaaa) // 1.6666665459e-1
C8(416, $0x3f000000) // 5.0000001201e-1
GLOBL activc<>(SB), RODATA|NOPTR, $448

// Lane masks for the tail: the eight dwords at offset 32−4·rem select
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
	VMOVUPS MAGIC, Y12; \
	VMOVUPS ONE, Y13; \
	VMOVUPS CLAMP, Y14; \
	VMOVUPS SIGNBIT, Y15

// EXPCORE takes a in Y1 and leaves r in Y1, s in Y2 and q in Y4.
#define EXPCORE \
	VMAXPS       Y1, Y14, Y1; \
	VMOVAPS      Y12, Y2; \
	VFMADD231PS  LOG2E, Y1, Y2; \
	VSUBPS       Y12, Y2, Y3; \
	VPSLLD       $23, Y2, Y2; \
	VFNMADD231PS LN2HI, Y3, Y1; \
	VFNMADD231PS LN2LO, Y3, Y1; \
	VMOVUPS      POLY(0), Y4; \
	VFMADD213PS  POLY(1), Y1, Y4; \
	VFMADD213PS  POLY(2), Y1, Y4; \
	VFMADD213PS  POLY(3), Y1, Y4; \
	VFMADD213PS  POLY(4), Y1, Y4; \
	VFMADD213PS  POLY(5), Y1, Y4; \
	VFMADD213PS  Y13, Y1, Y4

// SIGMOID maps x in Y0 to σ(x) in Y6: z = exp(−|x|), then 1/(1+z) for
// x ≥ 0 and z/(1+z) for x < 0 (the sign bit of x picks the numerator),
// which is vecmath.Sigmoid's own split.
#define SIGMOID \
	VORPS       Y15, Y0, Y1; \
	EXPCORE; \
	VFMADD213PS Y13, Y1, Y4; \
	VMULPS      Y2, Y4, Y4; \
	VADDPS      Y13, Y4, Y5; \
	VBLENDVPS   Y0, Y4, Y13, Y6; \
	VDIVPS      Y5, Y6, Y6

// TANH maps x in Y0 to tanh(x) in Y6 through
// m = expm1(−2|x|) = (s−1) + s·r·q, which loses nothing to
// cancellation for small x (k = 0 gives m = r·q), then
// |tanh x| = −m/(2+m) and x's sign bit is put back. m = −1 once
// exp(−2|x|) falls below half an ulp of 1, so the result saturates to
// exactly ±1.
#define TANH \
	VORPS       Y15, Y0, Y1; \
	VADDPS      Y1, Y1, Y1; \
	EXPCORE; \
	VMULPS      Y1, Y2, Y5; \
	VSUBPS      Y13, Y2, Y6; \
	VFMADD231PS Y5, Y4, Y6; \
	VADDPS      TWO, Y6, Y5; \
	VDIVPS      Y5, Y6, Y6; \
	VANDNPS     Y6, Y15, Y6; \
	VANDPS      Y15, Y0, Y7; \
	VORPS       Y7, Y6, Y6

// BLOCK applies BODY to src[0:len] and writes dst[0:len].
#define BLOCK(BODY, loop, tail, done) \
	MOVQ dst_base+0(FP), DI; \
	MOVQ src_base+24(FP), SI; \
	MOVQ src_len+32(FP), CX; \
	LOADCONSTS; \
	MOVQ CX, AX; \
	SHRQ $3, AX; \
	JZ   tail; \
loop: \
	VMOVUPS (SI), Y0; \
	BODY; \
	VMOVUPS Y6, (DI); \
	ADDQ    $32, SI; \
	ADDQ    $32, DI; \
	DECQ    AX; \
	JNZ     loop; \
tail: \
	ANDQ       $7, CX; \
	JZ         done; \
	SHLQ       $2, CX; \
	LEAQ       activmask<>+32(SB), AX; \
	SUBQ       CX, AX; \
	VMOVDQU    (AX), Y8; \
	VMASKMOVPS (SI), Y8, Y0; \
	BODY; \
	VMASKMOVPS Y6, Y8, (DI); \
done: \
	VZEROUPPER; \
	RET

// func sigmoid32AVX2(dst, src []float32)
TEXT ·sigmoid32AVX2(SB), NOSPLIT, $0-48
	BLOCK(SIGMOID, sigmoid_loop, sigmoid_tail, sigmoid_done)

// func tanh32AVX2(dst, src []float32)
TEXT ·tanh32AVX2(SB), NOSPLIT, $0-48
	BLOCK(TANH, tanh_loop, tanh_tail, tanh_done)
