//go:build !noasm

#include "textflag.h"

DATA lstmone<>+0(SB)/4, $0x3f800000
DATA lstmone<>+4(SB)/4, $0x3f800000
DATA lstmone<>+8(SB)/4, $0x3f800000
DATA lstmone<>+12(SB)/4, $0x3f800000
DATA lstmone<>+16(SB)/4, $0x3f800000
DATA lstmone<>+20(SB)/4, $0x3f800000
DATA lstmone<>+24(SB)/4, $0x3f800000
DATA lstmone<>+28(SB)/4, $0x3f800000
GLOBL lstmone<>(SB), RODATA|NOPTR, $32

// func lstmGateGradsAVX2(gates, dh []float32, dout []float64, dc, tc, cPrev []float32, n int)
//
// LSTMGateGrads32 over units [0, n), n a multiple of eight, eight at a
// time. Every product and sum is its own VMULPS/VADDPS/VSUBPS, in the
// order lstmGateGradsGo rounds them. Registers: Y0–Y3 i, f, o, g;
// Y4 dout then dh'; Y5 tc; Y6 dc'; Y7–Y11 scratch; Y15 ones. The four
// gate blocks are h = len(dh) units apart (R9 bytes).
TEXT ·lstmGateGradsAVX2(SB), NOSPLIT, $0-152
	MOVQ gates_base+0(FP), DI
	MOVQ dh_base+24(FP), SI
	MOVQ dh_len+32(FP), R9
	SHLQ $2, R9
	MOVQ dout_base+48(FP), DX
	MOVQ dc_base+72(FP), R10
	MOVQ tc_base+96(FP), R11
	MOVQ cPrev_base+120(FP), R12
	MOVQ n+144(FP), CX
	SHRQ $3, CX
	JZ   done
	LEAQ (DI)(R9*2), R13 // o block
	VMOVUPS lstmone<>(SB), Y15

loop:
	VMOVUPS     (DI), Y0
	VMOVUPS     (DI)(R9*1), Y1
	VMOVUPS     (R13), Y2
	VMOVUPS     (R13)(R9*1), Y3
	VCVTPD2PSY  (DX), X4
	VCVTPD2PSY  32(DX), X7
	VINSERTF128 $1, X7, Y4, Y4
	VADDPS      (SI), Y4, Y4   // dh' = dh + dout
	VMOVUPS     (R11), Y5
	VMULPS      Y5, Y5, Y7     // tc²
	VSUBPS      Y7, Y15, Y7    // 1 − tc²
	VMULPS      Y2, Y4, Y6     // dh'·o
	VMULPS      Y7, Y6, Y6
	VADDPS      (R10), Y6, Y6  // dc' = dc + dh'·o·(1 − tc²)

	VMULPS Y3, Y6, Y8  // dc'·g
	VMULPS Y0, Y8, Y8
	VSUBPS Y0, Y15, Y9 // 1 − i
	VMULPS Y9, Y8, Y8
	VMOVUPS Y8, (DI)   // di

	VMULPS  (R12), Y6, Y8 // dc'·cPrev
	VMULPS  Y1, Y8, Y8
	VSUBPS  Y1, Y15, Y9   // 1 − f
	VMULPS  Y9, Y8, Y8
	VMOVUPS Y8, (DI)(R9*1) // df

	VMULPS  Y5, Y4, Y8 // dh'·tc
	VMULPS  Y2, Y8, Y8
	VSUBPS  Y2, Y15, Y9 // 1 − o
	VMULPS  Y9, Y8, Y8
	VMOVUPS Y8, (R13)   // do

	VMULPS  Y3, Y3, Y9  // g²
	VSUBPS  Y9, Y15, Y9 // 1 − g²
	VMULPS  Y0, Y6, Y8  // dc'·i
	VMULPS  Y9, Y8, Y8
	VMOVUPS Y8, (R13)(R9*1) // dg

	VMULPS  Y1, Y6, Y8 // dc'·f
	VMOVUPS Y8, (R10)

	ADDQ $32, DI
	ADDQ $32, R13
	ADDQ $32, SI
	ADDQ $64, DX
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET
