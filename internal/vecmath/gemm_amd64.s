//go:build !noasm

#include "textflag.h"

// func gemmTile4x8(k int, a0, a1, a2, a3 *float64, csa int, b *float64, ldb int, c0, c1, c2, c3 *float64)
//
// Eight YMM accumulators hold the 4×8 tile of C for the whole k loop.
// Each step loads one row of B (two vectors), broadcasts one element
// of each A row and issues eight FMAs: two loads of B and four
// broadcasts feed eight FMAs, so the loop is bound by the FMA ports,
// not by loads.
TEXT ·gemmTile4x8(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ csa+40(FP), R12
	SHLQ $3, R12
	MOVQ b+48(FP), SI
	MOVQ ldb+56(FP), R13
	SHLQ $3, R13
	MOVQ c0+64(FP), AX
	MOVQ c1+72(FP), BX
	MOVQ c2+80(FP), DX
	MOVQ c3+88(FP), DI

	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD (BX), Y2
	VMOVUPD 32(BX), Y3
	VMOVUPD (DX), Y4
	VMOVUPD 32(DX), Y5
	VMOVUPD (DI), Y6
	VMOVUPD 32(DI), Y7

	TESTQ CX, CX
	JZ    tile_store

tile_loop:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (R8), Y10
	VBROADCASTSD (R9), Y11
	VBROADCASTSD (R10), Y12
	VBROADCASTSD (R11), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R12, R8
	ADDQ         R12, R9
	ADDQ         R12, R10
	ADDQ         R12, R11
	ADDQ         R13, SI
	DECQ         CX
	JNZ          tile_loop

tile_store:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, 32(BX)
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func gemmTile4x16(k int, a0, a1, a2, a3 *float32, csa int, b *float32, ldb int, c0, c1, c2, c3 *float32)
//
// gemmTile4x8 in float32: the same eight YMM accumulators now hold a
// 4×16 tile, eight lanes each, so a step moves 64 bytes of B for eight
// FMAs where the float64 tile moves 64 bytes for half the products. At
// twice the FMAs per byte the loop's own bookkeeping starts to count:
// the four rows of A share one offset register (R14) and the loop runs
// two steps per iteration.
#define STEP32 \
	VMOVUPS      (SI), Y8; \
	VMOVUPS      32(SI), Y9; \
	VBROADCASTSS (R8)(R14*1), Y10; \
	VBROADCASTSS (R9)(R14*1), Y11; \
	VBROADCASTSS (R10)(R14*1), Y12; \
	VBROADCASTSS (R11)(R14*1), Y13; \
	VFMADD231PS  Y8, Y10, Y0; \
	VFMADD231PS  Y9, Y10, Y1; \
	VFMADD231PS  Y8, Y11, Y2; \
	VFMADD231PS  Y9, Y11, Y3; \
	VFMADD231PS  Y8, Y12, Y4; \
	VFMADD231PS  Y9, Y12, Y5; \
	VFMADD231PS  Y8, Y13, Y6; \
	VFMADD231PS  Y9, Y13, Y7; \
	ADDQ         R12, R14; \
	ADDQ         R13, SI

TEXT ·gemmTile4x16(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ csa+40(FP), R12
	SHLQ $2, R12
	MOVQ b+48(FP), SI
	MOVQ ldb+56(FP), R13
	SHLQ $2, R13
	MOVQ c0+64(FP), AX
	MOVQ c1+72(FP), BX
	MOVQ c2+80(FP), DX
	MOVQ c3+88(FP), DI
	XORQ R14, R14

	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVUPS (BX), Y2
	VMOVUPS 32(BX), Y3
	VMOVUPS (DX), Y4
	VMOVUPS 32(DX), Y5
	VMOVUPS (DI), Y6
	VMOVUPS 32(DI), Y7

	MOVQ CX, R15
	SHRQ $1, R15
	JZ   tile32_odd

tile32_loop:
	STEP32
	STEP32
	DECQ R15
	JNZ  tile32_loop

tile32_odd:
	TESTQ $1, CX
	JZ    tile32_store
	STEP32

tile32_store:
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, (BX)
	VMOVUPS Y3, 32(BX)
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func gemmTile4x32(k int, a0, a1, a2, a3 *float32, csa int, b *float32, ldb int, c0, c1, c2, c3 *float32)
//
// gemmTile4x16 on AVX-512F: the same eight accumulators, now ZMM, hold
// a 4×32 tile, so each FMA does sixteen multiply-adds. Every lane runs
// the same fused multiply-add chain in k order as the YMM tile's, so
// the two tiles write the same bits.
#define STEP512 \
	VMOVUPS      (SI), Z8; \
	VMOVUPS      64(SI), Z9; \
	VBROADCASTSS (R8)(R14*1), Z10; \
	VBROADCASTSS (R9)(R14*1), Z11; \
	VBROADCASTSS (R10)(R14*1), Z12; \
	VBROADCASTSS (R11)(R14*1), Z13; \
	VFMADD231PS  Z8, Z10, Z0; \
	VFMADD231PS  Z9, Z10, Z1; \
	VFMADD231PS  Z8, Z11, Z2; \
	VFMADD231PS  Z9, Z11, Z3; \
	VFMADD231PS  Z8, Z12, Z4; \
	VFMADD231PS  Z9, Z12, Z5; \
	VFMADD231PS  Z8, Z13, Z6; \
	VFMADD231PS  Z9, Z13, Z7; \
	ADDQ         R12, R14; \
	ADDQ         R13, SI

TEXT ·gemmTile4x32(SB), NOSPLIT, $0-96
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ csa+40(FP), R12
	SHLQ $2, R12
	MOVQ b+48(FP), SI
	MOVQ ldb+56(FP), R13
	SHLQ $2, R13
	MOVQ c0+64(FP), AX
	MOVQ c1+72(FP), BX
	MOVQ c2+80(FP), DX
	MOVQ c3+88(FP), DI
	XORQ R14, R14

	VMOVUPS (AX), Z0
	VMOVUPS 64(AX), Z1
	VMOVUPS (BX), Z2
	VMOVUPS 64(BX), Z3
	VMOVUPS (DX), Z4
	VMOVUPS 64(DX), Z5
	VMOVUPS (DI), Z6
	VMOVUPS 64(DI), Z7

	MOVQ CX, R15
	SHRQ $1, R15
	JZ   tile512_odd

tile512_loop:
	STEP512
	STEP512
	DECQ R15
	JNZ  tile512_loop

tile512_odd:
	TESTQ $1, CX
	JZ    tile512_store
	STEP512

tile512_store:
	VMOVUPS Z0, (AX)
	VMOVUPS Z1, 64(AX)
	VMOVUPS Z2, (BX)
	VMOVUPS Z3, 64(BX)
	VMOVUPS Z4, (DX)
	VMOVUPS Z5, 64(DX)
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, 64(DI)
	VZEROUPPER
	RET
