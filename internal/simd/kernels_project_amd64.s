//go:build amd64 && !noasm

#include "textflag.h"

// Register-tiled projection: the dot products of a block of rows with the
// rows of a basis, each one bit-identical to Dot. A tile is 2 rows x 4 basis
// rows; every (row, basis row) pair keeps dotBlocks16's sixteen accumulators
// as two ZMM registers (lanes 0-7 and 8-15 of each 16-element block), so the
// 16 accumulators of a tile fill Z16-Z31 and its loads Z0-Z5: each basis
// block is loaded once per two rows and each row block once per four basis
// rows, and the eight pairs' FMA chains run side by side. Only AVX512F
// instructions are used, and ymm/xmm forms only on Z0-Z15 (VL is not
// required).

// FOLD(x, y, imm1, imm2, dst, tmp): dst = shuffle(x, y, imm1) +
// shuffle(x, y, imm2), 128-bit lanes picked by VSHUFF64X2 (dst's low half
// from x, its high half from y).
#define FOLD(x, y, imm1, imm2, dst, tmp) \
	VSHUFF64X2 imm1, y, x, dst; \
	VSHUFF64X2 imm2, y, x, tmp; \
	VADDPD     tmp, dst, dst

// REDUCE_ROW reduces one row's four pairs (a0,a1) .. (d0,d1) with reduce16's
// tree and stores the four sums to 0(ptr) .. 24(ptr). Per pair, lanes 0-3
// of acc0-7 plus lanes 4-7 give acc0-3+acc4-7 and the same on acc8-15;
// adding those two halves gives t; pairs are packed two and then four to a
// register as they go. Then (t0+t2, t1+t3) per pair, swapped within each
// 128-bit lane and added, leaves (t0+t2)+(t1+t3) in qword lanes 0, 2, 4, 6.
// Every add keeps reduce16's left operand first. Clobbers Z0-Z11.
#define REDUCE_ROW(a0, a1, b0, b1, c0, c1, d0, d1, ptr) \
	FOLD(a0, a1, $0x44, $0xEE, Z0, Z1); \
	FOLD(b0, b1, $0x44, $0xEE, Z2, Z3); \
	FOLD(c0, c1, $0x44, $0xEE, Z4, Z5); \
	FOLD(d0, d1, $0x44, $0xEE, Z6, Z7); \
	FOLD(Z0, Z2, $0x44, $0xEE, Z8, Z9); \
	FOLD(Z4, Z6, $0x44, $0xEE, Z9, Z10); \
	FOLD(Z8, Z9, $0x88, $0xDD, Z10, Z11); \
	VPERMILPD  $0x55, Z10, Z11; \
	VADDPD     Z11, Z10, Z10; \
	VMOVSD     X10, (ptr); \
	VSHUFF64X2 $0x01, Z10, Z10, Z11; \
	VMOVSD     X11, 8(ptr); \
	VSHUFF64X2 $0x02, Z10, Z10, Z11; \
	VMOVSD     X11, 16(ptr); \
	VSHUFF64X2 $0x03, Z10, Z10, Z11; \
	VMOVSD     X11, 24(ptr)

// FMA_PAIR(r0, r1, acc0, acc1) accumulates the basis block in Z4/Z5 times
// the row block in (r0, r1) into the pair (acc0, acc1) the way
// dotBlocks16AVX2 does: acc += basis*row, fused.
#define FMA_PAIR(r0, r1, acc0, acc1) \
	VFMADD231PD r0, Z4, acc0; \
	VFMADD231PD r1, Z5, acc1

#define LOAD_BASIS(p) \
	VMOVUPD (p)(DX*8), Z4; \
	VMOVUPD 64(p)(DX*8), Z5

// func projectAVX512(basis, rows, out []float64, l, n, m int)
//
// For each of the m = 1 or 2 rows r and every basis row j < l&^3,
// out[r*l+j] = the reduced sum over the full 16-element blocks of
// Dot(basis[j*n:], rows[r*n:]); the Go wrapper adds the n%16 tail and the
// l%4 remaining basis rows. n >= 16. Two rows run as 2x4 tiles, one as 1x4.
//
// Registers: SI/DI row pointers, BX/R9/R10/R11 the tile's basis rows, CX the
// element count n&^15, DX the element index, R8 the row stride in bytes,
// R15 the out row stride, AX the out row, R12 the out column, R13 the basis
// rows left.
TEXT ·projectAVX512(SB), NOSPLIT, $0-96
	MOVQ rows_base+24(FP), SI
	MOVQ out_base+48(FP), AX
	MOVQ l+72(FP), R15
	SHLQ $3, R15
	MOVQ n+80(FP), R8
	MOVQ R8, CX
	ANDQ $-16, CX
	SHLQ $3, R8
	CMPQ m+88(FP), $2
	JL   odd_row
	LEAQ (SI)(R8*1), DI
	MOVQ basis_base+0(FP), BX
	MOVQ AX, R12
	MOVQ l+72(FP), R13
	ANDQ $-4, R13

pair_tile:
	CMPQ    R13, $0
	JE      done
	LEAQ    (BX)(R8*1), R9
	LEAQ    (R9)(R8*1), R10
	LEAQ    (R10)(R8*1), R11
	VPXORQ  Z16, Z16, Z16
	VPXORQ  Z17, Z17, Z17
	VPXORQ  Z18, Z18, Z18
	VPXORQ  Z19, Z19, Z19
	VPXORQ  Z20, Z20, Z20
	VPXORQ  Z21, Z21, Z21
	VPXORQ  Z22, Z22, Z22
	VPXORQ  Z23, Z23, Z23
	VPXORQ  Z24, Z24, Z24
	VPXORQ  Z25, Z25, Z25
	VPXORQ  Z26, Z26, Z26
	VPXORQ  Z27, Z27, Z27
	VPXORQ  Z28, Z28, Z28
	VPXORQ  Z29, Z29, Z29
	VPXORQ  Z30, Z30, Z30
	VPXORQ  Z31, Z31, Z31
	XORQ    DX, DX

pair_block:
	VMOVUPD (SI)(DX*8), Z0
	VMOVUPD 64(SI)(DX*8), Z1
	VMOVUPD (DI)(DX*8), Z2
	VMOVUPD 64(DI)(DX*8), Z3
	LOAD_BASIS(BX)
	FMA_PAIR(Z0, Z1, Z16, Z17)
	FMA_PAIR(Z2, Z3, Z18, Z19)
	LOAD_BASIS(R9)
	FMA_PAIR(Z0, Z1, Z20, Z21)
	FMA_PAIR(Z2, Z3, Z22, Z23)
	LOAD_BASIS(R10)
	FMA_PAIR(Z0, Z1, Z24, Z25)
	FMA_PAIR(Z2, Z3, Z26, Z27)
	LOAD_BASIS(R11)
	FMA_PAIR(Z0, Z1, Z28, Z29)
	FMA_PAIR(Z2, Z3, Z30, Z31)
	ADDQ    $16, DX
	CMPQ    DX, CX
	JL      pair_block

	LEAQ (R11)(R8*1), BX
	LEAQ (R12)(R15*1), R9
	REDUCE_ROW(Z16, Z17, Z20, Z21, Z24, Z25, Z28, Z29, R12)
	REDUCE_ROW(Z18, Z19, Z22, Z23, Z26, Z27, Z30, Z31, R9)
	ADDQ $32, R12
	SUBQ $4, R13
	JMP  pair_tile

odd_row:
	MOVQ basis_base+0(FP), BX
	MOVQ l+72(FP), R13
	ANDQ $-4, R13

odd_tile:
	CMPQ    R13, $0
	JE      done
	LEAQ    (BX)(R8*1), R9
	LEAQ    (R9)(R8*1), R10
	LEAQ    (R10)(R8*1), R11
	VPXORQ  Z16, Z16, Z16
	VPXORQ  Z17, Z17, Z17
	VPXORQ  Z20, Z20, Z20
	VPXORQ  Z21, Z21, Z21
	VPXORQ  Z24, Z24, Z24
	VPXORQ  Z25, Z25, Z25
	VPXORQ  Z28, Z28, Z28
	VPXORQ  Z29, Z29, Z29
	XORQ    DX, DX

odd_block:
	VMOVUPD (SI)(DX*8), Z0
	VMOVUPD 64(SI)(DX*8), Z1
	LOAD_BASIS(BX)
	FMA_PAIR(Z0, Z1, Z16, Z17)
	LOAD_BASIS(R9)
	FMA_PAIR(Z0, Z1, Z20, Z21)
	LOAD_BASIS(R10)
	FMA_PAIR(Z0, Z1, Z24, Z25)
	LOAD_BASIS(R11)
	FMA_PAIR(Z0, Z1, Z28, Z29)
	ADDQ    $16, DX
	CMPQ    DX, CX
	JL      odd_block

	LEAQ (R11)(R8*1), BX
	REDUCE_ROW(Z16, Z17, Z20, Z21, Z24, Z25, Z28, Z29, AX)
	ADDQ $32, AX
	SUBQ $4, R13
	JMP  odd_tile

done:
	VZEROUPPER
	RET

// AVX2 tier: a tile is 3 rows x 1 basis row. Each pair keeps
// dotBlocks16AVX2's four YMM accumulators (Y0-Y3, Y4-Y7, Y8-Y11) and its
// operand roles (the basis block in registers, Y12-Y15, the row block as the
// FMA memory operand): the basis block is loaded once per three rows and
// twelve FMA chains run side by side instead of four.

// REDUCE_PAIR_AVX2 is dotBlocks16AVX2's reduction of one pair's
// accumulators (a0..a3) into the scalar at ptr. Clobbers Y12, Y13.
#define REDUCE_PAIR_AVX2(a0, a1, a2, a3, ptr) \
	VADDPD       a1, a0, Y12; \
	VADDPD       a3, a2, Y13; \
	VADDPD       Y13, Y12, Y12; \
	VEXTRACTF128 $1, Y12, X13; \
	VADDPD       X13, X12, X12; \
	VUNPCKHPD    X12, X12, X13; \
	VADDSD       X13, X12, X12; \
	VMOVSD       X12, ptr

#define FMA_ROW_AVX2(p, a0, a1, a2, a3) \
	VFMADD231PD (p)(DX*8), Y12, a0; \
	VFMADD231PD 32(p)(DX*8), Y13, a1; \
	VFMADD231PD 64(p)(DX*8), Y14, a2; \
	VFMADD231PD 96(p)(DX*8), Y15, a3

// func projectAVX2(basis, rows, out []float64, l, n int)
//
// projectAVX512's contract for the 3 rows rows holds and every basis row
// j < l. n >= 16.
//
// Registers: SI/DI/R9 the tile's rows, BX the basis row, CX the element
// count n&^15, DX the element index, R8 the row stride in bytes, R15 the out
// row stride, R12 the out column, R13 the basis rows left.
TEXT ·projectAVX2(SB), NOSPLIT, $0-88
	MOVQ rows_base+24(FP), SI
	MOVQ out_base+48(FP), R12
	MOVQ l+72(FP), R15
	SHLQ $3, R15
	MOVQ n+80(FP), R8
	MOVQ R8, CX
	ANDQ $-16, CX
	SHLQ $3, R8
	LEAQ (SI)(R8*1), DI
	LEAQ (DI)(R8*1), R9
	MOVQ basis_base+0(FP), BX
	MOVQ l+72(FP), R13

tile3:
	CMPQ   R13, $0
	JE     done3
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ   DX, DX

block3:
	VMOVUPD (BX)(DX*8), Y12
	VMOVUPD 32(BX)(DX*8), Y13
	VMOVUPD 64(BX)(DX*8), Y14
	VMOVUPD 96(BX)(DX*8), Y15
	FMA_ROW_AVX2(SI, Y0, Y1, Y2, Y3)
	FMA_ROW_AVX2(DI, Y4, Y5, Y6, Y7)
	FMA_ROW_AVX2(R9, Y8, Y9, Y10, Y11)
	ADDQ    $16, DX
	CMPQ    DX, CX
	JL      block3

	ADDQ R8, BX
	REDUCE_PAIR_AVX2(Y0, Y1, Y2, Y3, (R12))
	REDUCE_PAIR_AVX2(Y4, Y5, Y6, Y7, (R12)(R15*1))
	REDUCE_PAIR_AVX2(Y8, Y9, Y10, Y11, (R12)(R15*2))
	ADDQ $8, R12
	DECQ R13
	JMP  tile3

done3:
	VZEROUPPER
	RET
