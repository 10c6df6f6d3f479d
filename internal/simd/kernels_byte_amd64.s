//go:build amd64 && !noasm

#include "textflag.h"
#include "go_asm.h"

// The byte pass of LookupAccumBlockFastScan (see kernels_byte.go) on the
// AVX-512 VBMI tier. One group is 64 series of the row-major block; its
// verdict is one 64-bit mask, lane b = series g+b.
//
// Per 16-position piece of a group:
//
//   - assemble: 16 registers, each holding four consecutive series' piece
//     position-major (dword k = position k of the four series), with one
//     two-source byte permute (l <= 48) or three 128-bit inserts and a byte
//     permute (l >= 64); at l = 16 two permutes of eight series' rows give
//     the first transpose stage's output directly;
//   - transpose the 16x16 dword matrix (unpack dwords, unpack qwords, then a
//     4x4 transpose of 128-bit lanes), leaving Zk = position k of all 64
//     series, lane b = series g+b;
//   - look every position up in its 256-byte table row: two VPERMT2B over
//     the row's halves, selected on the symbol's top bit (VPMOVB2M +
//     VPBLENDMB), added into the lane sums with VPADDUSB. A group no lane of
//     which is still <= the threshold skips its remaining pieces.
//
// The lanes whose saturated sum is <= the threshold run the exact float64
// chain, each lane add for add LookupAccumEASeq's, eight series per vector;
// the ones whose exact sum is <= bsf are appended to the survivor list.

// Lane numbers as qwords: the series of a queue run's lanes.
DATA byteIota8<>+0(SB)/8, $0
DATA byteIota8<>+8(SB)/8, $1
DATA byteIota8<>+16(SB)/8, $2
DATA byteIota8<>+24(SB)/8, $3
DATA byteIota8<>+32(SB)/8, $4
DATA byteIota8<>+40(SB)/8, $5
DATA byteIota8<>+48(SB)/8, $6
DATA byteIota8<>+56(SB)/8, $7
GLOBL byteIota8<>(SB), RODATA|NOPTR, $64

// Four series' piece, l <= 48: A at the first series' piece, B = A + 3l-48
// (CX) ending at the fourth's; the permute (Z21 = perm[0]) picks the four
// pieces.
// AX steps to the next four series (R13 = 4l).
#define NARROW(Z) \
	VMOVDQU64 (AX), Z; \
	VPERMT2B  (AX)(CX*1), Z21, Z; \
	ADDQ      R13, AX

// Four series' piece, l >= 64: the pieces into the four 128-bit lanes (CX =
// 3l), then the permute to position-major.
#define WIDE(Z, X) \
	VMOVDQU      (AX), X; \
	VINSERTI32X4 $1, (AX)(BX*1), Z, Z; \
	VINSERTI32X4 $2, (AX)(BX*2), Z, Z; \
	VINSERTI32X4 $3, (AX)(CX*1), Z, Z; \
	VPERMB       Z, Z21, Z; \
	ADDQ         R13, AX

// Eight series' piece at l = 16, the transpose's first stage folded in: A
// (eight rows, 128 bytes at AX) permuted by Z24 and Z27 straight into the
// dword-interleaved pair of rows stage 1 would make of the two four-series
// registers.
#define PAIR16(Za, Zb) \
	VMOVDQU64 (AX), Za; \
	VMOVDQU64 (AX), Zb; \
	VPERMT2B  64(AX), Z24, Za; \
	VPERMT2B  64(AX), Z27, Zb; \
	ADDQ      $128, AX

// Transpose stage 1: interleave the dwords of a pair of rows.
#define T1(a, b) \
	VPUNPCKLDQ b, a, Z16; \
	VPUNPCKHDQ b, a, b; \
	VMOVDQA64  Z16, a

// Stage 2: interleave the qwords of rows a,c and b,d; afterwards 128-bit
// lane c of row 4j+m holds dword 4c+m of rows 4j..4j+3.
#define T2(a, b, c, d) \
	VPUNPCKLQDQ c, a, Z16; \
	VPUNPCKHQDQ c, a, Z17; \
	VPUNPCKLQDQ d, b, c; \
	VPUNPCKHQDQ d, b, d; \
	VMOVDQA64   Z16, a; \
	VMOVDQA64   Z17, b

// Stages 3 and 4: the 4x4 transpose of the 128-bit lanes of rows m, 4+m,
// 8+m, 12+m.
#define T34(A, B, C, D) \
	VSHUFI64X2 $0x44, B, A, Z16; \
	VSHUFI64X2 $0xEE, B, A, Z17; \
	VSHUFI64X2 $0x44, D, C, Z18; \
	VSHUFI64X2 $0xEE, D, C, Z19; \
	VSHUFI64X2 $0x88, Z18, Z16, A; \
	VSHUFI64X2 $0xDD, Z18, Z16, B; \
	VSHUFI64X2 $0x88, Z19, Z17, C; \
	VSHUFI64X2 $0xDD, Z19, Z17, D

// One position's lookup, symbols in Z, the byte table row at R8; the sums
// accumulate in Z20.
#define LOOK(Z) \
	VMOVDQU64 (R8), Z22; \
	VPERMT2B  64(R8), Z, Z22; \
	VMOVDQU64 128(R8), Z23; \
	VPERMT2B  192(R8), Z, Z23; \
	VPMOVB2M  Z, K1; \
	VPBLENDMB Z23, Z22, K1, Z22; \
	VPADDUSB  Z22, Z20, Z20; \
	ADDQ      $256, R8

// The exact pass runs eight queued series per vector, each lane the
// sequential chain of one series (the AVX-512 staged kernel's gathers): one
// qword gather takes eight symbols per lane at byte offsets Z1, each symbol
// indexes its float64 table row at R8 (Z28 = 0xff, Z29 = 8), lanes K3.
#define XROW \
	VPXORQ     Z5, Z5, Z5; \
	KMOVW      K3, K2; \
	VGATHERQPD (R8)(Z4*8), K2, Z5; \
	ADDQ       $const_Alphabet*8, R8; \
	VADDPD     Z5, Z0, Z0

#define XPOS(shift) \
	VPSRLQ $shift, Z2, Z4; \
	VPANDQ Z28, Z4, Z4; \
	XROW

#define XGROUP \
	KMOVW      K3, K2; \
	VPGATHERQQ (SI)(Z1*1), K2, Z2; \
	VPANDQ     Z28, Z2, Z4; \
	XROW; \
	XPOS(8); \
	XPOS(16); \
	XPOS(24); \
	XPOS(32); \
	XPOS(40); \
	XPOS(48); \
	VPSRLQ     $56, Z2, Z4; \
	XROW; \
	VPADDQ     Z29, Z1, Z1

// func lookupByteVBMI(words []byte, n, l int, q []uint8, perm *[3][64]byte,
//                     table []float64, thr int, bsf float64, out []float64,
//                     surv []int32, base int) (survivors, kept int)
//
// l is a multiple of 16; words holds ceil(n/64)*64 rows (lanes past n are
// masked off). Survivors are written as base + index; kept counts the series
// the byte pass handed the exact pass.
TEXT ·lookupByteVBMI(SB), NOSPLIT, $136-184
	MOVQ         words_base+0(FP), SI
	MOVQ         l+32(FP), BX
	MOVQ         perm+64(FP), AX
	VMOVDQU64    (AX), Z21
	VMOVDQU64    64(AX), Z24
	VMOVDQU64    128(AX), Z27
	MOVQ         thr+96(FP), AX
	VPBROADCASTB AX, Z26
	VBROADCASTSD bsf+104(FP), Z25
	MOVQ         $0xff, AX
	VPBROADCASTQ AX, Z28
	MOVQ         $8, AX
	VPBROADCASTQ AX, Z29
	VPBROADCASTQ BX, Z30
	VMOVDQU64    byteIota8<>(SB), Z31
	MOVQ         out_base+112(FP), DI
	XORQ         R9, R9               // survivors
	XORQ         R10, R10             // queued series
	MOVQ         $0, 128(SP)          // kept series
	XORQ         DX, DX               // group's first series

bg_group:
	MOVQ   words_base+0(FP), SI
	MOVQ   BX, R13
	SHLQ   $2, R13                    // 4l: four series
	VPXORQ Z20, Z20, Z20
	MOVQ   q_base+40(FP), R8
	MOVQ   DX, R14
	IMULQ  BX, R14
	ADDQ   SI, R14                    // group's first row
	LEAQ   (BX)(BX*2), CX             // 3l
	CMPQ   BX, $48
	JG     bg_offset
	SUBQ   $48, CX                    // l <= 48: B = A + 3l-48

bg_offset:
	XORQ R15, R15                     // piece offset 16h

bg_piece:
	LEAQ (R14)(R15*1), AX
	CMPQ BX, $16
	JE   bg_pair
	CMPQ BX, $48
	JG   bg_wide
	NARROW(Z0)
	NARROW(Z1)
	NARROW(Z2)
	NARROW(Z3)
	NARROW(Z4)
	NARROW(Z5)
	NARROW(Z6)
	NARROW(Z7)
	NARROW(Z8)
	NARROW(Z9)
	NARROW(Z10)
	NARROW(Z11)
	NARROW(Z12)
	NARROW(Z13)
	NARROW(Z14)
	NARROW(Z15)
	JMP  bg_transpose

bg_wide:
	WIDE(Z0, X0)
	WIDE(Z1, X1)
	WIDE(Z2, X2)
	WIDE(Z3, X3)
	WIDE(Z4, X4)
	WIDE(Z5, X5)
	WIDE(Z6, X6)
	WIDE(Z7, X7)
	WIDE(Z8, X8)
	WIDE(Z9, X9)
	WIDE(Z10, X10)
	WIDE(Z11, X11)
	WIDE(Z12, X12)
	WIDE(Z13, X13)
	WIDE(Z14, X14)
	WIDE(Z15, X15)
	JMP  bg_transpose

bg_pair:
	PAIR16(Z0, Z1)
	PAIR16(Z2, Z3)
	PAIR16(Z4, Z5)
	PAIR16(Z6, Z7)
	PAIR16(Z8, Z9)
	PAIR16(Z10, Z11)
	PAIR16(Z12, Z13)
	PAIR16(Z14, Z15)
	JMP  bg_stage2

bg_transpose:
	T1(Z0, Z1)
	T1(Z2, Z3)
	T1(Z4, Z5)
	T1(Z6, Z7)
	T1(Z8, Z9)
	T1(Z10, Z11)
	T1(Z12, Z13)
	T1(Z14, Z15)

bg_stage2:
	T2(Z0, Z1, Z2, Z3)
	T2(Z4, Z5, Z6, Z7)
	T2(Z8, Z9, Z10, Z11)
	T2(Z12, Z13, Z14, Z15)
	T34(Z0, Z4, Z8, Z12)
	T34(Z1, Z5, Z9, Z13)
	T34(Z2, Z6, Z10, Z14)
	T34(Z3, Z7, Z11, Z15)
	LOOK(Z0)
	LOOK(Z1)
	LOOK(Z2)
	LOOK(Z3)
	LOOK(Z4)
	LOOK(Z5)
	LOOK(Z6)
	LOOK(Z7)
	LOOK(Z8)
	LOOK(Z9)
	LOOK(Z10)
	LOOK(Z11)
	LOOK(Z12)
	LOOK(Z13)
	LOOK(Z14)
	LOOK(Z15)
	ADDQ $16, R15
	CMPQ R15, BX
	JGE  bg_verdict
	// Sums only grow: once no lane is <= thr, the group is decided.
	VPCMPUB  $2, Z26, Z20, K2
	KORTESTQ K2, K2
	JNZ      bg_piece

bg_verdict:
	// Verdict: keep = sum <= thr, over the lanes that hold a series.
	VPCMPUB $2, Z26, Z20, K2
	KMOVQ   K2, R12
	MOVQ    n+24(FP), AX
	SUBQ    DX, AX
	CMPQ    AX, $64
	JGE     bg_kept
	MOVQ    AX, CX
	MOVQ    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	ANDQ    AX, R12

bg_kept:
	// The kept series a byte of the mask (eight lanes) at a time: a byte
	// with four or more runs in place; the series of sparser ones are
	// queued (indices as qwords at 0(SP), R10 of them) and run eight at a
	// time. The queue runs first whenever a byte runs in place, so the
	// survivors are appended in ascending order.
	TESTQ        R12, R12
	JE           bg_next
	POPCNTQ      R12, AX
	ADDQ         AX, 128(SP)
	VPBROADCASTQ DX, Z9
	VPADDQ       Z31, Z9, Z9          // series of the mask's low byte
	MOVQ         DX, R13              // and the first of them

bg_chunk:
	MOVQ    R12, AX
	ANDQ    $0xff, AX
	JE      bg_chunk_next
	POPCNTL AX, CX
	CMPQ    CX, $4
	JGE     bg_dense
	KMOVW       AX, K3
	VPCOMPRESSQ Z9, K3, Z10
	VMOVDQU64   Z10, 0(SP)(R10*8)     // slots past the queue are scratch
	ADDQ        CX, R10
	CMPQ        R10, $8
	JL          bg_chunk_next
	MOVQ        $0xff, AX
	VMOVDQU64   0(SP), Z12
	MOVQ        $1, R14               // run mode 1: a full queue
	JMP         bg_run

bg_ran_queue:
	VMOVDQU64 64(SP), Z10             // the rest to the front
	VMOVDQU64 Z10, 0(SP)
	SUBQ      $8, R10
	JMP       bg_chunk_next

bg_dense:
	TESTQ R10, R10
	JE    bg_dense_run
	MOVQ  R10, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	VMOVDQU64 0(SP), Z12
	MOVQ  $3, R14                     // run mode 3: the queue, then the byte
	JMP   bg_run

bg_dense_queued:
	XORQ R10, R10
	MOVQ R12, AX
	ANDQ $0xff, AX

bg_dense_run:
	VMOVDQA64 Z9, Z12
	MOVQ      $0, R14                 // run mode 0: a byte in place

	JMP       bg_run

bg_chunk_next:
	VPADDQ Z29, Z9, Z9
	ADDQ   $8, R13
	SHRQ   $8, R12
	JNE    bg_chunk

bg_next:
	ADDQ $64, DX
	CMPQ DX, n+24(FP)
	JL   bg_group

	// Run what is still queued under a mask of its size.
	TESTQ R10, R10
	JE    bg_done
	MOVQ  R10, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	VMOVDQU64 0(SP), Z12
	MOVQ  $2, R14                     // run mode 2: the end

bg_run:
	// The exact chains of the series Z12 in lanes AX: their sums (or
	// partial sums above bsf) go to out, the ones <= bsf (base + index) to
	// the survivor list.
	KMOVW     AX, K3
	KMOVW     AX, K1
	VPMULUDQ  Z30, Z12, Z1            // byte offsets of the rows
	VPXORQ    Z0, Z0, Z0
	MOVQ      table_base+72(FP), R8
	MOVQ      BX, R15

bg_rungroup:
	// Each 8-position group, drop the lanes whose partial sum already
	// exceeds bsf, as LookupAccumEASeq abandons (the gathers skip them);
	// their partial sums are what goes to out.
	XGROUP
	VCMPPD   $0x1A, Z25, Z0, K3, K3   // live = !(sum > bsf) (NGT_UQ)
	KORTESTW K3, K3
	JZ       bg_runend
	SUBQ     $8, R15
	JNE      bg_rungroup

bg_runend:
	CMPQ        R14, $0
	JNE         bg_scatter
	VMOVUPD     Z0, K1, (DI)(R13*8)   // a byte in place: contiguous lanes
	JMP         bg_stored

bg_scatter:
	KMOVW       K1, K2
	VSCATTERQPD Z0, K2, (DI)(Z12*8)

bg_stored:
	VCMPPD      $0x12, Z25, Z0, K1, K4   // sum <= bsf (LE_OQ)
	KMOVW       K4, AX
	TESTQ       AX, AX
	JE          bg_ran
	VPMOVQD      Z12, Y10
	VPBROADCASTD base+160(FP), Z11
	VPADDD       Z11, Z10, Z10
	VPCOMPRESSD  Z10, K4, Z10
	POPCNTL      AX, CX
	MOVQ         $1, AX
	SHLQ         CX, AX
	DECQ         AX
	KMOVW        AX, K4
	MOVQ         surv_base+136(FP), R11
	VMOVDQU32    Z10, K4, (R11)(R9*4)  // the survivors, a masked plain store
	ADDQ         CX, R9

bg_ran:
	CMPQ R14, $0
	JE   bg_chunk_next
	CMPQ R14, $1
	JE   bg_ran_queue
	CMPQ R14, $3
	JE   bg_dense_queued

bg_done:
	MOVQ R9, survivors+168(FP)
	MOVQ 128(SP), AX
	MOVQ AX, kept+176(FP)
	VZEROUPPER
	RET

// func quantizeVBMI(table []float64, scale float64, q []uint8)
//
// q[i] = ⌊table[i]·scale⌋ saturated to 255 (out-of-range, +Inf and NaN
// convert to 2³²-1, which saturates too). len(table) is a multiple of 16
// and len(q) >= len(table).
TEXT ·quantizeVBMI(SB), NOSPLIT, $0-56
	MOVQ         table_base+0(FP), SI
	MOVQ         table_len+8(FP), CX
	VBROADCASTSD scale+24(FP), Z2
	MOVQ         q_base+32(FP), DI
	XORQ         AX, AX

qz_loop:
	VMULPD       (SI)(AX*8), Z2, Z0
	VMULPD       64(SI)(AX*8), Z2, Z1
	VCVTTPD2UDQ  Z0, Y0
	VCVTTPD2UDQ  Z1, Y1
	VINSERTI64X4 $1, Y1, Z0, Z0
	VPMOVUSDB    Z0, (DI)(AX*1)
	ADDQ         $16, AX
	CMPQ         AX, CX
	JL           qz_loop
	VZEROUPPER
	RET
