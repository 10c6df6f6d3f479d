//go:build amd64 && !noasm

#include "textflag.h"
#include "go_asm.h"

// Block-granularity LBD kernel bodies. Layout: SERIES across lanes — each
// vector lane owns one series and accumulates its positions SEQUENTIALLY,
// so every lane reproduces, add for add, the scalar sequential chain of
// the portable reference (bit-identity without any reduction tree).
//
// Per 8-position group, ONE VPGATHERQQ pulls 8 symbol bytes per series as
// a qword (the SoA block rows are contiguous, stride l); each position is
// then extracted with VPSRLQ/VPAND into the index of its entry in the
// position's table row (entry j*Alphabet+sym), feeding a VGATHERQPD, so one
// gather per position serves 4 (AVX2) or 8 (AVX-512) series.
//
// All bodies cover the full 8-position groups (l &^ 7 positions); the Go
// wrappers append position tails sequentially.
//
// The lookup bodies are staged (see kernels_block.go for the contract).
// Stage 1 runs group 0 for a stripe, stores every lane's partial sum to
// out and compares it with bsf; a lane above bsf is finished — its partial
// sum is its certificate. Stage 2 runs the remaining groups for the lanes
// left: a stripe that kept most of its lanes (6 of 8, 3 of 4) continues in
// place with all of them, the live lanes of any other stripe are queued — series index and
// partial sum — on the stack, and the queue runs as one full vector as soon
// as it holds a stripe's worth, scattering its sums to out; what remains at
// the end runs once more, partly filled. Byte offsets are recomputed from
// the series index (index*l), so a queued lane needs nothing else. They
// return the number of lanes that outlived stage 1.
//
// The AVX-512 bodies process tail stripes (< 8 series) under a K mask, so
// no scalar series remainder exists; the AVX2 bodies cover n &^ 3 series
// and the dispatcher routes the rest through the reference.

// Lane numbers: iota8 as qwords (series index of each lane of a stripe),
// iota16d as dwords (survivor indices for VPCOMPRESSD).
DATA iota8<>+0(SB)/8, $0
DATA iota8<>+8(SB)/8, $1
DATA iota8<>+16(SB)/8, $2
DATA iota8<>+24(SB)/8, $3
DATA iota8<>+32(SB)/8, $4
DATA iota8<>+40(SB)/8, $5
DATA iota8<>+48(SB)/8, $6
DATA iota8<>+56(SB)/8, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $64

DATA iota16d<>+0(SB)/8, $0x0000000100000000
DATA iota16d<>+8(SB)/8, $0x0000000300000002
DATA iota16d<>+16(SB)/8, $0x0000000500000004
DATA iota16d<>+24(SB)/8, $0x0000000700000006
DATA iota16d<>+32(SB)/8, $0x0000000900000008
DATA iota16d<>+40(SB)/8, $0x0000000b0000000a
DATA iota16d<>+48(SB)/8, $0x0000000d0000000c
DATA iota16d<>+56(SB)/8, $0x0000000f0000000e
GLOBL iota16d<>(SB), RODATA|NOPTR, $64

// One table row is one word position's Alphabet float64 entries; row 8
// starts stage 2.
#define ROW_BYTES (const_Alphabet*8)
#define ROW8_BYTES (const_Alphabet*64)

// One lookup position, the symbol already taken out of Y2's qwords into Y4:
// gather the entries of the table row at R8, step R8 to the next row,
// accumulate. Y13 = gather mask scratch.
#define LUT2_ROW \
	VPCMPEQD   Y13, Y13, Y13; \
	VGATHERQPD Y13, (R8)(Y4*8), Y5; \
	ADDQ       $ROW_BYTES, R8; \
	VADDPD     Y5, Y0, Y0

#define LUT2_POS(shift) \
	VPSRLQ $shift, Y2, Y4; \
	VPAND  Y6, Y4, Y4; \
	LUT2_ROW

// One 8-position group of all four lanes: 8 symbol bytes per lane in one
// qword gather at byte offsets Y1 (Y6 = 0xff), eight lookups from the row
// at R8 on, offsets advanced (Y8 = 8).
#define LUT2_GROUP \
	VPCMPEQD   Y13, Y13, Y13; \
	VPGATHERQQ Y13, (SI)(Y1*1), Y2; \
	VPAND      Y6, Y2, Y4; \
	LUT2_ROW; \
	LUT2_POS(8); \
	LUT2_POS(16); \
	LUT2_POS(24); \
	LUT2_POS(32); \
	LUT2_POS(40); \
	LUT2_POS(48); \
	VPSRLQ     $56, Y2, Y4; \
	LUT2_ROW; \
	VPADDQ     Y8, Y1, Y1

// func lookupBlockAVX2(words []byte, n, l int, table []float64,
//                      out []float64, bsf float64) (alive int)
//
// n is a multiple of 4 and l >= 8. Frame: the queue — series indices at
// 0(SP), partial sums at 64(SP), 8 slots each (at most 3 waiting + 2 new).
TEXT ·lookupBlockAVX2(SB), NOSPLIT, $128-104
	MOVQ words_base+0(FP), SI
	MOVQ n+24(FP), CX
	MOVQ l+32(FP), BX
	MOVQ table_base+40(FP), R12
	MOVQ out_base+64(FP), DI

	// Constants: Y8 = 8, Y6 = 0xff, Y9 = l, Y11 = {0,1,2,3} (qword lanes),
	// Y14 = bsf.
	MOVQ         $8, R8
	VMOVQ        R8, X8
	VPBROADCASTQ X8, Y8
	MOVQ         $0xff, R8
	VMOVQ        R8, X6
	VPBROADCASTQ X6, Y6
	VMOVQ        BX, X9
	VPBROADCASTQ X9, Y9
	VMOVDQU      iota8<>(SB), Y11
	VBROADCASTSD bsf+88(FP), Y14

	ANDQ $-8, BX                   // nb = l &^ 7

	XORQ DX, DX                    // stripe base series
	XORQ R9, R9                    // queued lanes
	XORQ AX, AX                    // lanes that outlived stage 1
	CMPQ CX, $0
	JE   l2_done

l2_stripe:
	// Stage 1. Y10 = series index per lane, Y1 = its byte offset.
	VMOVQ        DX, X10
	VPBROADCASTQ X10, Y10
	VPADDQ       Y11, Y10, Y10
	VPMULUDQ     Y9, Y10, Y1
	VXORPD       Y0, Y0, Y0
	MOVQ         R12, R8
	LUT2_GROUP
	VMOVUPD      Y0, (DI)(DX*8)
	VCMPPD       $0x1E, Y14, Y0, Y15   // dropped = sum > bsf (GT_OQ)
	VMOVMSKPD    Y15, R10
	XORQ         $0xf, R10             // live lanes
	POPCNTL      R10, R11
	ADDQ         R11, AX
	CMPQ         BX, $8
	JE           l2_next               // one group: stage 1 was all of it
	CMPQ         R11, $0
	JE           l2_next
	CMPQ         R11, $3
	JGE          l2_dense

l2_queue:
	BSFQ R10, R8                   // lowest live lane
	ADDQ DX, R8
	MOVQ R8, 0(SP)(R9*8)
	MOVQ (DI)(R8*8), R11
	MOVQ R11, 64(SP)(R9*8)
	INCQ R9
	LEAQ -1(R10), R11
	ANDQ R11, R10
	JNE  l2_queue
	CMPQ R9, $4
	JL   l2_next
	MOVQ $1, R14                   // mode 1: queue run between stripes

l2_pending:
	VMOVDQU  0(SP), Y10
	VMOVUPD  64(SP), Y0
	VPMULUDQ Y9, Y10, Y1
	VPADDQ   Y8, Y1, Y1
	JMP      l2_stage2

l2_dense:
	// Mode 0: the stripe continues in place, all four lanes (a dropped
	// lane's longer sum is as good a certificate).
	XORQ R14, R14

l2_stage2:
	LEAQ ROW8_BYTES(R12), R8       // table row 8
	MOVQ $8, R11

l2_group:
	LUT2_GROUP
	ADDQ $8, R11
	CMPQ R11, BX
	JL   l2_group
	CMPQ R14, $0
	JNE  l2_scatter
	VMOVUPD Y0, (DI)(DX*8)
	JMP  l2_next

l2_scatter:
	MOVQ         0(SP), R8
	VMOVSD       X0, (DI)(R8*8)
	MOVQ         8(SP), R8
	VMOVHPD      X0, (DI)(R8*8)
	VEXTRACTF128 $1, Y0, X15
	MOVQ         16(SP), R8
	VMOVSD       X15, (DI)(R8*8)
	MOVQ         24(SP), R8
	VMOVHPD      X15, (DI)(R8*8)
	CMPQ         R14, $2
	JE           l2_done
	// At most one lane is left over: move it to the front.
	MOVQ 32(SP), R8
	MOVQ R8, 0(SP)
	MOVQ 96(SP), R8
	MOVQ R8, 64(SP)
	SUBQ $4, R9

l2_next:
	ADDQ $4, DX
	CMPQ DX, CX
	JL   l2_stripe

	// Mode 2: run what is still queued, padded with copies of its first
	// lane (they store the same sum to the same place) so no mask is needed.
	CMPQ R9, $0
	JE   l2_done
	MOVQ 0(SP), R8
	MOVQ 64(SP), R10

l2_pad:
	CMPQ R9, $4
	JGE  l2_flush
	MOVQ R8, 0(SP)(R9*8)
	MOVQ R10, 64(SP)(R9*8)
	INCQ R9
	JMP  l2_pad

l2_flush:
	MOVQ $2, R14
	JMP  l2_pending

l2_done:
	MOVQ AX, alive+96(FP)
	VZEROUPPER
	RET

// AVX-512 bodies: 8 series per stripe in ZMM lanes, the final partial
// stripe fully handled under a K mask (gathers skip masked-off lanes, the
// out store writes only live lanes), so no scalar series remainder exists.
// Gather destinations are pre-zeroed because EVEX gathers merge: the zeroing
// cuts the dependency on the previous gather (masked-off lanes are never
// stored, so what they accumulate does not matter).

// One lookup position under the live-lane mask K3 (K2 is the copy the
// gather consumes), the symbol already taken out of Z2's qwords into Z4:
// gather the entries of the table row at R8, step R8 to the next row,
// accumulate. The row lives in the scalar base and not in the index vector
// because the ZMM ports are the bottleneck.
#define LUT5_ROW \
	VPXORQ     Z5, Z5, Z5; \
	KMOVW      K3, K2; \
	VGATHERQPD (R8)(Z4*8), K2, Z5; \
	ADDQ       $ROW_BYTES, R8; \
	VADDPD     Z5, Z0, Z0

#define LUT5_POS(shift) \
	VPSRLQ $shift, Z2, Z4; \
	VPANDQ Z6, Z4, Z4; \
	LUT5_ROW

// One 8-position group of the lanes in K3: symbol bytes at byte offsets Z1
// (Z6 = 0xff), eight lookups from the row at R8 on, offsets advanced
// (Z11 = 8).
#define LUT5_GROUP \
	KMOVW      K3, K2; \
	VPGATHERQQ (SI)(Z1*1), K2, Z2; \
	VPANDQ     Z6, Z2, Z4; \
	LUT5_ROW; \
	LUT5_POS(8); \
	LUT5_POS(16); \
	LUT5_POS(24); \
	LUT5_POS(32); \
	LUT5_POS(40); \
	LUT5_POS(48); \
	VPSRLQ     $56, Z2, Z4; \
	LUT5_ROW; \
	VPADDQ     Z11, Z1, Z1

// R10 = number of series in the stripe at DX (n in R13), capped to a full
// stripe; R11 = its lane mask, 0xff or (1<<R10)-1. Clobbers CX.
#define STRIPE_MASK(full) \
	MOVQ R13, R10; \
	SUBQ DX, R10; \
	MOVQ $0xff, R11; \
	CMPQ R10, $8; \
	JGE  full; \
	MOVQ R10, CX; \
	MOVQ $1, R11; \
	SHLQ CX, R11; \
	DECQ R11

// func lookupBlockAVX512(words []byte, n, l int, table []float64,
//                        out []float64, bsf float64) (alive int)
//
// l >= 8. Frame: the queue — series indices at 0(SP), partial sums at
// 128(SP), 16 slots each (at most 7 waiting + 5 new; the compress stores
// write a whole vector at the tail).
TEXT ·lookupBlockAVX512(SB), NOSPLIT, $256-104
	MOVQ words_base+0(FP), SI
	MOVQ n+24(FP), R13
	MOVQ l+32(FP), BX
	MOVQ table_base+40(FP), R12
	MOVQ out_base+64(FP), DI

	// Constants: Z11 = 8, Z6 = 0xff, Z13 = l, Z8 = {0..7} (qword lanes),
	// Z14 = bsf.
	MOVQ         $8, R8
	VPBROADCASTQ R8, Z11
	MOVQ         $0xff, R8
	VPBROADCASTQ R8, Z6
	VPBROADCASTQ BX, Z13
	VMOVDQU64    iota8<>(SB), Z8
	VBROADCASTSD bsf+88(FP), Z14

	ANDQ $-8, BX                   // nb = l &^ 7

	XORQ DX, DX                    // stripe base series
	XORQ R9, R9                    // queued lanes
	XORQ AX, AX                    // lanes that outlived stage 1
	CMPQ R13, $0
	JE   l5_done

l5_stripe:
	STRIPE_MASK(l5_mask)

l5_mask:
	// Stage 1. K1 = lanes holding a series, Z9 = series index per lane,
	// Z1 = its byte offset.
	KMOVW        R11, K1
	KMOVW        R11, K3
	VPBROADCASTQ DX, Z9
	VPADDQ       Z8, Z9, Z9
	VPMULUDQ     Z13, Z9, Z1
	VPXORQ       Z0, Z0, Z0
	MOVQ         R12, R8
	LUT5_GROUP
	VMOVUPD      Z0, K1, (DI)(DX*8)
	VCMPPD       $0x1A, Z14, Z0, K1, K3    // live = !(sum > bsf) (NGT_UQ)
	KMOVW        K3, R10
	POPCNTL      R10, R10
	ADDQ         R10, AX
	CMPQ         BX, $8
	JE           l5_next               // one group: stage 1 was all of it
	CMPQ         R10, $0
	JE           l5_next
	CMPQ         R10, $6
	JGE          l5_dense

	// Sparse stripe: queue its live lanes.
	VPCOMPRESSQ Z9, K3, Z10
	VMOVDQU64   Z10, 0(SP)(R9*8)
	VCOMPRESSPD Z0, K3, Z10
	VMOVUPD     Z10, 128(SP)(R9*8)
	ADDQ        R10, R9
	CMPQ        R9, $8
	JL          l5_next
	MOVQ        $1, R14                // mode 1: queue run between stripes
	MOVQ        $0xff, R10

l5_pending:
	KMOVW     R10, K3
	VMOVDQU64 0(SP), Z9
	VMOVUPD   128(SP), Z0
	VPMULUDQ  Z13, Z9, Z1
	VPADDQ    Z11, Z1, Z1
	JMP       l5_stage2

l5_dense:
	// Mode 0: the stripe continues in place, every lane of it (a dropped
	// lane's longer sum is as good a certificate). Running under K1 and not
	// under the verdict K3 keeps the gathers independent of stage 1's add
	// chain, as they are in an unstaged kernel.
	XORQ  R14, R14
	KMOVW K1, K3

l5_stage2:
	LEAQ ROW8_BYTES(R12), R8       // table row 8
	MOVQ $8, R11

l5_group:
	LUT5_GROUP
	ADDQ $8, R11
	CMPQ R11, BX
	JL   l5_group
	CMPQ R14, $0
	JNE  l5_scatter
	VMOVUPD Z0, K3, (DI)(DX*8)
	JMP  l5_next

l5_scatter:
	KMOVW       K3, K2
	VSCATTERQPD Z0, K2, (DI)(Z9*8)
	CMPQ        R14, $2
	JE          l5_done
	// At most 4 lanes are left over: move them to the front.
	VMOVDQU64 64(SP), Z10
	VMOVDQU64 Z10, 0(SP)
	VMOVUPD   192(SP), Z10
	VMOVUPD   Z10, 128(SP)
	SUBQ      $8, R9

l5_next:
	ADDQ $8, DX
	CMPQ DX, R13
	JL   l5_stripe

	// Mode 2: run what is still queued under a mask of its size.
	CMPQ R9, $0
	JE   l5_done
	MOVQ R9, CX
	MOVQ $1, R10
	SHLQ CX, R10
	DECQ R10
	MOVQ $2, R14
	JMP  l5_pending

l5_done:
	MOVQ AX, alive+96(FP)
	VZEROUPPER
	RET

// func survivorsAVX512(out []float64, bsf float64, surv []int32) int
//
// Counts the entries <= bsf and, when surv is non-nil, compresses their
// indices into it in ascending order, a stripe of 8 at a time.
TEXT ·survivorsAVX512(SB), NOSPLIT, $0-64
	MOVQ         out_base+0(FP), SI
	MOVQ         out_len+8(FP), R13
	VBROADCASTSD bsf+24(FP), Z14
	MOVQ         surv_base+32(FP), DI
	VMOVDQU32    iota16d<>(SB), Z8

	XORQ DX, DX
	XORQ AX, AX
	CMPQ R13, $0
	JE   sv_done

sv_stripe:
	STRIPE_MASK(sv_mask)

sv_mask:
	KMOVW     R11, K1
	VMOVUPD.Z (SI)(DX*8), K1, Z0
	VCMPPD    $0x12, Z14, Z0, K1, K3   // LE_OQ
	KMOVW     K3, R10
	POPCNTL   R10, R10
	CMPQ      R10, $0
	JE        sv_next
	CMPQ      DI, $0
	JE        sv_count
	VPBROADCASTD DX, Z9
	VPADDD       Z8, Z9, Z9
	VPCOMPRESSD  Z9, K3, (DI)(AX*4)

sv_count:
	ADDQ R10, AX

sv_next:
	ADDQ $8, DX
	CMPQ DX, R13
	JL   sv_stripe

sv_done:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET
