//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA kernels. Every kernel mirrors, instruction for instruction, the
// canonical semantics defined by the pure-Go references in kernels.go:
// identical block widths, identical FMA placement, identical horizontal
// reduction trees — so asm and portable results are bit-identical.
//
// All kernels process only the FULL blocks of their input and return
// (reduced sum over the processed prefix, index of first unprocessed
// element); the Go wrappers finish sub-block tails. Loads are unaligned
// (VMOVUPD); gathers reset their all-ones mask before every VGATHERQPD
// (the instruction clears it).

// func edBlocks16AVX2(a, b []float64, bound float64) (sum float64, idx int)
//
// Blocked early-abandoning squared Euclidean distance: 16 elements per
// iteration in four 4-lane registers, d = a-b, four persistent FMA
// accumulators acc += d*d, fully re-reduced after every block for the
// abandon test against bound.
TEXT ·edBlocks16AVX2(SB), NOSPLIT, $0-72
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	ANDQ   $-16, CX
	VMOVSD bound+48(FP), X14
	VXORPD X8, X8, X8              // running reduced sum (low lane)
	VXORPD Y0, Y0, Y0              // acc0..acc3
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   DX, DX
	CMPQ   CX, $0
	JE     ed_done

ed_loop:
	VMOVUPD     (SI)(DX*8), Y4
	VMOVUPD     32(SI)(DX*8), Y5
	VMOVUPD     64(SI)(DX*8), Y6
	VMOVUPD     96(SI)(DX*8), Y7
	VSUBPD      (DI)(DX*8), Y4, Y4     // d = a - b
	VSUBPD      32(DI)(DX*8), Y5, Y5
	VSUBPD      64(DI)(DX*8), Y6, Y6
	VSUBPD      96(DI)(DX*8), Y7, Y7
	VFMADD231PD Y4, Y4, Y0             // acc += d*d (single rounding)
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ        $16, DX

	// Early-abandon test: reduce the four accumulators with the canonical
	// tree (lane-wise (acc0+acc1)+(acc2+acc3), 128-bit fold, scalar add).
	VADDPD       Y1, Y0, Y9
	VADDPD       Y3, Y2, Y10
	VADDPD       Y10, Y9, Y9
	VEXTRACTF128 $1, Y9, X10
	VADDPD       X10, X9, X9
	VUNPCKHPD    X9, X9, X10
	VADDSD       X10, X9, X8
	VUCOMISD     X14, X8
	JA           ed_done               // sum > bound: abandon
	CMPQ         DX, CX
	JL           ed_loop

ed_done:
	VMOVSD X8, sum+56(FP)
	MOVQ   DX, idx+64(FP)
	VZEROUPPER
	RET

// func dotBlocks16AVX2(a, b []float64) (sum float64, idx int)
//
// Blocked FMA dot product: same accumulator layout and reduction tree as
// edBlocks16AVX2, no subtraction, no abandon test, one reduction at end.
TEXT ·dotBlocks16AVX2(SB), NOSPLIT, $0-64
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   a_len+8(FP), CX
	ANDQ   $-16, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   DX, DX
	CMPQ   CX, $0
	JE     dot_reduce

dot_loop:
	VMOVUPD     (SI)(DX*8), Y4
	VMOVUPD     32(SI)(DX*8), Y5
	VMOVUPD     64(SI)(DX*8), Y6
	VMOVUPD     96(SI)(DX*8), Y7
	VFMADD231PD (DI)(DX*8), Y4, Y0
	VFMADD231PD 32(DI)(DX*8), Y5, Y1
	VFMADD231PD 64(DI)(DX*8), Y6, Y2
	VFMADD231PD 96(DI)(DX*8), Y7, Y3
	ADDQ        $16, DX
	CMPQ        DX, CX
	JL          dot_loop

dot_reduce:
	VADDPD       Y1, Y0, Y9
	VADDPD       Y3, Y2, Y10
	VADDPD       Y10, Y9, Y9
	VEXTRACTF128 $1, Y9, X10
	VADDPD       X10, X9, X9
	VUNPCKHPD    X9, X9, X10
	VADDSD       X10, X9, X9
	VMOVSD       X9, sum+48(FP)
	MOVQ         DX, idx+56(FP)
	VZEROUPPER
	RET

// func prefetchLines(row []float64, lines int)
//
// PREFETCHT0 on lines consecutive 64-byte lines starting at row's first
// element. A prefetch never faults and writes nothing; the Go wrapper caps
// lines at the row's length.
TEXT ·prefetchLines(SB), NOSPLIT, $0-32
	MOVQ  row_base+0(FP), SI
	MOVQ  lines+24(FP), CX
	TESTQ CX, CX
	JLE   pf_done

pf_loop:
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	DECQ       CX
	JNZ        pf_loop

pf_done:
	RET

// func lbdGatherBlocks8AVX2(word []byte, qr, lower, upper, weights []float64,
//                           alphabet int, bsf float64) (sum float64, idx int)
//
// Algorithm 3 (Gather_bound): per block of 8 word positions, zero-extend
// the symbols to qword lane indices j*alphabet+sym, VGATHERQPD the lower
// and upper interval bounds, VCMPPD the (q < lo) / (q > hi) masks, select
// the three-way distance with VANDPD+VBLENDVPD, square, weight, reduce
// with the canonical 8-lane tree and test the running sum against bsf.
//
// Local frame (32 bytes): staging for the {0,a,2a,3a} lane-offset vector.
TEXT ·lbdGatherBlocks8AVX2(SB), NOSPLIT, $32-152
	MOVQ word_base+0(FP), BX
	MOVQ word_len+8(FP), CX
	ANDQ $-8, CX
	MOVQ qr_base+24(FP), SI
	MOVQ lower_base+48(FP), R12
	MOVQ upper_base+72(FP), R13
	MOVQ weights_base+96(FP), DI

	// Lane index bases: Y10 = {0,a,2a,3a}, Y11 = Y10 + 4a, step Y12 = 8a.
	MOVQ         alphabet+120(FP), R8
	XORQ         R9, R9
	MOVQ         R9, 0(SP)
	MOVQ         R8, 8(SP)
	LEAQ         (R8)(R8*1), R10
	MOVQ         R10, 16(SP)
	LEAQ         (R10)(R8*1), R11
	MOVQ         R11, 24(SP)
	VMOVDQU      0(SP), Y10
	MOVQ         R8, R10
	SHLQ         $2, R10
	VMOVQ        R10, X12
	VPBROADCASTQ X12, Y12
	VPADDQ       Y12, Y10, Y11
	VPADDQ       Y12, Y12, Y12

	VMOVSD bsf+128(FP), X14
	VXORPD X15, X15, X15           // running sum
	XORQ   DX, DX
	CMPQ   CX, $0
	JE     lbd_done

lbd_loop:
	// Symbol bytes -> qword lane indices j*alphabet + sym. The shift must
	// precede the first extend: VPMOVZXBQ X4, Y4 writes through X4 (the low
	// half of Y4), destroying the source bytes.
	VMOVQ     (BX)(DX*1), X4
	VPSRLQ    $32, X4, X5
	VPMOVZXBQ X4, Y4               // symbols c..c+3
	VPMOVZXBQ X5, Y5               // symbols c+4..c+7
	VPADDQ    Y10, Y4, Y4
	VPADDQ    Y11, Y5, Y5
	VPADDQ    Y12, Y10, Y10
	VPADDQ    Y12, Y11, Y11

	// Half 0: positions c..c+3 -> weighted squared terms in Y6.
	VPCMPEQD   Y13, Y13, Y13
	VGATHERQPD Y13, (R12)(Y4*8), Y6    // lo
	VPCMPEQD   Y13, Y13, Y13
	VGATHERQPD Y13, (R13)(Y4*8), Y7    // hi
	VMOVUPD    (SI)(DX*8), Y0          // q
	VCMPPD     $0x11, Y6, Y0, Y8       // below = q < lo (LT_OQ)
	VCMPPD     $0x1E, Y7, Y0, Y9       // above = q > hi (GT_OQ)
	VSUBPD     Y0, Y6, Y6              // dLo = lo - q
	VSUBPD     Y7, Y0, Y7              // dHi = q - hi
	VANDPD     Y7, Y9, Y7              // inner = above ? dHi : +0
	VBLENDVPD  Y8, Y6, Y7, Y6          // d = below ? dLo : inner
	VMULPD     Y6, Y6, Y6              // d*d
	VMOVUPD    (DI)(DX*8), Y0          // w
	VMULPD     Y6, Y0, Y6              // T0 = w*(d*d)

	// Half 1: positions c+4..c+7 -> weighted squared terms in Y7.
	VPCMPEQD   Y13, Y13, Y13
	VGATHERQPD Y13, (R12)(Y5*8), Y8
	VPCMPEQD   Y13, Y13, Y13
	VGATHERQPD Y13, (R13)(Y5*8), Y9
	VMOVUPD    32(SI)(DX*8), Y0
	VCMPPD     $0x11, Y8, Y0, Y1
	VCMPPD     $0x1E, Y9, Y0, Y2
	VSUBPD     Y0, Y8, Y8
	VSUBPD     Y9, Y0, Y9
	VANDPD     Y9, Y2, Y9
	VBLENDVPD  Y1, Y8, Y9, Y8
	VMULPD     Y8, Y8, Y8
	VMOVUPD    32(DI)(DX*8), Y0
	VMULPD     Y8, Y0, Y7              // T1

	// blockReduce8: lane-wise T0+T1, 128-bit fold, scalar add into sum.
	VADDPD       Y7, Y6, Y6
	VEXTRACTF128 $1, Y6, X7
	VADDPD       X7, X6, X6
	VUNPCKHPD    X6, X6, X7
	VADDSD       X7, X6, X6
	VADDSD       X6, X15, X15
	ADDQ         $8, DX
	VUCOMISD     X14, X15
	JA           lbd_done              // sum > bsf: abandon
	CMPQ         DX, CX
	JL           lbd_loop

lbd_done:
	VMOVSD X15, sum+136(FP)
	MOVQ   DX, idx+144(FP)
	VZEROUPPER
	RET
