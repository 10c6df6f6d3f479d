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
// (VMOVUPD).

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
