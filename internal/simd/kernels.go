package simd

import "math"

// This file defines the dispatched kernel API and the portable reference
// implementations of the per-series hot-loop kernels:
//
//   - SquaredEDEA:   chunked early-abandoning squared Euclidean distance
//     (paper Section IV-H), 16 elements per block, 16 persistent FMA
//     accumulators, abandon test after every block (SquaredEDEARead also
//     reports how far it read);
//   - Dot:           blocked FMA dot product (flat baseline's GEMM-style
//     ‖q‖²−2q·x+‖x‖² decomposition, and the definition of an SFA value,
//     which Project in kernels_project.go computes a block of rows at a
//     time);
//   - LookupAccumEASeq: the flat per-query distance-table kernel — one
//     table lookup per word position feeding a sequential add chain (pure
//     Go on every platform; the block tier in kernels_block.go is its
//     batched, vectorized form).
//
// Every kernel has exactly one canonical numeric semantics: a fixed block
// width, a fixed accumulation structure (math.FMA where the assembly uses
// VFMADD) and a fixed horizontal reduction tree (the one VEXTRACTF128 /
// VADDPD / VADDSD produce). The portable reference below implements that
// semantics in pure Go and the AVX2 assembly in kernels_amd64.s implements
// it on real vector registers, so the two are BIT-IDENTICAL — not merely
// close — on every input (kernels_parity_test.go enforces this). Results
// therefore do not depend on the platform or on the noasm build tag.
//
// Dispatch: on amd64 (without the noasm tag) package init probes CPUID for
// AVX2+FMA+OSXSAVE and routes the block loops to assembly; everywhere else
// (and under -tags noasm, or with SOFA_NOSIMD set) the reference runs.

// edBlock is the element count per early-abandon block of the ED and dot
// kernels: four 4-lane AVX2 registers, 4x unrolled.
const edBlock = 16

// lbdBlock is the position count per early-abandon group of the LBD
// kernels, matching the paper's 8-lane formulation.
const lbdBlock = 8

// SymbolBits is the width of a word symbol: a symbol is a byte, and every
// byte value is a symbol.
const SymbolBits = 8

// Alphabet is the number of symbols per word position, and so the stride
// of a flat distance table: entry (j, sym) is table[j*Alphabet+sym]. The
// block kernels' assembly steps one table row per position by
// Alphabet*8 bytes (go_asm.h's const_Alphabet).
const Alphabet = 1 << SymbolBits

// SquaredEDEA computes the squared Euclidean distance between equal-length
// a and b, returning early — with a partial sum already exceeding bound —
// as soon as the accumulated distance passes bound after any 16-element
// block. A returned value <= bound is the exact distance; a value > bound
// is only a certificate that the true distance exceeds bound.
//
// len(b) must be >= len(a); only the first len(a) elements participate.
func SquaredEDEA(a, b []float64, bound float64) float64 {
	sum, _ := SquaredEDEARead(a, b, bound)
	return sum
}

// SquaredEDEARead is SquaredEDEA that also reports how many elements of a
// it read: len(a) when the scan ran to the end, otherwise the end of the
// 16-element block after which it abandoned. Its sum is bit-identical to
// SquaredEDEA's in every tier. The refinement walk sizes its row prefetch by
// the read lengths (a row is only worth fetching as far as EDs get into it).
func SquaredEDEARead(a, b []float64, bound float64) (sum float64, read int) {
	sum, i := edBlocks16(a, b, bound)
	return edTail(a, b, bound, sum, i)
}

// SquaredEDEAPortable is the always-portable reference of SquaredEDEA:
// identical numeric semantics, never dispatched to assembly. Benchmarks and
// parity tests compare the two; production code calls SquaredEDEA.
func SquaredEDEAPortable(a, b []float64, bound float64) float64 {
	sum, i := edBlocks16Ref(a, b, bound)
	sum, _ = edTail(a, b, bound, sum, i)
	return sum
}

// edTail finishes a blocked ED prefix (sum over a[:i]) the one way every
// wrapper shares: an abandoned sum is returned as is, otherwise the sub-block
// tail a[i:] is added sequentially. It returns the sum and the elements read.
func edTail(a, b []float64, bound, sum float64, i int) (float64, int) {
	if sum > bound {
		return sum, i
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum, i
}

// edBlocks16Ref processes the full 16-element blocks of a and b: sixteen
// persistent accumulators acc[l] += d*d (fused, single rounding — the lane
// structure of four 4-lane FMA registers), fully re-reduced after every
// block for the abandon test. It returns the reduced sum over the processed
// prefix and the index of the first unprocessed element; sum > bound means
// the scan abandoned early.
func edBlocks16Ref(a, b []float64, bound float64) (float64, int) {
	var acc [edBlock]float64
	n := len(a) &^ (edBlock - 1)
	var sum float64
	i := 0
	for ; i < n; i += edBlock {
		for l := 0; l < edBlock; l++ {
			d := a[i+l] - b[i+l]
			acc[l] = math.FMA(d, d, acc[l])
		}
		sum = reduce16(&acc)
		if sum > bound {
			return sum, i + edBlock
		}
	}
	return sum, i
}

// Dot computes the dot product of a and the first len(a) elements of b with
// the same blocked FMA accumulation as SquaredEDEA (no early abandon).
func Dot(a, b []float64) float64 {
	sum, i := dotBlocks16(a, b)
	return dotTail(a, b, sum, i)
}

// DotPortable is the always-portable reference of Dot.
func DotPortable(a, b []float64) float64 {
	sum, i := dotBlocks16Ref(a, b)
	return dotTail(a, b, sum, i)
}

// dotTail finishes a blocked dot prefix (sum over a[:i]) with the sub-block
// tail a[i:], one sequential FMA per element: the one tail Dot, DotPortable
// and Project share.
func dotTail(a, b []float64, sum float64, i int) float64 {
	for ; i < len(a); i++ {
		sum = math.FMA(a[i], b[i], sum)
	}
	return sum
}

// dotBlocks16Ref mirrors edBlocks16Ref without the subtraction or the
// abandon test: acc[l] = fma(a, b, acc[l]), one tree reduction at the end.
func dotBlocks16Ref(a, b []float64) (float64, int) {
	var acc [edBlock]float64
	n := len(a) &^ (edBlock - 1)
	i := 0
	for ; i < n; i += edBlock {
		for l := 0; l < edBlock; l++ {
			acc[l] = math.FMA(a[i+l], b[i+l], acc[l])
		}
	}
	return reduce16(&acc), i
}

// reduce16 is the canonical horizontal reduction of the 16 ED/dot
// accumulators: lane-wise (acc0+acc1)+(acc2+acc3) down to four values t,
// then the 128-bit fold (t0+t2, t1+t3) and the final scalar add — exactly
// the VADDPD/VEXTRACTF128/VUNPCKHPD/VADDSD sequence of the assembly.
func reduce16(acc *[edBlock]float64) float64 {
	var t [4]float64
	for j := 0; j < 4; j++ {
		t[j] = (acc[j] + acc[4+j]) + (acc[8+j] + acc[12+j])
	}
	return (t[0] + t[2]) + (t[1] + t[3])
}

// LookupAccumEASeq computes the early-abandoning flat distance-table lower
// bound: sum over positions j of table[j*Alphabet+word[j]], one running
// scalar add per position with an abandon test after every 8. A returned
// value > bsf is only a certificate; values <= bsf are exact. It is the
// per-series refinement kernel and defines the add order the block kernels
// reproduce lane for lane.
func LookupAccumEASeq(word []byte, table []float64, bsf float64) float64 {
	var sum float64
	l := len(word)
	for c := 0; c < l; c += lbdBlock {
		end := c + lbdBlock
		if end > l {
			end = l
		}
		for j := c; j < end; j++ {
			sum += table[j*Alphabet+int(word[j])]
		}
		if sum > bsf {
			return sum
		}
	}
	return sum
}
