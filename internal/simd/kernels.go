package simd

import "math"

// This file defines the dispatched kernel API and the portable reference
// implementations of the per-series hot-loop kernels:
//
//   - SquaredEDEA:   chunked early-abandoning squared Euclidean distance
//     (paper Section IV-H), 16 elements per block, 16 persistent FMA
//     accumulators, abandon test after every block;
//   - Dot:           blocked FMA dot product (flat baseline's GEMM-style
//     ‖q‖²−2q·x+‖x‖² decomposition);
//   - LBDGatherEA:   Algorithm 3's Gather_bound LBD kernel — per-symbol
//     lower/upper interval gathers, mask/blend three-way select, weighted
//     square, horizontal reduction, early abandon per 8-lane block;
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

// lbdBlock is the position count per block of the LBD kernels: two 4-lane
// gathers per table, matching the paper's 8-lane formulation.
const lbdBlock = 8

// SquaredEDEA computes the squared Euclidean distance between equal-length
// a and b, returning early — with a partial sum already exceeding bound —
// as soon as the accumulated distance passes bound after any 16-element
// block. A returned value <= bound is the exact distance; a value > bound
// is only a certificate that the true distance exceeds bound.
//
// len(b) must be >= len(a); only the first len(a) elements participate.
func SquaredEDEA(a, b []float64, bound float64) float64 {
	sum, i := edBlocks16(a, b, bound)
	if sum > bound {
		return sum
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// SquaredEDEAPortable is the always-portable reference of SquaredEDEA:
// identical numeric semantics, never dispatched to assembly. Benchmarks and
// parity tests compare the two; production code calls SquaredEDEA.
func SquaredEDEAPortable(a, b []float64, bound float64) float64 {
	sum, i := edBlocks16Ref(a, b, bound)
	if sum > bound {
		return sum
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
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
	for ; i < len(a); i++ {
		sum = math.FMA(a[i], b[i], sum)
	}
	return sum
}

// DotPortable is the always-portable reference of Dot.
func DotPortable(a, b []float64) float64 {
	sum, i := dotBlocks16Ref(a, b)
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

// LBDGatherEA computes Algorithm 3's early-abandoning squared lower-bound
// distance between a query representation and a full-cardinality word:
// for each position j the word symbol selects a quantization interval
// [lower[j*alphabet+sym], upper[j*alphabet+sym]]; the contribution is
// weights[j] * d² with d the distance from qr[j] to the interval (zero
// inside). Blocks of 8 positions are reduced with the canonical tree and
// the abandon test runs after every block.
//
// Contract: len(qr) and len(weights) >= len(word); len(lower) and
// len(upper) >= len(word)*alphabet; every word symbol < alphabet. The
// bounds are checked once per call (the assembly gathers cannot rely on
// per-element bounds checks).
func LBDGatherEA(word []byte, qr, lower, upper, weights []float64, alphabet int, bsf float64) float64 {
	l := len(word)
	checkLBDBounds(word, len(qr), len(weights), len(lower), len(upper), alphabet)
	sum, c := lbdGatherBlocks8(word, qr, lower, upper, weights, alphabet, bsf)
	if sum > bsf {
		return sum
	}
	if c < l {
		sum += lbdTail8(word, qr, lower, upper, weights, alphabet, c)
	}
	return sum
}

// LBDGatherEAPortable is the always-portable reference of LBDGatherEA.
func LBDGatherEAPortable(word []byte, qr, lower, upper, weights []float64, alphabet int, bsf float64) float64 {
	l := len(word)
	checkLBDBounds(word, len(qr), len(weights), len(lower), len(upper), alphabet)
	sum, c := lbdGatherBlocks8Ref(word, qr, lower, upper, weights, alphabet, bsf)
	if sum > bsf {
		return sum
	}
	if c < l {
		sum += lbdTail8(word, qr, lower, upper, weights, alphabet, c)
	}
	return sum
}

// lbdTerm is one position's weighted squared interval distance, computed
// exactly as the vector lanes do: d selected by (q < lo) / (q > hi) masks
// (both false — including NaN — give zero), squared first, then scaled.
func lbdTerm(word []byte, qr, lower, upper, weights []float64, alphabet, j int) float64 {
	sym := int(word[j])
	lo := lower[j*alphabet+sym]
	hi := upper[j*alphabet+sym]
	v := qr[j]
	var d float64
	switch {
	case v < lo:
		d = lo - v
	case v > hi:
		d = v - hi
	}
	return weights[j] * (d * d)
}

// lbdGatherBlocks8Ref processes the full 8-position blocks: per block the
// eight weighted squared terms are formed lane-wise and reduced with
// blockReduce8 into the running sum, then the abandon test runs.
func lbdGatherBlocks8Ref(word []byte, qr, lower, upper, weights []float64, alphabet int, bsf float64) (float64, int) {
	n := len(word) &^ (lbdBlock - 1)
	var sum float64
	c := 0
	for ; c < n; c += lbdBlock {
		var t [lbdBlock]float64
		for i := 0; i < lbdBlock; i++ {
			t[i] = lbdTerm(word, qr, lower, upper, weights, alphabet, c+i)
		}
		sum += blockReduce8(&t)
		if sum > bsf {
			return sum, c + lbdBlock
		}
	}
	return sum, c
}

// LookupAccumEASeq computes the early-abandoning flat distance-table lower
// bound: sum over positions j of table[j*alphabet+word[j]], one running
// scalar add per position with an abandon test after every 8. A returned
// value > bsf is only a certificate; values <= bsf are exact. It is the
// per-series refinement kernel and defines the add order the block kernels
// reproduce lane for lane.
func LookupAccumEASeq(word []byte, table []float64, alphabet int, bsf float64) float64 {
	var sum float64
	l := len(word)
	for c := 0; c < l; c += lbdBlock {
		end := c + lbdBlock
		if end > l {
			end = l
		}
		for j := c; j < end; j++ {
			sum += table[j*alphabet+int(word[j])]
		}
		if sum > bsf {
			return sum
		}
	}
	return sum
}

// lbdTail8 computes the final sub-8 positions c..len(word)-1 of the gather
// kernel as one zero-padded block — the single tail implementation shared
// by the dispatched and portable wrappers, so their bit-identity cannot
// drift at the tail.
func lbdTail8(word []byte, qr, lower, upper, weights []float64, alphabet, c int) float64 {
	var t [lbdBlock]float64
	for i := c; i < len(word); i++ {
		t[i-c] = lbdTerm(word, qr, lower, upper, weights, alphabet, i)
	}
	return blockReduce8(&t)
}

// blockReduce8 is the canonical 8-lane horizontal reduction of the gather
// kernel (and its sub-8 tail, zero-padded): lane-wise fold of the
// two 4-lane registers, 128-bit fold, scalar add.
func blockReduce8(t *[lbdBlock]float64) float64 {
	y0 := t[0] + t[4]
	y1 := t[1] + t[5]
	y2 := t[2] + t[6]
	y3 := t[3] + t[7]
	return (y0 + y2) + (y1 + y3)
}

func checkLBDBounds(word []byte, nq, nw, nlo, nhi, alphabet int) {
	l := len(word)
	if alphabet <= 0 || nq < l || nw < l || nlo < l*alphabet || nhi < l*alphabet {
		panic("simd: LBDGatherEA slice lengths violate the kernel contract")
	}
	checkSymbols(word, alphabet)
}

// checkSymbols rejects word symbols >= alphabet. Without it, a corrupt word
// would index the wrong table row silently in pure Go (the flat j*alphabet+
// sym index stays inside the slice for every position but the last) and
// make the assembly gather read out of bounds. Free for the common
// alphabet=256 (a byte cannot exceed 255).
func checkSymbols(word []byte, alphabet int) {
	if alphabet >= 256 {
		return
	}
	for _, sym := range word {
		if int(sym) >= alphabet {
			panic("simd: word symbol outside the alphabet")
		}
	}
}
