package simd

// Block-granularity LBD kernels: one call lower-bounds an ENTIRE SoA leaf
// block — n contiguous words of l symbols, row-major, exactly the layout of
// the index's per-leaf refinement blocks (which alias the on-disk container,
// so the layout is not the kernels' to change). The per-series kernels pay
// their dispatch, bounds-check and early-abandon bookkeeping once PER
// SERIES; at l=16 that overhead is comparable to the arithmetic itself. The
// block kernels pay it once per LEAF and lay the SERIES across vector lanes:
// each lane accumulates its own series sequentially over positions, so no
// reduction tree reorders the adds and every tier produces the bits of the
// sequential per-series chain (LookupAccumEASeq).
//
// The table-lookup kernel is Algorithm 3's early abandoning at block
// granularity, in two stages. SFA orders word positions by descending
// variance, so the first 8-position group carries most of the distance:
//
//   - stage 1 accumulates that group for every series of the block; a lane
//     whose partial sum already exceeds bsf is dropped and keeps the partial
//     sum as its certificate;
//   - stage 2 runs the remaining groups only where a lane is still alive.
//     A stripe that kept most of its lanes simply continues in place, all
//     of it — exactly the unstaged loop, whose gathers wait for no verdict;
//     the survivors of sparser stripes are compacted into a pending vector
//     that runs once it is full, so the gathers stay busy when few series
//     survive. The choice is read off the mask stage 1 just computed;
//   - finally the indices of the series with full sum <= bsf are written,
//     ascending, into a caller-pooled list, so the refinement loop walks
//     survivors and nothing else.
//
// Contract: a survivor's out[i] is exact and BIT-IDENTICAL to
// LookupAccumEASeq(word i, table, alphabet, +Inf) in every tier. A
// non-survivor's out[i] is only a certificate, !(out[i] <= bsf), and may
// differ between tiers (each abandons where its own stages end). The
// certificate is sound because table entries are nonnegative — a partial sum
// never exceeds the full one; the kernel does not check that. Because a
// survivor's value is exact, callers can re-test it against a fresher
// (smaller) bound for free.
//
// The gather kernel (Algorithm 3's Gather_bound on raw intervals) is the
// ablation sibling: it never abandons, every out[i] is exact.
//
// Dispatch: an AVX-512 tier (8 series per stripe, K-masked tail stripes)
// above an AVX2 tier (4 series per stripe, remainder series through the
// reference) above the pure-Go reference; see BlockImpl. Sub-8 position
// tails (l not a multiple of 8; never the case for the index's l=16) are
// finished in Go, appended sequentially so the per-lane add order holds.

// LookupAccumBlockSurvivors lower-bounds all n series of a block against
// the flat distance table: for every series i with
// sum_j table[j*alphabet+words[i*l+j]] <= bsf (l = len(words)/n) it writes
// that sum to out[i] and appends i to surv, ascending, and returns their
// number. Every other out[i] holds a partial sum that already exceeds bsf.
// A nil surv asks for the count alone.
//
// Contract: n >= 0, len(words) divisible by n, len(out) >= n, surv nil or
// len(surv) >= n, len(table) >= l*alphabet, every symbol < alphabet
// (checked once), table entries nonnegative (not checked).
func LookupAccumBlockSurvivors(words []byte, n int, table []float64, alphabet int, out []float64, bsf float64, surv []int32) int {
	if n == 0 {
		return 0
	}
	l := checkLookupBlock(words, n, table, alphabet, out, surv)
	return lookupAccumBlock(words, n, l, table, alphabet, out, bsf, surv)
}

// LookupAccumBlockEA is LookupAccumBlockSurvivors without a survivor list:
// out and the survivor count only.
func LookupAccumBlockEA(words []byte, n int, table []float64, alphabet int, out []float64, bsf float64) int {
	return LookupAccumBlockSurvivors(words, n, table, alphabet, out, bsf, nil)
}

// LookupAccumBlockSurvivorsPortable is the always-portable reference of
// LookupAccumBlockSurvivors.
func LookupAccumBlockSurvivorsPortable(words []byte, n int, table []float64, alphabet int, out []float64, bsf float64, surv []int32) int {
	if n == 0 {
		return 0
	}
	l := checkLookupBlock(words, n, table, alphabet, out, surv)
	return lookupAccumBlockRef(words, n, l, table, alphabet, out, bsf, surv)
}

// lookupAccumBlockRef is the canonical staged body: every series runs the
// sequential per-series chain, which abandons after any 8-position group
// (a branch where the vector tiers drop a lane).
func lookupAccumBlockRef(words []byte, n, l int, table []float64, alphabet int, out []float64, bsf float64, surv []int32) int {
	for i := 0; i < n; i++ {
		out[i] = LookupAccumEASeq(words[i*l:(i+1)*l], table, alphabet, bsf)
	}
	return survivorsRef(out[:n], bsf, surv)
}

// survivorsRef writes the ascending indices of the entries <= bsf into surv
// (when non-nil) and returns their count.
func survivorsRef(out []float64, bsf float64, surv []int32) int {
	k := 0
	for i, v := range out {
		if v <= bsf {
			if surv != nil {
				surv[k] = int32(i)
			}
			k++
		}
	}
	return k
}

// LBDGatherBlockEA is the gather sibling of LookupAccumBlockSurvivors: the
// same block shape, but each position's contribution is computed from the raw
// quantization intervals (Algorithm 3's Gather_bound) instead of a
// precomputed table: d = max(max(lo-v, v-hi), 0), term = w*(d*d), with the
// max-select lane semantics of VMAXPD (NaN v yields 0, as in the
// per-series kernels). It never abandons: every out[i] is exact, and the
// return value counts the entries <= bsf.
//
// Contract: the LookupAccumBlockSurvivors shape contract, plus len(qr) and
// len(weights) >= l and len(lower), len(upper) >= l*alphabet.
func LBDGatherBlockEA(words []byte, n int, qr, lower, upper, weights []float64, alphabet int, out []float64, bsf float64) int {
	if n == 0 {
		return 0
	}
	l := checkBlockShape(len(words), n, len(out))
	checkGatherBlockBounds(l, len(qr), len(weights), len(lower), len(upper), alphabet)
	checkSymbols(words, alphabet)
	lbdGatherBlocks(words, n, l, qr, lower, upper, weights, alphabet, out)
	if nb := l &^ (lbdBlock - 1); nb < l {
		lbdGatherBlockTail(words, n, l, nb, qr, lower, upper, weights, alphabet, out)
	}
	return survivors(out[:n], bsf, nil)
}

// LBDGatherBlockEAPortable is the always-portable reference of
// LBDGatherBlockEA.
func LBDGatherBlockEAPortable(words []byte, n int, qr, lower, upper, weights []float64, alphabet int, out []float64, bsf float64) int {
	if n == 0 {
		return 0
	}
	l := checkBlockShape(len(words), n, len(out))
	checkGatherBlockBounds(l, len(qr), len(weights), len(lower), len(upper), alphabet)
	checkSymbols(words, alphabet)
	lbdGatherBlockRef(words, n, l, qr, lower, upper, weights, alphabet, out)
	if nb := l &^ (lbdBlock - 1); nb < l {
		lbdGatherBlockTail(words, n, l, nb, qr, lower, upper, weights, alphabet, out)
	}
	return survivorsRef(out[:n], bsf, nil)
}

// lbdBlockTerm is one (series, position) contribution of the gather block
// kernel in max-select form: d = MAX(MAX(lo-v, v-hi), 0) with Intel MAXPD
// semantics (the second operand wins when the compare is false, including
// NaN), then w*(d*d). For well-formed intervals this equals lbdTerm's
// three-way switch; the max form is what a vector lane computes.
func lbdBlockTerm(v, lo, hi, w float64) float64 {
	dLo := lo - v
	dHi := v - hi
	d := dHi
	if dLo > dHi {
		d = dLo
	}
	if !(d > 0) {
		d = 0
	}
	return w * (d * d)
}

// lbdGatherBlockRef is the canonical gather block body (full 8-position
// groups; tails via lbdGatherBlockTail).
func lbdGatherBlockRef(words []byte, n, l int, qr, lower, upper, weights []float64, alphabet int, out []float64) {
	nb := l &^ (lbdBlock - 1)
	for i := 0; i < n; i++ {
		row := words[i*l : i*l+nb]
		var sum float64
		for j, sym := range row {
			sum += lbdBlockTerm(qr[j], lower[j*alphabet+int(sym)], upper[j*alphabet+int(sym)], weights[j])
		}
		out[i] = sum
	}
}

func lbdGatherBlockTail(words []byte, n, l, nb int, qr, lower, upper, weights []float64, alphabet int, out []float64) {
	for i := 0; i < n; i++ {
		sum := out[i]
		row := words[i*l+nb : (i+1)*l]
		for j, sym := range row {
			p := nb + j
			sum += lbdBlockTerm(qr[p], lower[p*alphabet+int(sym)], upper[p*alphabet+int(sym)], weights[p])
		}
		out[i] = sum
	}
}

// checkBlockShape validates the (words, n, out) block shape and returns the
// word length l = len(words)/n.
func checkBlockShape(nWords, n, nOut int) int {
	if n < 0 || nOut < n || nWords%n != 0 {
		panic("simd: block kernel shape violates the contract (len(words) divisible by n, len(out) >= n)")
	}
	return nWords / n
}

// checkLookupBlock validates the whole LookupAccumBlockSurvivors contract
// once per call — the assembly gathers and the survivor stores rely on it —
// and returns l.
func checkLookupBlock(words []byte, n int, table []float64, alphabet int, out []float64, surv []int32) int {
	l := checkBlockShape(len(words), n, len(out))
	if surv != nil && len(surv) < n {
		panic("simd: LookupAccumBlockSurvivors survivor list shorter than n")
	}
	if alphabet <= 0 || len(table) < l*alphabet {
		panic("simd: LookupAccumBlockSurvivors table shorter than l*alphabet")
	}
	checkSymbols(words, alphabet)
	return l
}

func checkGatherBlockBounds(l, nq, nw, nlo, nhi, alphabet int) {
	if alphabet <= 0 || nq < l || nw < l || nlo < l*alphabet || nhi < l*alphabet {
		panic("simd: LBDGatherBlockEA slice lengths violate the kernel contract")
	}
}
