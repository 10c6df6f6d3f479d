package simd

// Block-granularity LBD kernels: one call lower-bounds an ENTIRE SoA leaf
// block — n contiguous words of l symbols, row-major, exactly the layout of
// the index's per-leaf refinement blocks (which alias the decoded container
// payload, so the layout is not the kernels' to change). The per-series kernels pay
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
// LookupAccumEASeq(word i, table, +Inf) in every tier. A
// non-survivor's out[i] is only a certificate, !(out[i] <= bsf), and may
// differ between tiers (each abandons where its own stages end). The
// certificate is sound because table entries are nonnegative — a partial sum
// never exceeds the full one; the kernel does not check that. Because a
// survivor's value is exact, callers can re-test it against a fresher
// (smaller) bound for free.
//
// LBDGatherBlockEA computes the same bound from the raw quantization
// intervals (Algorithm 3's Gather_bound) in pure Go. No search runs it: it
// is the interval-form reference the table kernel is checked against.
//
// Dispatch: an AVX-512 tier (8 series per stripe, K-masked tail stripes)
// above an AVX2 tier (4 series per stripe, remainder series through the
// reference) above the pure-Go reference; see BlockImpl. Sub-8 position
// tails (l not a multiple of 8; never the case for the index's l=16) are
// finished in Go, appended sequentially so the per-lane add order holds.

// LookupAccumBlockSurvivors lower-bounds all n series of a block against
// the flat distance table: for every series i with
// sum_j table[j*Alphabet+words[i*l+j]] <= bsf (l = len(words)/n) it writes
// that sum to out[i] and appends i to surv, ascending, and returns their
// number. Every other out[i] holds a partial sum that already exceeds bsf.
// A nil surv asks for the count alone.
//
// Contract: n >= 0, len(words) divisible by n, len(out) >= n, surv nil or
// len(surv) >= n, len(table) >= l*Alphabet, table entries nonnegative (not
// checked). Every byte is a symbol, so no word can index past its row.
func LookupAccumBlockSurvivors(words []byte, n int, table []float64, out []float64, bsf float64, surv []int32) int {
	if n == 0 {
		return 0
	}
	l := checkLookupBlock(words, n, table, out, surv)
	return lookupAccumBlock(words, n, l, table, out, bsf, surv)
}

// LookupAccumBlockEA is LookupAccumBlockSurvivors without a survivor list:
// out and the survivor count only. alphabet must be Alphabet; it panics
// otherwise.
func LookupAccumBlockEA(words []byte, n int, table []float64, alphabet int, out []float64, bsf float64) int {
	if alphabet != Alphabet {
		panic(errAlphabet)
	}
	return LookupAccumBlockSurvivors(words, n, table, out, bsf, nil)
}

// LookupAccumBlockSurvivorsPortable is the always-portable reference of
// LookupAccumBlockSurvivors.
func LookupAccumBlockSurvivorsPortable(words []byte, n int, table []float64, out []float64, bsf float64, surv []int32) int {
	if n == 0 {
		return 0
	}
	l := checkLookupBlock(words, n, table, out, surv)
	return lookupAccumBlockRef(words, n, l, table, out, bsf, surv)
}

// lookupAccumBlockRef is the canonical staged body: every series runs the
// sequential per-series chain, which abandons after any 8-position group
// (a branch where the vector tiers drop a lane).
func lookupAccumBlockRef(words []byte, n, l int, table []float64, out []float64, bsf float64, surv []int32) int {
	for i := 0; i < n; i++ {
		out[i] = LookupAccumEASeq(words[i*l:(i+1)*l], table, bsf)
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

// LBDGatherBlockEA is the interval-form reference of
// LookupAccumBlockSurvivors: the same block shape, but each position's
// contribution is computed from the raw quantization intervals instead of a
// precomputed table, d = max(max(lo-v, v-hi), 0) and term = w*(d*d) (NaN v
// yields 0), added sequentially per series. It never abandons: every out[i]
// is exact, and the return value counts the entries <= bsf. On a table
// built from the same terms, LookupAccumBlockSurvivors keeps exactly that
// many series.
//
// Contract: the LookupAccumBlockSurvivors shape contract, plus len(qr) and
// len(weights) >= l and len(lower), len(upper) >= l*Alphabet. alphabet
// must be Alphabet; it panics otherwise.
func LBDGatherBlockEA(words []byte, n int, qr, lower, upper, weights []float64, alphabet int, out []float64, bsf float64) int {
	if alphabet != Alphabet {
		panic(errAlphabet)
	}
	if n == 0 {
		return 0
	}
	l := checkBlockShape(len(words), n, len(out))
	if len(qr) < l || len(weights) < l || len(lower) < l*Alphabet || len(upper) < l*Alphabet {
		panic("simd: LBDGatherBlockEA slice lengths violate the kernel contract")
	}
	for i := 0; i < n; i++ {
		var sum float64
		for j, sym := range words[i*l : (i+1)*l] {
			sum += lbdBlockTerm(qr[j], lower[j*Alphabet+int(sym)], upper[j*Alphabet+int(sym)], weights[j])
		}
		out[i] = sum
	}
	return survivorsRef(out[:n], bsf, nil)
}

// lbdBlockTerm is one (series, position) contribution of LBDGatherBlockEA in
// max-select form: d = max(max(lo-v, v-hi), 0), where a false compare (NaN
// included) takes the second operand, then w*(d*d). For well-formed
// intervals this equals the three-way switch of the index's scalar
// reference.
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
func checkLookupBlock(words []byte, n int, table []float64, out []float64, surv []int32) int {
	l := checkBlockShape(len(words), n, len(out))
	if surv != nil && len(surv) < n {
		panic("simd: LookupAccumBlockSurvivors survivor list shorter than n")
	}
	if len(table) < l*Alphabet {
		panic("simd: LookupAccumBlockSurvivors table shorter than l*Alphabet")
	}
	return l
}

// errAlphabet is the panic of the two entry points that still take an
// alphabet, for any other than the one the tables are laid out for.
const errAlphabet = "simd: alphabet must be 256: a symbol is a byte"
