package index

import (
	"math"

	"repro/internal/simd"
)

// gatherTables holds, for every word position and every full-cardinality
// symbol, the lower and upper interval bounds — the precomputed form of the
// paper's Gather_bound step (Algorithm 3, line 5). They depend only on the
// summarization, so the tree builds them once; each query's distTable.build
// reads them, and minDistScalar is the reference that uses them directly.
//
// The tables are stored flat ([l*simd.Alphabet], indexed
// j*simd.Alphabet+sym) rather than as ragged [][]float64: one allocation,
// one base pointer, and no per-position slice-header load in the table
// build's inner loop.
type gatherTables struct {
	lower []float64 // [l*simd.Alphabet]
	upper []float64 // [l*simd.Alphabet]
}

func newGatherTables(s Summarizer) *gatherTables {
	l := s.Segments()
	const alpha = simd.Alphabet
	g := &gatherTables{
		lower: make([]float64, l*alpha),
		upper: make([]float64, l*alpha),
	}
	for j := 0; j < l; j++ {
		bps := s.Breakpoints(j)
		lo := g.lower[j*alpha : (j+1)*alpha]
		hi := g.upper[j*alpha : (j+1)*alpha]
		for sym := 0; sym < alpha; sym++ {
			if sym == 0 {
				lo[sym] = math.Inf(-1)
			} else {
				lo[sym] = bps[sym-1]
			}
			if sym == alpha-1 {
				hi[sym] = math.Inf(1)
			} else {
				hi[sym] = bps[sym]
			}
		}
	}
	return g
}

// kernel is the per-query lower-bound state: the query representation plus
// the shared interval tables and weights. distTable.build folds it into the
// flat table every LBD of the query reads; minDistScalar computes the same
// bound straight from the intervals, as the reference tests pin the table
// and the block kernel against.
type kernel struct {
	qr      []float64 // query representation, length l
	weights []float64
	g       *gatherTables
	l       int
}

// minDistScalar is the scalar reference of the lower bound: the weighted
// squared distance from each qr[j] to its symbol's interval, summed over
// positions; tests assert agreement with distTable and its block kernel.
func (k *kernel) minDistScalar(word []byte) float64 {
	var sum float64
	for j := 0; j < k.l; j++ {
		i := j*simd.Alphabet + int(word[j])
		lo, hi := k.g.lower[i], k.g.upper[i]
		var d float64
		switch {
		case k.qr[j] < lo:
			d = lo - k.qr[j]
		case k.qr[j] > hi:
			d = k.qr[j] - hi
		}
		sum += k.weights[j] * d * d
	}
	return sum
}

// distTable is the LBD kernel of the refinement loop: for
// one query, precompute the weighted squared distance contribution of every
// (position, symbol) pair, reducing the per-series LBD to l table lookups
// plus adds. It trades one l x simd.Alphabet build per query for branch-free
// lookups per series — cheaper than gathering each series' interval bounds
// from the raw tables (Algorithm 3's Gather_bound), which was measured
// slower per series and per leaf and is no longer a kernel.
//
// The table is one flat []float64 of length l*simd.Alphabet indexed
// j*simd.Alphabet+sym: at l 16 it is 32 KiB, resident in L1/L2 for the
// whole refinement phase. build reuses the backing array, so a pooled
// searcher pays zero allocations per query — and skips the rebuild entirely
// when the query representation is unchanged (repeated queries, batch
// replays), comparing l cached floats instead of recomputing
// l*simd.Alphabet entries.
type distTable struct {
	flat    []float64 // [l*simd.Alphabet] weighted squared distances
	qrCache []float64 // query representation the table was built for
	l       int
}

// build (re)fills the table for the kernel's current query representation.
func (t *distTable) build(k *kernel) {
	const alpha = simd.Alphabet
	need := k.l * alpha
	if len(t.flat) == need && t.l == k.l && sameQR(t.qrCache, k.qr) {
		return // repeat query: table already matches (NaN never matches, so it always rebuilds)
	}
	if cap(t.flat) < need {
		t.flat = make([]float64, need)
	}
	t.flat = t.flat[:need]
	t.l = k.l
	for j := 0; j < k.l; j++ {
		row := t.flat[j*alpha : (j+1)*alpha]
		v := k.qr[j]
		w := k.weights[j]
		glo := k.g.lower[j*alpha:]
		ghi := k.g.upper[j*alpha:]
		for sym := 0; sym < alpha; sym++ {
			// Max-style select instead of the two-armed switch: d is the
			// positive one of (lo-v, v-hi), or zero when v lies inside the
			// interval (both differences <= 0) or v is NaN (both compares
			// false, matching the switch's default arm).
			dLo := glo[sym] - v
			dHi := v - ghi[sym]
			d := dLo
			if dHi > d {
				d = dHi
			}
			if !(d > 0) {
				d = 0
			}
			row[sym] = w * d * d
		}
	}
	t.qrCache = append(t.qrCache[:0], k.qr[:k.l]...)
}

// sameQR reports whether the cached query representation exactly matches
// qr. Any NaN lane returns false, keeping the cache conservative.
func sameQR(cache, qr []float64) bool {
	if len(cache) != len(qr) {
		return false
	}
	for i, v := range cache {
		if !(v == qr[i]) {
			return false
		}
	}
	return true
}

// newDistTable builds a fresh table (test/benchmark convenience; the
// searcher reuses one table via build).
func newDistTable(k *kernel) *distTable {
	t := &distTable{}
	t.build(k)
	return t
}

// nodeMinDist is the tree-descent lower bound read from the table: a
// node's word constrains position j to the symbols lo..hi sharing its
// cards[j]-bit prefix, and the table row of a position is V-shaped around
// the query's own symbol qword[j] (zero there, growing with every
// breakpoint further away), so the smallest entry of lo..hi sits at qword[j]
// clamped into it. That entry is the same w*d*d product the breakpoint
// form computes — bit for bit, one load per position instead of a
// breakpoint search.
func (t *distTable) nodeMinDist(qword, word []byte, cards []uint8) float64 {
	var sum float64
	for j := 0; j < t.l; j++ {
		bits := int(cards[j])
		if bits == 0 {
			continue // interval is (-inf, +inf): contributes nothing
		}
		shift := uint(SymbolBits - bits)
		lo := int(word[j]) << shift
		hi := lo + 1<<shift - 1
		sym := int(qword[j])
		if sym < lo {
			sym = lo
		} else if sym > hi {
			sym = hi
		}
		sum += t.flat[j*simd.Alphabet+sym]
	}
	return sum
}

// minDistEA computes minDistScalar's lower bound, early-abandoning, via
// flat table lookups in chunks of 8 positions: sixteen L1 loads
// feeding one sequential add chain, which keeps the table bit-for-bit
// against the scalar reference.
func (t *distTable) minDistEA(word []byte, bsf float64) float64 {
	return simd.LookupAccumEASeq(word[:t.l], t.flat, bsf)
}

// minDistBlockEA lower-bounds ALL n series of a contiguous SoA word block
// (n rows of l symbols — exactly a leaf's refinement block) in one staged
// kernel call: the indices of the series whose bound is <= bsf go to surv,
// ascending, and their number is returned; out[i] of such a survivor is
// exact and bit-identical to minDistEA's sequential value, out[i] of any
// other series is a partial sum that already exceeds bsf. The per-series
// certificates of minDistEA and these land on the same side of any bound
// >= bsf because table entries are nonnegative. This is the refinement
// kernel (minDistEA stays as the per-series reference tests compare it
// against): it pays dispatch and bounds checks once per leaf, stops after the first eight
// positions for every series they already rule out, and opens the
// series-across-lanes AVX2/AVX-512 tiers (see simd.BlockImpl).
func (t *distTable) minDistBlockEA(words []byte, n int, out []float64, bsf float64, surv []int32) int {
	return simd.LookupAccumBlockSurvivors(words, n, t.flat, out, bsf, surv)
}
