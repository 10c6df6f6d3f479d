package index

import (
	"math"

	"repro/internal/simd"
)

// gatherTables holds, for every word position and every full-cardinality
// symbol, the lower and upper interval bounds — the precomputed form of the
// paper's Gather_bound step (Algorithm 3, line 5). They depend only on the
// summarization, so the tree builds them once.
//
// The tables are stored flat ([l*alphabet], indexed j*alphabet+sym) rather
// than as ragged [][]float64: one allocation, one base pointer, and no
// per-position slice-header load in the kernel inner loop.
type gatherTables struct {
	lower    []float64 // [l*alphabet]
	upper    []float64 // [l*alphabet]
	alphabet int
}

func newGatherTables(s Summarizer) *gatherTables {
	l := s.Segments()
	alpha := 1 << s.MaxBits()
	g := &gatherTables{
		lower:    make([]float64, l*alpha),
		upper:    make([]float64, l*alpha),
		alphabet: alpha,
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

// kernel is the per-query SIMD lower-bound distance state: the query
// representation plus the shared gather tables and weights. minDistEA is
// Algorithm 3 — per-symbol bound gathers, mask/blend three-way select and
// early abandoning per 8-lane block — dispatched through internal/simd to
// VGATHERQPD/VCMPPD/VBLENDVPD assembly on AVX2 hardware and to the
// bit-identical portable reference elsewhere. It remains the reference
// gather-style kernel; the refinement path uses distTable below.
type kernel struct {
	qr      []float64 // query representation, length l
	weights []float64
	g       *gatherTables
	l       int
}

// minDistEA computes the squared lower-bound distance between the query and
// a full-cardinality word, abandoning as soon as the partial sum exceeds
// bsf. A returned value > bsf is only a certificate; values <= bsf are
// exact.
func (k *kernel) minDistEA(word []byte, bsf float64) float64 {
	return simd.LBDGatherEA(word[:k.l], k.qr, k.g.lower, k.g.upper, k.weights, k.g.alphabet, bsf)
}

// minDistScalar is the reference scalar implementation of the same bound;
// tests assert exact agreement with minDistEA and distTable.
func (k *kernel) minDistScalar(word []byte) float64 {
	var sum float64
	alpha := k.g.alphabet
	for j := 0; j < k.l; j++ {
		sym := int(word[j])
		lo, hi := k.g.lower[j*alpha+sym], k.g.upper[j*alpha+sym]
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

// nodeMinDist computes the squared lower-bound distance between the query
// representation and a variable-cardinality node word (cards[j] bits of
// prefix per position; cards[j] == 0 means the position is unconstrained)
// from the summarization's breakpoints. Queries descend the tree through
// distTable.nodeMinDist, which reads the same products out of the per-query
// table; this form needs no table and serves MinRootBound's certificate,
// and it is the reference the table form is pinned against.
func nodeMinDist(s Summarizer, qr []float64, word []byte, cards []uint8) float64 {
	l := s.Segments()
	maxBits := s.MaxBits()
	weights := s.Weights()
	var sum float64
	for j := 0; j < l; j++ {
		bits := int(cards[j])
		if bits == 0 {
			continue // interval is (-inf, +inf): contributes nothing
		}
		bps := s.Breakpoints(j)
		shift := uint(maxBits - bits)
		loIdx := int(word[j]) << shift
		hiIdx := (int(word[j]) + 1) << shift
		v := qr[j]
		var d float64
		if loIdx > 0 && v < bps[loIdx-1] {
			d = bps[loIdx-1] - v
		} else if hiIdx <= len(bps) && v > bps[hiIdx-1] {
			d = v - bps[hiIdx-1]
		}
		sum += weights[j] * d * d
	}
	return sum
}

// distTable is the LBD kernel of the refinement loop: for
// one query, precompute the weighted squared distance contribution of every
// (position, symbol) pair, reducing the per-series LBD to l table lookups
// plus adds. It trades one l x alphabet build per query for branch-free
// lookups per series — far cheaper than Algorithm 3's four gathers per lane
// when a query refines thousands of series (the benchmarks quantify it).
//
// The table is one flat []float64 of length l*alphabet indexed
// j*alphabet+sym: with alphabet 256 and l 16 it is 32 KiB, resident in L1/L2
// for the whole refinement phase. build reuses the backing array, so a
// pooled searcher pays zero allocations per query — and skips the rebuild
// entirely when the query representation is unchanged (repeated queries,
// batch replays), comparing l cached floats instead of recomputing
// l*alphabet entries.
type distTable struct {
	flat     []float64 // [l*alphabet] weighted squared distances
	qrCache  []float64 // query representation the table was built for
	l        int
	alphabet int
}

// build (re)fills the table for the kernel's current query representation.
func (t *distTable) build(k *kernel, alphabet int) {
	need := k.l * alphabet
	if len(t.flat) == need && t.l == k.l && t.alphabet == alphabet && sameQR(t.qrCache, k.qr) {
		return // repeat query: table already matches (NaN never matches, so it always rebuilds)
	}
	if cap(t.flat) < need {
		t.flat = make([]float64, need)
	}
	t.flat = t.flat[:need]
	t.l = k.l
	t.alphabet = alphabet
	for j := 0; j < k.l; j++ {
		row := t.flat[j*alphabet : (j+1)*alphabet]
		v := k.qr[j]
		w := k.weights[j]
		glo := k.g.lower[j*k.g.alphabet:]
		ghi := k.g.upper[j*k.g.alphabet:]
		for sym := 0; sym < alphabet; sym++ {
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
func newDistTable(k *kernel, alphabet int) *distTable {
	t := &distTable{}
	t.build(k, alphabet)
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
func (t *distTable) nodeMinDist(qword, word []byte, cards []uint8, maxBits int) float64 {
	var sum float64
	for j := 0; j < t.l; j++ {
		bits := int(cards[j])
		if bits == 0 {
			continue // interval is (-inf, +inf): contributes nothing
		}
		shift := uint(maxBits - bits)
		lo := int(word[j]) << shift
		hi := lo + 1<<shift - 1
		sym := int(qword[j])
		if sym < lo {
			sym = lo
		} else if sym > hi {
			sym = hi
		}
		sum += t.flat[j*t.alphabet+sym]
	}
	return sum
}

// minDistEA computes the same early-abandoning squared lower bound as the
// kernel, via flat table lookups in chunks of 8 positions: sixteen L1 loads
// feeding one sequential add chain, which keeps the table bit-for-bit
// against the scalar reference.
func (t *distTable) minDistEA(word []byte, bsf float64) float64 {
	return simd.LookupAccumEASeq(word[:t.l], t.flat, t.alphabet, bsf)
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
	return simd.LookupAccumBlockSurvivors(words, n, t.flat, t.alphabet, out, bsf, surv)
}
