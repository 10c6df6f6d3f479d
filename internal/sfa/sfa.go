// Package sfa implements the projection quantizer both summarizations are
// words of: an l×n basis, one breakpoint table per word position, and one
// weight per position. A word is the projection of a series onto the basis,
// each value quantized against its own position's table; the lower bound is
// the weighted sum of each query value's squared distance to its symbol's
// interval (Eq. 2). SFA and iSAX differ only in the three parts:
//
//   - SFA, the paper's summarization (Section IV-E), is learned by Learn
//     with Multiple Coefficient Binning (MCB). Each basis row is one real
//     or imaginary part of a DFT coefficient, cos(2πkt/n)/√n or
//     -sin(2πkt/n)/√n (scaled so Parseval yields the Euclidean lower bound
//     of Eq. 1 directly, under weight 2, or 1 for Nyquist). Of the first
//     MaxCoeffs complex coefficients, the l values with the highest
//     variance over a sample are kept (the paper's selection; the classical
//     first-l strategy is kept for the ablation study), and each gets its
//     own alphabet-sized bin table learned from the sample, equi-width (the
//     paper's choice) or equi-depth (original SFA).
//   - iSAX, MESSI's summarization, is fixed: internal/sax builds it with New
//     from the PAA basis, the N(0,1) table at every position and weight n/l.
//
// One simd.Project call computes the l values of a whole block of series
// (Transformer.Words), register-tiled so each basis row is loaded once per
// few series, and one series (Word, QueryRepr) is the same call on a block
// of one; every value is bit-identical to simd.Dot of the series with its
// basis row, in every kernel tier. On an equi-width table a value's bin is
// guessed from the first breakpoint and the mean bin width, then corrected
// against the table with a few compares, so the symbol is exactly
// stats.BinIndex's in O(1); other tables take the binary search.
//
// A word is the quantization of the query representation (Transformer.Word
// quantizes Transformer.QueryRepr), so both come from one arithmetic and a
// value on a breakpoint falls on the same side of it in each. The index
// uses the lower bound for GEMINI-style pruning.
package sfa

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/distance"
	"repro/internal/simd"
	"repro/internal/stats"
)

// Binning selects the MCB bin-learning strategy.
type Binning int

const (
	// EquiWidth bins divide the observed value range evenly — the paper's
	// default, which maximizes interval width and thus the lower bound.
	EquiWidth Binning = iota
	// EquiDepth bins hold equal sample mass — the original SFA strategy,
	// kept for the Section V-E ablation.
	EquiDepth
)

func (b Binning) String() string {
	switch b {
	case EquiWidth:
		return "EW"
	case EquiDepth:
		return "ED"
	default:
		return fmt.Sprintf("Binning(%d)", int(b))
	}
}

// Selection selects the Fourier-value feature-selection strategy.
type Selection int

const (
	// HighestVariance keeps the l values with the largest variance over the
	// sample — the paper's contribution (Section IV-E2).
	HighestVariance Selection = iota
	// FirstCoefficients keeps the first l values (low-pass), the classical
	// SFA strategy, kept for the ablation.
	FirstCoefficients
)

func (s Selection) String() string {
	switch s {
	case HighestVariance:
		return "VAR"
	case FirstCoefficients:
		return "FIRST"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// DefaultWordLength and DefaultBits are the summarization defaults: the word
// length l and the bits per symbol a zero-valued configuration gets, here
// (Options) and in core.Config, for SFA and iSAX alike.
const (
	DefaultWordLength = 16
	DefaultBits       = 8
)

// Options configures MCB learning. The zero value is completed by
// (*Options).withDefaults to the paper's defaults.
type Options struct {
	WordLength int       // l: number of real/imag values kept (default DefaultWordLength)
	Bits       int       // bits per symbol; alphabet 2^Bits (default DefaultBits)
	Binning    Binning   // default EquiWidth
	Selection  Selection // default HighestVariance
	SampleRate float64   // MCB sampling ratio r (default 0.01)
	MaxCoeffs  int       // candidate pool: first MaxCoeffs complex coefficients (default 16)
	Seed       int64     // sampling seed (default 1)
	// MinSamples floors the MCB sample size (default 2048, capped at the
	// dataset size). The paper's 1% rate targets collections of 10⁶–10⁸
	// series; on laptop-scale datasets a raw 1% would leave too few samples
	// to place 256 bins, so the floor keeps the learned quantization stable
	// without changing behaviour at paper scale. Set to -1 to disable.
	MinSamples int
}

func (o Options) withDefaults(n int) Options {
	if o.WordLength == 0 {
		o.WordLength = DefaultWordLength
	}
	if o.Bits == 0 {
		o.Bits = DefaultBits
	}
	if o.SampleRate == 0 {
		o.SampleRate = 0.01
	}
	if o.MaxCoeffs == 0 {
		o.MaxCoeffs = 16
	}
	if max := n / 2; o.MaxCoeffs > max {
		// Never exceed the available non-DC spectrum.
		o.MaxCoeffs = max
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MinSamples == 0 {
		o.MinSamples = 2048
	}
	if o.MinSamples < 0 {
		o.MinSamples = 1
	}
	return o
}

// Quantizer is a projection summarization: the basis, the per-position
// breakpoint tables and weights, and for a learned SFA quantizer the
// selected Fourier-value indices the basis was derived from. It is immutable
// after construction and safe for concurrent use; per-goroutine scratch
// lives in Transformer.
type Quantizer struct {
	n       int        // series length
	l       int        // word length (number of values)
	bits    int        // bits per symbol
	basis   []float64  // l×n row-major projection; row j yields value j
	bins    []binTable // l tables of (1<<bits)-1 breakpoints
	weights []float64  // lower-bound weight per value
	// SFA only (nil and 0 for a quantizer built by New): the selected
	// value indices into the interleaved spectrum, ordered by decreasing
	// variance (early-abandon priority), their variances, and the candidate
	// pool plus DC (every index is < 2*nCoeffs). The basis is derived from
	// indices and n, never persisted.
	indices   []int
	variances []float64
	nCoeffs   int
}

// New assembles a quantizer for series of length n from a row-major l×n
// projection basis, one sorted table of (1<<bits)-1 breakpoints per word
// position (tables may share storage) and one weight per position, where
// l = len(bps). The caller guarantees the lower bound: for every pair of
// series, the weighted sum of squared differences of their projected values
// must not exceed their squared Euclidean distance.
func New(n, bits int, basis []float64, bps [][]float64, weights []float64) *Quantizer {
	q := &Quantizer{
		n: n, l: len(bps), bits: bits,
		basis:   basis,
		bins:    make([]binTable, len(bps)),
		weights: weights,
	}
	for j, b := range bps {
		q.bins[j] = newBinTable(b)
	}
	return q
}

// newQuantizer assembles a learned SFA quantizer and derives its projection
// basis; Learn and FromState both end here.
func newQuantizer(n, bits, nCoeffs int, indices []int, variances, weights []float64, bps [][]float64) *Quantizer {
	q := New(n, bits, projectionBasis(n, indices), bps, weights)
	q.indices, q.variances, q.nCoeffs = indices, variances, nCoeffs
	return q
}

// projectionBasis returns the row-major len(indices)×n matrix whose row j
// projects a series onto interleaved-spectrum value indices[j]: the real
// part cos(2πkt/n)/√n, or the imaginary part -sin(2πkt/n)/√n, of
// coefficient k = indices[j]/2 — the forward DFT's e^{-2πikt/n}, scaled as
// fft.ForwardReal scales it. Reducing k·t mod n before the division keeps
// the angle in [0, 2π), so it stays precise at high k and t.
func projectionBasis(n int, indices []int) []float64 {
	basis := make([]float64, len(indices)*n)
	scale := 1 / math.Sqrt(float64(n))
	for j, idx := range indices {
		row, k := basis[j*n:(j+1)*n], idx/2
		for t := range row {
			angle := 2 * math.Pi * float64(k*t%n) / float64(n)
			if idx%2 == 0 {
				row[t] = math.Cos(angle) * scale
			} else {
				row[t] = -math.Sin(angle) * scale
			}
		}
	}
	return basis
}

// binTable locates values in one word position's sorted breakpoint table.
type binTable struct {
	bps []float64
	lo  float64 // bps[0]
	inv float64 // 1 / mean bin width; 0 when the table takes the binary search
	// An offset pos(v) = (v-lo)*inv whose fraction lies in (near, far) is
	// more than the table's slack from every integer, and v's bin is read
	// off it (see index). near = 1, far = 0 disables that.
	near, far float64
}

// newBinTable enables the arithmetic guess when bps is equi-width: a finite
// positive mean width, and every breakpoint within one mean width of where a
// uniform table would put it, so the guess is at most a step or two off.
// Learned equi-depth tables fail that test and keep the binary search; the
// answer is exact either way.
func newBinTable(bps []float64) binTable {
	b := binTable{bps: bps, near: 1}
	m := len(bps)
	if m < 2 || math.IsInf(bps[0], 0) || math.IsNaN(bps[0]) {
		return b
	}
	lo, inv := bps[0], float64(m-1)/(bps[m-1]-bps[0])
	if !(inv > 0) || math.IsInf(inv, 0) {
		return b
	}
	var slack float64 // max |pos(bps[k]) - k|
	for i, v := range bps {
		d := math.Abs((v-lo)*inv - float64(i))
		if !(d <= 1) {
			return b
		}
		slack = max(slack, d)
	}
	// The margin covers the rounding of 1-slack (below 2^-53).
	slack += 0x1p-40
	b.lo, b.inv, b.near, b.far = lo, inv, slack, 1-slack
	return b
}

// index returns stats.BinIndex(b.bps, v): the number of breakpoints <= v.
//
// On an equi-width table pos(v) = (v-lo)*inv is monotone in v (a rounded
// subtraction and a rounded product by a positive constant), so
// pos(v) > pos(bps[k]) proves v > bps[k] and pos(v) < pos(bps[k]) proves
// v < bps[k]. Every pos(bps[k]) lies within slack of k, so when pos(v) = i+r
// with slack < r < 1-slack, v lies strictly between bps[i] and bps[i+1] and
// the count is i+1, with no load from the table. r = pos(v)-i is exact
// (Sterbenz) for 0 <= i < len(bps). Any other value, NaN and ±Inf among
// them, takes locate.
func (b *binTable) index(v float64) int {
	if g, ok := b.offsetBin(v); ok {
		return g
	}
	return b.locate(v)
}

// offsetBin is index's load-free path, small enough to inline into
// quantize's loop: the count read off v's offset, and whether it holds.
func (b *binTable) offsetBin(v float64) (int, bool) {
	f := (v - b.lo) * b.inv
	i := int(f)
	r := f - float64(i)
	return i + 1, uint(i) < uint(len(b.bps)) && r > b.near && r < b.far
}

// locate is index's exact path. An equi-width table guesses the bin from v's
// offset in mean widths and walks the guess to the count; other tables take
// the binary search. NaN compares false everywhere and lands in bin 0, as in
// the binary search.
func (b *binTable) locate(v float64) int {
	if b.inv == 0 {
		return stats.BinIndex(b.bps, v)
	}
	m, g := len(b.bps), 0
	if f := (v - b.lo) * b.inv; f >= float64(m-1) {
		g = m
	} else if f >= 0 {
		g = int(f) + 1
	}
	for g > 0 && v < b.bps[g-1] {
		g--
	}
	for g < m && v >= b.bps[g] {
		g++
	}
	return g
}

// Learn runs MCB (Algorithm 1) over the dataset: sample, transform, select
// values, learn bins. The matrix rows are assumed z-normalized (the paper
// indexes z-normalized series; the DC coefficient is then 0 and is excluded
// from the candidate pool).
func Learn(data *distance.Matrix, opts Options) (*Quantizer, error) {
	if data == nil || data.Len() == 0 {
		return nil, fmt.Errorf("sfa: cannot learn from empty dataset")
	}
	n := data.Stride
	o := opts.withDefaults(n)
	if o.Bits < 1 || o.Bits > 8 {
		return nil, fmt.Errorf("sfa: bits %d out of range [1,8]", o.Bits)
	}
	// Candidate values: real and imaginary parts of complex coefficients
	// 1..MaxCoeffs (DC excluded).
	candidates := candidateIndices(n, o.MaxCoeffs)
	if len(candidates) < o.WordLength {
		return nil, fmt.Errorf("sfa: word length %d exceeds %d candidate values (series length %d, MaxCoeffs %d)",
			o.WordLength, len(candidates), n, o.MaxCoeffs)
	}

	sample := sampleRows(data, o.SampleRate, o.MinSamples, o.Seed)
	// values[c][s]: value of candidate c for sample s, projected exactly as
	// a Transformer projects it (same basis row, same simd.Project), a block
	// of sampled rows at a time.
	nc := len(candidates)
	cand := projectionBasis(n, candidates)
	values := make([][]float64, nc)
	for i := range values {
		values[i] = make([]float64, len(sample))
	}
	rows := make([]float64, 0, wordsBlock*n)
	proj := make([]float64, wordsBlock*nc)
	for lo := 0; lo < len(sample); lo += wordsBlock {
		block := sample[lo:min(lo+wordsBlock, len(sample))]
		rows = rows[:0]
		for _, row := range block {
			rows = append(rows, data.Row(row)...)
		}
		simd.Project(cand, nc, n, rows, proj)
		for s := range block {
			for c, v := range proj[s*nc : (s+1)*nc] {
				values[c][lo+s] = v
			}
		}
	}

	// Feature selection (Section IV-E2).
	vars := make([]float64, len(candidates))
	for c := range candidates {
		vars[c] = stats.Variance(values[c])
	}
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	switch o.Selection {
	case HighestVariance:
		sort.SliceStable(order, func(a, b int) bool { return vars[order[a]] > vars[order[b]] })
	case FirstCoefficients:
		// candidates are already in ascending spectral order
	default:
		return nil, fmt.Errorf("sfa: unknown selection strategy %v", o.Selection)
	}
	chosen := order[:o.WordLength]

	var (
		indices   = make([]int, o.WordLength)
		variances = make([]float64, o.WordLength)
		weights   = make([]float64, o.WordLength)
		tables    = make([][]float64, o.WordLength)
		alpha     = 1 << o.Bits
		err       error
	)
	for j, c := range chosen {
		idx := candidates[c]
		indices[j] = idx
		variances[j] = vars[c]
		weights[j] = parsevalWeight(n, idx)
		switch o.Binning {
		case EquiWidth:
			tables[j], err = stats.EquiWidthBreakpoints(values[c], alpha)
		case EquiDepth:
			tables[j], err = stats.EquiDepthBreakpoints(values[c], alpha)
		default:
			err = fmt.Errorf("sfa: unknown binning strategy %v", o.Binning)
		}
		if err != nil {
			return nil, err
		}
	}
	return newQuantizer(n, o.Bits, o.MaxCoeffs+1, indices, variances, weights, tables), nil
}

// candidateIndices returns the interleaved-spectrum value indices eligible
// for selection: real and imaginary parts of coefficients 1..maxCoeffs,
// excluding the imaginary Nyquist part (identically zero for even n).
func candidateIndices(n, maxCoeffs int) []int {
	var out []int
	for k := 1; k <= maxCoeffs; k++ {
		out = append(out, 2*k) // real part
		if !(n%2 == 0 && k == n/2) {
			out = append(out, 2*k+1) // imag part (skip Nyquist imag)
		}
	}
	return out
}

// parsevalWeight returns the multiplicity of the value at interleaved index
// idx in Parseval's identity: 2 for all coefficients except DC and (even n)
// Nyquist, which appear once.
func parsevalWeight(n, idx int) float64 {
	k := idx / 2
	if k == 0 || (n%2 == 0 && k == n/2) {
		return 1
	}
	return 2
}

// sampleRows picks max(minSamples, rate*N) distinct row indices uniformly
// without replacement, deterministically for a given seed.
func sampleRows(data *distance.Matrix, rate float64, minSamples int, seed int64) []int {
	n := data.Len()
	k := int(math.Ceil(rate * float64(n)))
	if k < minSamples {
		k = minSamples
	}
	if k < 1 {
		k = 1
	}
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

// Segments returns the word length l.
func (q *Quantizer) Segments() int { return q.l }

// SeriesLen returns the series length n.
func (q *Quantizer) SeriesLen() int { return q.n }

// MaxBits returns the bits per symbol at full cardinality.
func (q *Quantizer) MaxBits() int { return q.bits }

// Weights returns the per-position lower-bound weights: the Parseval
// multiplicity for SFA, n/l for iSAX.
func (q *Quantizer) Weights() []float64 { return q.weights }

// Breakpoints returns the full-cardinality breakpoint table for the j-th
// word position.
func (q *Quantizer) Breakpoints(j int) []float64 { return q.bins[j].bps }

// Indices returns the selected interleaved-spectrum value indices in
// priority (descending variance) order; nil for a quantizer built by New.
func (q *Quantizer) Indices() []int { return q.indices }

// Variances returns the sample variance of each selected value.
func (q *Quantizer) Variances() []float64 { return q.variances }

// MeanCoefficientIndex returns the mean complex-coefficient index of the
// selected values — the x-axis of the paper's Fig. 13.
func (q *Quantizer) MeanCoefficientIndex() float64 {
	if len(q.indices) == 0 {
		return 0
	}
	var s float64
	for _, idx := range q.indices {
		s += float64(idx / 2)
	}
	return s / float64(len(q.indices))
}

// SymbolBounds returns the value interval [lo, hi) covered by a symbol
// prefix of width bits at word position j. bits == MaxBits() addresses a
// single full-cardinality symbol; fewer bits address the merged interval of
// all symbols sharing that prefix (iSAX variable cardinality). lo may be
// -Inf and hi +Inf at the extremes.
func (q *Quantizer) SymbolBounds(j int, bits int, prefix byte) (lo, hi float64) {
	bps := q.bins[j].bps
	shift := uint(q.bits - bits)
	loIdx := int(prefix) << shift // first full-cardinality bin of the prefix
	hiIdx := (int(prefix) + 1) << shift
	lo, hi = math.Inf(-1), math.Inf(1)
	if loIdx > 0 {
		lo = bps[loIdx-1]
	}
	if hiIdx <= len(bps) {
		hi = bps[hiIdx-1]
	}
	return lo, hi
}

// MinDist computes the squared lower-bounding distance (Eq. 2 summed under
// the weights) between the query representation qr and a full-cardinality
// word. Scalar reference implementation.
func (q *Quantizer) MinDist(qr []float64, word []byte) float64 {
	var sum float64
	for j := 0; j < q.l; j++ {
		lo, hi := q.SymbolBounds(j, q.bits, word[j])
		d := breakpointDist(qr[j], lo, hi)
		sum += q.weights[j] * d * d
	}
	return sum
}

// MinDistVariable computes the squared mindist against a variable-
// cardinality word (cards[j] bits per position; word symbols are prefixes
// right-aligned in the low bits).
func (q *Quantizer) MinDistVariable(qr []float64, word []byte, cards []uint8) float64 {
	var sum float64
	for j := 0; j < q.l; j++ {
		lo, hi := q.SymbolBounds(j, int(cards[j]), word[j])
		d := breakpointDist(qr[j], lo, hi)
		sum += q.weights[j] * d * d
	}
	return sum
}

// breakpointDist is Eq. 2 of the paper: the distance from value v to the
// interval [lo, hi).
func breakpointDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// wordsBlock is the most series one simd.Project call of Words (or of
// Learn's sample projection) covers: their values, at most 64 × 32 float64s
// (16 KiB) at l = 32, stay in L1d for the quantization that follows.
const wordsBlock = 64

// Transformer transforms series under a Quantizer, holding the
// per-goroutine scratch Words quantizes from. Not safe for concurrent use;
// create one per worker.
type Transformer struct {
	q    *Quantizer
	vals []float64 // projected values of up to wordsBlock series
}

// NewTransformer creates a transformer for the quantizer.
func (q *Quantizer) NewTransformer() *Transformer {
	return &Transformer{q: q, vals: make([]float64, q.l)}
}

// QueryRepr computes the query-side representation — simd.Project of query
// onto the basis: SFA's selected scaled DFT values in priority order, or
// iSAX's segment means — into dst (length >= l), returning dst[:l].
func (t *Transformer) QueryRepr(query []float64, dst []float64) ([]float64, error) {
	q := t.q
	if len(query) != q.n {
		return nil, fmt.Errorf("sfa: query length %d, want %d", len(query), q.n)
	}
	if len(dst) < q.l {
		return nil, fmt.Errorf("sfa: dst length %d < %d", len(dst), q.l)
	}
	simd.Project(q.basis, q.l, q.n, query, dst[:q.l])
	return dst[:q.l], nil
}

// Word computes the full-cardinality word of series (Algorithm 2) into
// dst (length >= l), returning dst[:l]: the quantization of QueryRepr(series),
// computed as Words on a block of one.
func (t *Transformer) Word(series []float64, dst []byte) ([]byte, error) {
	if len(series) != t.q.n {
		return nil, fmt.Errorf("sfa: series length %d, want %d", len(series), t.q.n)
	}
	if err := t.Words(series, dst); err != nil {
		return nil, err
	}
	return dst[:t.q.l], nil
}

// Words computes the full-cardinality words of a block of series, which
// rows holds back to back (n values each), into dst (length >= series × l):
// the word of series r at dst[r*l:(r+1)*l], byte-identical to Word of it.
// One simd.Project call projects up to wordsBlock series, and their values
// are quantized while they are still in cache.
func (t *Transformer) Words(rows []float64, dst []byte) error {
	q := t.q
	if len(rows)%q.n != 0 {
		return fmt.Errorf("sfa: block length %d is not a multiple of the series length %d", len(rows), q.n)
	}
	m := len(rows) / q.n
	if len(dst) < m*q.l {
		return fmt.Errorf("sfa: dst length %d < %d", len(dst), m*q.l)
	}
	if need := min(m, wordsBlock) * q.l; len(t.vals) < need {
		t.vals = make([]float64, need)
	}
	for lo := 0; lo < m; lo += wordsBlock {
		hi := min(lo+wordsBlock, m)
		vals := t.vals[:(hi-lo)*q.l]
		simd.Project(q.basis, q.l, q.n, rows[lo*q.n:hi*q.n], vals)
		q.quantize(vals, dst[lo*q.l:hi*q.l])
	}
	return nil
}

// quantize writes the symbol of every value in vals, which holds whole
// words' values (l per series), into dst.
func (q *Quantizer) quantize(vals []float64, dst []byte) {
	for r := 0; r < len(vals); r += q.l {
		for j, v := range vals[r : r+q.l] {
			b := &q.bins[j]
			g, ok := b.offsetBin(v)
			if !ok {
				g = b.locate(v)
			}
			dst[r+j] = byte(g)
		}
	}
}

// State is the serializable form of a learned SFA Quantizer, used by index
// persistence (an iSAX quantizer is derived from n and l, never saved). All
// slices are deep copies.
type State struct {
	N, L, Bits, NCoeffs int
	Indices             []int
	Variances           []float64
	Weights             []float64
	Breakpoints         [][]float64
}

// State exports the quantizer's learned tables.
func (q *Quantizer) State() State {
	st := State{
		N: q.n, L: q.l, Bits: q.bits, NCoeffs: q.nCoeffs,
		Indices:     append([]int(nil), q.indices...),
		Variances:   append([]float64(nil), q.variances...),
		Weights:     append([]float64(nil), q.weights...),
		Breakpoints: make([][]float64, len(q.bins)),
	}
	for j, b := range q.bins {
		st.Breakpoints[j] = append([]float64(nil), b.bps...)
	}
	return st
}

// FromState reconstructs a Quantizer from a serialized State, validating
// structural consistency and that the state still lower-bounds: each value
// selected once, under its Parseval weight.
func FromState(st State) (*Quantizer, error) {
	if st.N < 1 || st.L < 1 || st.Bits < 1 || st.Bits > 8 {
		return nil, fmt.Errorf("sfa: invalid state dimensions n=%d l=%d bits=%d", st.N, st.L, st.Bits)
	}
	if len(st.Indices) != st.L || len(st.Variances) != st.L || len(st.Weights) != st.L || len(st.Breakpoints) != st.L {
		return nil, fmt.Errorf("sfa: state slice lengths do not match word length %d", st.L)
	}
	if st.NCoeffs < 1 || st.NCoeffs > st.N/2+1 {
		return nil, fmt.Errorf("sfa: invalid coefficient count %d for series length %d", st.NCoeffs, st.N)
	}
	wantBPs := (1 << st.Bits) - 1
	bps := make([][]float64, st.L)
	for j, b := range st.Breakpoints {
		if len(b) != wantBPs {
			return nil, fmt.Errorf("sfa: position %d has %d breakpoints, want %d", j, len(b), wantBPs)
		}
		if !sort.Float64sAreSorted(b) {
			return nil, fmt.Errorf("sfa: position %d breakpoints not sorted", j)
		}
		bps[j] = append([]float64(nil), b...)
	}
	// A value selected twice, or weighted above its Parseval multiplicity,
	// counts its energy twice: the "lower bound" could exceed the distance.
	seen := make(map[int]bool, st.L)
	for j, idx := range st.Indices {
		if idx < 0 || idx >= 2*st.NCoeffs {
			return nil, fmt.Errorf("sfa: value index %d out of range [0,%d)", idx, 2*st.NCoeffs)
		}
		if seen[idx] {
			return nil, fmt.Errorf("sfa: value index %d selected twice", idx)
		}
		seen[idx] = true
		if w := parsevalWeight(st.N, idx); st.Weights[j] != w {
			return nil, fmt.Errorf("sfa: position %d weight %v, want Parseval weight %v", j, st.Weights[j], w)
		}
	}
	return newQuantizer(st.N, st.Bits, st.NCoeffs,
		append([]int(nil), st.Indices...),
		append([]float64(nil), st.Variances...),
		append([]float64(nil), st.Weights...),
		bps), nil
}
