// Package sax builds the (indexable) Symbolic Aggregate approXimation, the
// summarization of the MESSI baseline, as an sfa.Quantizer: PAA is a
// projection onto l segment-mean rows, quantized against the equal-depth
// bins of the standard Normal distribution N(0,1) at every position under
// weight n/l, so an iSAX word takes SFA's word path (simd.Project, then one
// quantization) and its lower bound is SFA's MinDist. iSAX's per-segment
// variable cardinality is the quantizer's symbol-prefix semantics, which
// the tree exploits for node splits.
package sax

import (
	"fmt"

	"repro/internal/sfa"
	"repro/internal/stats"
)

// Quantizer is the fixed iSAX summarization for one series length, word
// length and alphabet. It is immutable and safe for concurrent use.
type Quantizer struct{ *sfa.Quantizer }

// NewQuantizer builds an iSAX quantizer for series of length n, l segments
// and 2^bits symbols. The paper's default is l=16, bits=8 (alphabet 256).
func NewQuantizer(n, l, bits int) (*Quantizer, error) {
	if n < 1 {
		return nil, fmt.Errorf("sax: series length must be >= 1, got %d", n)
	}
	if l < 1 || l > n {
		return nil, fmt.Errorf("sax: word length %d out of range [1,%d]", l, n)
	}
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("sax: bits %d out of range [1,8]", bits)
	}
	alpha := 1 << bits
	bps := make([]float64, alpha-1)
	for i := range bps {
		bps[i] = stats.NormalQuantile(float64(i+1) / float64(alpha))
	}
	tables, weights := make([][]float64, l), make([]float64, l)
	for j := range tables {
		// Lin et al.'s sqrt(n/l) factor, squared.
		tables[j], weights[j] = bps, float64(n)/float64(l)
	}
	return &Quantizer{sfa.New(n, bits, paaBasis(n, l), tables, weights)}, nil
}

// paaBasis returns the row-major l×n matrix whose row j averages segment j.
// Scaled by l, point t covers [t·l, (t+1)·l) and segment j covers
// [j·n, (j+1)·n), so point t weighs overlap/n in segment j: 1/(n/l) when l
// divides n, and split exactly between two segments at a boundary that
// falls inside it when it does not. The overlaps are integers, so every
// point's overlaps sum to exactly l and every segment's to exactly n.
func paaBasis(n, l int) []float64 {
	basis := make([]float64, l*n)
	for j := 0; j < l; j++ {
		row := basis[j*n : (j+1)*n]
		for t := j * n / l; t*l < (j+1)*n; t++ {
			overlap := min((t+1)*l, (j+1)*n) - max(t*l, j*n)
			row[t] = float64(overlap) / float64(n)
		}
	}
	return basis
}

// NewEncoder returns a per-goroutine encoder for the quantizer: the
// sfa.Transformer every summarization shares.
func (q *Quantizer) NewEncoder() *sfa.Transformer { return q.NewTransformer() }
