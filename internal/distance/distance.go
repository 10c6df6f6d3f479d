// Package distance implements the Euclidean distance kernels used by every
// search method in the SOFA reproduction: z-normalization, full squared
// Euclidean distance, and the chunked, SIMD-style early-abandoning variant
// that the GEMINI refinement step and the UCR-suite baseline rely on.
//
// All distances in this codebase are squared Euclidean distances; square
// roots are taken only at reporting boundaries. This matches the paper's
// implementation (and MESSI's), where pruning compares squared values.
package distance

import (
	"fmt"
	"math"

	"repro/internal/simd"
)

// ZNormalize z-normalizes x in place (mean 0, standard deviation 1). A
// constant series (zero variance) becomes all zeros rather than NaN, the
// convention used by the UCR suite.
//
// The variance is computed two-pass (mean first, then squared deviations)
// rather than as sumSq/n − mean²: the one-pass form cancels catastrophically
// when the mean dominates the spread (e.g. a sensor series around 1e8 with
// unit oscillation loses all significant digits of its variance).
func ZNormalize(x []float64) {
	if len(x) == 0 {
		return
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	n := float64(len(x))
	mean := sum / n
	var variance float64
	for _, v := range x {
		d := v - mean
		variance += d * d
	}
	variance /= n
	if variance < 1e-12 {
		for i := range x {
			x[i] = 0
		}
		return
	}
	inv := 1 / math.Sqrt(variance)
	for i := range x {
		x[i] = (x[i] - mean) * inv
	}
}

// ZNormalized returns a z-normalized copy of x.
func ZNormalized(x []float64) []float64 {
	out := append([]float64(nil), x...)
	ZNormalize(out)
	return out
}

// SquaredED returns the squared Euclidean distance between equal-length
// series a and b. It panics if the lengths differ (callers index flat
// buffers with a fixed stride, so a mismatch is a programming error).
func SquaredED(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("distance: length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SquaredEDEarlyAbandon computes the squared ED between a and b but returns
// early — with a partial sum already exceeding bound — as soon as the
// accumulated distance passes bound. The returned value is only guaranteed
// to be the exact distance when it is <= bound; otherwise it is a certificate
// that the true distance exceeds bound.
//
// The kernel is simd.SquaredEDEA: 16-element blocks of fused
// multiply-accumulate with the abandon test after each block — AVX2+FMA
// assembly where the hardware supports it, the bit-identical portable
// reference everywhere else (paper Section IV-H).
//
//   - Row prefetch. The index's refinement walk calls the same kernel as
//     simd.SquaredEDEARead, which also reports how many elements it read,
//     and uses those lengths to size a prefetch (simd.Prefetch) of the rows
//     of the survivors it will refine next. The sum is bit-identical to
//     this function's.
func SquaredEDEarlyAbandon(a, b []float64, bound float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("distance: length mismatch %d vs %d", len(a), len(b)))
	}
	return simd.SquaredEDEA(a, b, bound)
}

// ED returns the (non-squared) Euclidean distance between a and b.
func ED(a, b []float64) float64 {
	return math.Sqrt(SquaredED(a, b))
}

// Matrix is a flat row-major collection of N series of fixed length Stride.
// It is the in-memory layout shared by the index, the scan baseline and the
// flat (FAISS-like) baseline: one contiguous allocation, cache-friendly
// sequential access, no per-series slice headers.
type Matrix struct {
	Data   []float64
	Stride int
}

// NewMatrix allocates a matrix for n series of length stride.
func NewMatrix(n, stride int) *Matrix {
	return &Matrix{Data: make([]float64, n*stride), Stride: stride}
}

// FromRows builds a Matrix by copying the given equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("distance: FromRows needs at least one row")
	}
	stride := len(rows[0])
	if stride == 0 {
		return nil, fmt.Errorf("distance: zero-length series")
	}
	m := NewMatrix(len(rows), stride)
	for i, r := range rows {
		if len(r) != stride {
			return nil, fmt.Errorf("distance: row %d has length %d, want %d", i, len(r), stride)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Len returns the number of series stored.
func (m *Matrix) Len() int {
	if m.Stride == 0 {
		return 0
	}
	return len(m.Data) / m.Stride
}

// Row returns the i-th series as a slice aliasing the underlying buffer.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Stride : (i+1)*m.Stride : (i+1)*m.Stride]
}

// ZNormalizeAll z-normalizes every row in place.
func (m *Matrix) ZNormalizeAll() {
	for i := 0; i < m.Len(); i++ {
		ZNormalize(m.Row(i))
	}
}

// SquaredNorms returns the squared L2 norm of every row; the flat baseline
// precomputes these for the ‖a‖²−2a·b+‖b‖² decomposition.
func (m *Matrix) SquaredNorms() []float64 {
	n := m.Len()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		r := m.Row(i)
		var s float64
		for _, v := range r {
			s += v * v
		}
		out[i] = s
	}
	return out
}

// Dot returns the dot product of equal-length a and b (blocked FMA kernel,
// dispatched to AVX2 assembly when available).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("distance: length mismatch %d vs %d", len(a), len(b)))
	}
	return simd.Dot(a, b)
}

// PartitionRoundRobin splits the matrix into s shard matrices: shard i
// receives rows i, i+s, i+2s, ... (so global row g lives in shard g % s at
// local row g / s, and shard i holds ceil((n-i)/s) rows). This is the one
// partitioning shared by every sharded structure in the repo — the tree
// collection and the flat baseline must slice identically to be comparable.
// With s == 1 the original matrix is returned (aliased, no copy).
func (m *Matrix) PartitionRoundRobin(s int) []*Matrix {
	if s == 1 {
		return []*Matrix{m}
	}
	n := m.Len()
	out := make([]*Matrix, s)
	for i := 0; i < s; i++ {
		out[i] = NewMatrix((n-i+s-1)/s, m.Stride)
	}
	for g := 0; g < n; g++ {
		copy(out[g%s].Row(g/s), m.Row(g))
	}
	return out
}

// Append copies a new row onto the end of the matrix and returns its index.
// It panics on a stride mismatch. Existing Row slices may be invalidated by
// reallocation; callers that hold rows across Append must re-fetch them.
func (m *Matrix) Append(row []float64) int {
	if len(row) != m.Stride {
		panic(fmt.Sprintf("distance: appending row of length %d to stride-%d matrix", len(row), m.Stride))
	}
	m.Data = append(m.Data, row...)
	return m.Len() - 1
}
