// Package fft implements the discrete Fourier transform. It provides an
// iterative radix-2 Cooley-Tukey FFT for power-of-two lengths and
// Bluestein's chirp-z algorithm for arbitrary lengths, plus a real-input
// convenience layer that returns the half spectrum in the interleaved
// (real, imag, real, imag, ...) layout, scaled by 1/sqrt(n).
//
// No engine path runs it. The SFA summarization (internal/sfa) projects the
// l values a word keeps onto a precomputed basis instead of computing a full
// spectrum, and tests that projection against NaiveDFT. What still uses the
// package is the paper's Fig. 1 reconstruction experiment (internal/bench)
// and the benchmark's fft.forward_real_ns layer, which times ForwardReal
// even though no index call takes it any more.
//
// All transforms are allocation-conscious: callers that transform many
// series reuse a Plan, which owns the twiddle tables and scratch buffers.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan precomputes twiddle factors and scratch space for transforms of a
// fixed length n. A Plan is NOT safe for concurrent use; create one per
// goroutine (they are cheap relative to the data being transformed).
type Plan struct {
	n       int
	pow2    bool
	twiddle []complex128 // forward twiddles for radix-2, length n/2
	rev     []int        // bit-reversal permutation, length n

	// Bluestein state (nil when pow2).
	bluM      int          // convolution length, power of two >= 2n-1
	bluChirp  []complex128 // chirp factors w_k = exp(-i pi k^2 / n), length n
	bluBFFT   []complex128 // FFT of the padded reciprocal chirp, length bluM
	bluPlan   *Plan        // radix-2 plan of length bluM
	bluBufA   []complex128
	bluBufB   []complex128
	inputBuf  []complex128 // reused by ForwardReal
	outputBuf []float64
}

// NewPlan creates a transform plan for series of length n. n must be >= 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: length must be >= 1, got %d", n)
	}
	p := &Plan{n: n, pow2: isPow2(n)}
	if p.pow2 {
		p.initRadix2(n)
	} else {
		p.initBluestein(n)
	}
	p.inputBuf = make([]complex128, n)
	p.outputBuf = make([]float64, 2*n)
	return p, nil
}

// MustPlan is NewPlan that panics on error; for use with known-valid lengths.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Len reports the series length this plan transforms.
func (p *Plan) Len() int { return p.n }

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func (p *Plan) initRadix2(n int) {
	p.twiddle = make([]complex128, n/2)
	for k := 0; k < n/2; k++ {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	p.rev = make([]int, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
}

func (p *Plan) initBluestein(n int) {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.bluM = m
	p.bluPlan = MustPlan(m) // m is a power of two; recursion depth 1
	p.bluChirp = make([]complex128, n)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		// Use k^2 mod 2n to keep the angle argument small and precise.
		k2 := (int64(k) * int64(k)) % int64(2*n)
		angle := -math.Pi * float64(k2) / float64(n)
		w := complex(math.Cos(angle), math.Sin(angle))
		p.bluChirp[k] = w
		conj := complex(real(w), -imag(w))
		b[k] = conj
		if k > 0 {
			b[m-k] = conj
		}
	}
	p.bluPlan.forwardInPlace(b)
	p.bluBFFT = b
	p.bluBufA = make([]complex128, m)
	p.bluBufB = make([]complex128, m)
}

// Forward computes the in-place forward DFT of x, which must have length
// Len(). The transform is unnormalized: X[k] = sum_t x[t] exp(-2πi kt/n).
func (p *Plan) Forward(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("fft: input length %d does not match plan length %d", len(x), p.n)
	}
	p.forwardInPlace(x)
	return nil
}

func (p *Plan) forwardInPlace(x []complex128) {
	if p.pow2 {
		p.radix2(x)
		return
	}
	p.bluestein(x)
}

func (p *Plan) radix2(x []complex128) {
	n := p.n
	if n == 1 {
		return
	}
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				t := p.twiddle[tw] * x[k+half]
				x[k+half] = x[k] - t
				x[k] = x[k] + t
				tw += step
			}
		}
	}
}

func (p *Plan) bluestein(x []complex128) {
	n, m := p.n, p.bluM
	a, bf := p.bluBufA, p.bluBFFT
	for i := range a {
		a[i] = 0
	}
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.bluChirp[k]
	}
	p.bluPlan.forwardInPlace(a)
	for i := 0; i < m; i++ {
		a[i] *= bf[i]
	}
	p.bluPlan.inverseInPlace(a)
	scale := complex(1/float64(m), 0) // unnormalized inverse needs 1/m
	for k := 0; k < n; k++ {
		x[k] = a[k] * p.bluChirp[k] * scale
	}
}

// Inverse computes the in-place unnormalized inverse DFT
// (x[t] = sum_k X[k] exp(+2πi kt/n)); divide by n to invert Forward.
func (p *Plan) Inverse(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("fft: input length %d does not match plan length %d", len(x), p.n)
	}
	p.inverseInPlace(x)
	return nil
}

func (p *Plan) inverseInPlace(x []complex128) {
	// Inverse via conjugation: IDFT(x) = conj(DFT(conj(x))).
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
	p.forwardInPlace(x)
	for i, v := range x {
		x[i] = complex(real(v), -imag(v))
	}
}

// InverseNormalized computes the inverse DFT including the 1/n factor, so
// that InverseNormalized(Forward(x)) == x.
func (p *Plan) InverseNormalized(x []complex128) error {
	if err := p.Inverse(x); err != nil {
		return err
	}
	s := 1 / float64(p.n)
	for i, v := range x {
		x[i] = complex(real(v)*s, imag(v)*s)
	}
	return nil
}

// ForwardReal transforms the real series x (length Len()) and writes the
// first nCoeffs complex coefficients into dst as interleaved
// (re0, im0, re1, im1, ...). dst must have length >= 2*nCoeffs and nCoeffs
// must be <= Len()/2+1. Coefficients are scaled by 1/sqrt(n) so that
// Parseval's theorem gives the Euclidean lower bound of Eq. 1 directly:
//
//	ed²(A,B) = Σ_k |A'_k - B'_k|²  (over the full spectrum)
//	        ≥ (a'_0-b'_0)² + 2 Σ_{i=1..l} |a'_i-b'_i|²
//
// The returned slice is dst[:2*nCoeffs].
func (p *Plan) ForwardReal(x []float64, nCoeffs int, dst []float64) ([]float64, error) {
	if len(x) != p.n {
		return nil, fmt.Errorf("fft: input length %d does not match plan length %d", len(x), p.n)
	}
	max := p.n/2 + 1
	if nCoeffs < 1 || nCoeffs > max {
		return nil, fmt.Errorf("fft: nCoeffs %d out of range [1,%d]", nCoeffs, max)
	}
	if len(dst) < 2*nCoeffs {
		return nil, fmt.Errorf("fft: dst length %d < %d", len(dst), 2*nCoeffs)
	}
	buf := p.inputBuf
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	p.forwardInPlace(buf)
	scale := 1 / math.Sqrt(float64(p.n))
	for k := 0; k < nCoeffs; k++ {
		dst[2*k] = real(buf[k]) * scale
		dst[2*k+1] = imag(buf[k]) * scale
	}
	return dst[:2*nCoeffs], nil
}

// FullSpectrumReal transforms x and returns all n/2+1 scaled complex
// coefficients interleaved. It allocates the result.
func (p *Plan) FullSpectrumReal(x []float64) ([]float64, error) {
	n := p.n/2 + 1
	dst := make([]float64, 2*n)
	return p.ForwardReal(x, n, dst)
}

// NaiveDFT computes the unnormalized DFT directly in O(n²); used as a
// reference in tests and for tiny inputs.
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * complex(math.Cos(angle), math.Sin(angle))
		}
		out[k] = sum
	}
	return out
}
