package simd

import (
	"math"
	"math/rand"
	"testing"
)

// Benchmarks pit the dispatched kernels (assembly on amd64) against the
// portable references and the pre-PR-3 formulations on realistic shapes:
// series length 256 for ED/dot, l=16 words over a 256-symbol alphabet for
// the LBD kernels (the default SOFA configuration). The bench CLI's perf
// report runs the same comparisons programmatically.

func benchSeries(n int, seed int64) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func BenchmarkSquaredEDEA(b *testing.B) {
	x, y := benchSeries(256, 1)
	b.Run("dispatched-"+Impl(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SquaredEDEA(x, y, math.Inf(1))
		}
	})
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SquaredEDEAPortable(x, y, math.Inf(1))
		}
	})
}

func BenchmarkDot(b *testing.B) {
	x, y := benchSeries(256, 2)
	b.Run("dispatched-"+Impl(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Dot(x, y)
		}
	})
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DotPortable(x, y)
		}
	})
}

func benchLBD(b *testing.B) (word []byte, qr, lower, upper, weights []float64, alpha int) {
	rng := rand.New(rand.NewSource(3))
	word, qr, lower, upper, weights = lbdCase(rng, 16, 256)
	return word, qr, lower, upper, weights, 256
}

func BenchmarkLBDGather(b *testing.B) {
	word, qr, lower, upper, weights, alpha := benchLBD(b)
	b.Run("dispatched-"+Impl(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LBDGatherEA(word, qr, lower, upper, weights, alpha, math.Inf(1))
		}
	})
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LBDGatherEAPortable(word, qr, lower, upper, weights, alpha, math.Inf(1))
		}
	})
}

func BenchmarkLookupAccumSeq(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const l, alpha = 16, 256
	word := make([]byte, l)
	table := make([]float64, l*alpha)
	for j := range word {
		word[j] = byte(rng.Intn(alpha))
	}
	for i := range table {
		table[i] = rng.Float64()
	}
	for i := 0; i < b.N; i++ {
		LookupAccumEASeq(word, table, alpha, math.Inf(1))
	}
}
