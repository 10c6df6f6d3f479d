package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Benchmarks pit the dispatched kernels (assembly on amd64) against the
// portable references on realistic shapes: series length 256 for ED/dot,
// l=16 words over a 256-symbol alphabet for the LBD kernel (the default
// SOFA configuration). The bench CLI's perf report runs the same
// comparisons programmatically.

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

func BenchmarkLookupAccumSeq(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const l = 16
	word := make([]byte, l)
	table := make([]float64, l*Alphabet)
	rng.Read(word)
	for i := range table {
		table[i] = rng.Float64()
	}
	for i := 0; i < b.N; i++ {
		LookupAccumEASeq(word, table, math.Inf(1))
	}
}

// BenchmarkProject compares one Project call over an L2-resident block of
// 64 rows against the l × Dot loop it replaces, at the word lengths and
// series lengths the benchmark's datasets use. ns/row is per series.
func BenchmarkProject(b *testing.B) {
	const rows = 64
	for _, l := range []int{16, 32} {
		for _, n := range []int{128, 256} {
			rng := rand.New(rand.NewSource(5))
			basis, block := projectCase(rng, l, n, rows, 0, 0)
			out := make([]float64, rows*l)
			report := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
			}
			b.Run(fmt.Sprintf("l=%d/n=%d/project-%s", l, n, BlockImpl()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Project(basis, l, n, block, out)
				}
				report(b)
			})
			b.Run(fmt.Sprintf("l=%d/n=%d/dot-loop-%s", l, n, Impl()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for r := 0; r < rows; r++ {
						for j := 0; j < l; j++ {
							out[r*l+j] = Dot(basis[j*n:(j+1)*n], block[r*n:(r+1)*n])
						}
					}
				}
				report(b)
			})
		}
	}
}
