package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/distance"
	"repro/internal/sfa"
	"repro/internal/simd"
)

func ablationFixture(tb testing.TB) (sfaSum, *gatherTables, Encoder, *distance.Matrix) {
	tb.Helper()
	rng := rand.New(rand.NewSource(21))
	m := mixedMatrix(rng, 400, 128)
	q, err := sfa.Learn(m, sfa.Options{SampleRate: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	sum := sfaSum{q}
	return sum, newGatherTables(sum), sum.NewIndexEncoder(), m
}

// The flat lookup-table LBD must agree exactly with both the mask/blend
// kernel and the scalar reference for every word and bound.
func TestDistTableMatchesKernelProperty(t *testing.T) {
	sum, g, enc, m := ablationFixture(t)
	f := func(seed int64, bsfRaw float64) bool {
		r := rand.New(rand.NewSource(seed))
		query := make([]float64, 128)
		for j := range query {
			query[j] = r.NormFloat64()
		}
		distance.ZNormalize(query)
		qr := make([]float64, 16)
		if _, err := enc.QueryRepr(query, qr); err != nil {
			return false
		}
		k := kernel{qr: qr, weights: sum.Weights(), g: g, l: 16}
		dt := newDistTable(&k, 1<<sum.MaxBits())
		word := make([]byte, 16)
		if _, err := enc.Word(m.Row(r.Intn(m.Len())), word); err != nil {
			return false
		}
		exact := k.minDistScalar(word)
		full := dt.minDistEA(word, math.Inf(1))
		if math.Abs(full-exact) > 1e-9*(exact+1) {
			return false
		}
		bsf := math.Mod(math.Abs(bsfRaw), 500)
		ea := dt.minDistEA(word, bsf)
		if ea <= bsf {
			return math.Abs(ea-exact) <= 1e-9*(exact+1)
		}
		return exact > bsf || math.Abs(ea-exact) <= 1e-9*(exact+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// lbdFixture prepares one query's kernel, its flat distance table, the words
// as a ragged [][]byte (the seed layout: one allocation per series, gathered
// by pointer) and as one contiguous leaf-style block.
func lbdFixture(b *testing.B) (*kernel, *distTable, [][]byte, []byte, int) {
	sum, g, enc, m := ablationFixture(b)
	rng := rand.New(rand.NewSource(22))
	query := make([]float64, 128)
	for j := range query {
		query[j] = rng.NormFloat64()
	}
	distance.ZNormalize(query)
	qr := make([]float64, 16)
	if _, err := enc.QueryRepr(query, qr); err != nil {
		b.Fatal(err)
	}
	k := &kernel{qr: qr, weights: sum.Weights(), g: g, l: 16}
	dt := newDistTable(k, 1<<sum.MaxBits())
	const l = 16
	ragged := make([][]byte, m.Len())
	block := make([]byte, m.Len()*l)
	for i := range ragged {
		ragged[i] = make([]byte, l)
		if _, err := enc.Word(m.Row(i), ragged[i]); err != nil {
			b.Fatal(err)
		}
		copy(block[i*l:(i+1)*l], ragged[i])
	}
	return k, dt, ragged, block, l
}

// BenchmarkLBDKernels compares, per full pass over 400 series, every LBD
// kernel design on the same workload — the paper's Figure-6-style ablation
// measured on real vector units:
//
//   - Gather: Algorithm 3's mask/blend kernel gathering lower/upper bounds
//     per symbol, dispatched (VGATHERQPD/VCMPPD/VBLENDVPD assembly on AVX2
//     hardware, the bit-identical portable reference elsewhere);
//   - GatherPortable: the blocked pure-Go reference the assembly is
//     bit-identical to;
//   - Scalar: the branchy scalar reference;
//   - FlatTable: the per-query flat distance table (sequential lookups, the
//     default refinement kernel) over ragged per-series word slices;
//   - FlatTableLeafBlock: the flat table streaming one contiguous
//     leaf-style word block — the layout the refinement loop uses.
//
// CI runs this benchmark as a smoke test; the flat-table + leaf-block path
// is the default query kernel and must stay ahead of the Gather variants.
func BenchmarkLBDKernels(b *testing.B) {
	b.Run("Gather-"+simd.Impl(), func(b *testing.B) {
		k, _, ragged, _, _ := lbdFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range ragged {
				k.minDistEA(w, math.Inf(1))
			}
		}
	})
	b.Run("GatherPortable", func(b *testing.B) {
		k, _, ragged, _, _ := lbdFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range ragged {
				simd.LBDGatherEAPortable(w[:k.l], k.qr, k.g.lower, k.g.upper, k.weights, k.g.alphabet, math.Inf(1))
			}
		}
	})
	b.Run("Scalar", func(b *testing.B) {
		k, _, ragged, _, _ := lbdFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range ragged {
				k.minDistScalar(w)
			}
		}
	})
	b.Run("FlatTable", func(b *testing.B) {
		_, dt, ragged, _, _ := lbdFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range ragged {
				dt.minDistEA(w, math.Inf(1))
			}
		}
	})
	b.Run("FlatTableLeafBlock", func(b *testing.B) {
		_, dt, _, block, l := lbdFixture(b)
		rows := len(block) / l
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				dt.minDistEA(block[r*l:(r+1)*l], math.Inf(1))
			}
		}
	})
	// Block-granularity contenders: ONE kernel call bounds all 400 series.
	// BlockTable is the default refinement kernel; BlockGather re-runs the
	// gather-vs-table ablation at block granularity (series-across-lanes
	// gathers amortized over a whole leaf — the strongest case gathers get).
	b.Run("BlockTable-"+simd.BlockImpl(), func(b *testing.B) {
		_, dt, _, block, l := lbdFixture(b)
		rows := len(block) / l
		out := make([]float64, rows)
		b.ReportAllocs()
		b.ResetTimer()
		surv := make([]int32, rows)
		for i := 0; i < b.N; i++ {
			dt.minDistBlockEA(block, rows, out, math.Inf(1), surv)
		}
	})
	b.Run("BlockTablePortable", func(b *testing.B) {
		_, dt, _, block, l := lbdFixture(b)
		rows := len(block) / l
		out := make([]float64, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simd.LookupAccumBlockSurvivorsPortable(block, rows, dt.flat, dt.alphabet, out, math.Inf(1), nil)
		}
	})
	b.Run("BlockGather-"+simd.BlockImpl(), func(b *testing.B) {
		k, _, _, block, l := lbdFixture(b)
		rows := len(block) / l
		out := make([]float64, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simd.LBDGatherBlockEA(block, rows, k.qr, k.g.lower, k.g.upper, k.weights, k.g.alphabet, out, math.Inf(1))
		}
	})
	b.Run("BlockGatherPortable", func(b *testing.B) {
		k, _, _, block, l := lbdFixture(b)
		rows := len(block) / l
		out := make([]float64, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simd.LBDGatherBlockEAPortable(block, rows, k.qr, k.g.lower, k.g.upper, k.weights, k.g.alphabet, out, math.Inf(1))
		}
	})
}

// BenchmarkDistTableBuild measures the per-query table build: Cold rebuilds
// for a fresh query representation every iteration; Cached replays the same
// representation, which the qr-cache turns into an l-float compare.
func BenchmarkDistTableBuild(b *testing.B) {
	k, dt, _, _, _ := lbdFixture(b)
	alpha := dt.alphabet
	qrA := append([]float64(nil), k.qr...)
	qrB := append([]float64(nil), k.qr...)
	qrB[0] += 0.25
	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				k.qr = qrA
			} else {
				k.qr = qrB
			}
			dt.build(k, alpha)
		}
	})
	b.Run("Cached", func(b *testing.B) {
		k.qr = qrA
		dt.build(k, alpha)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dt.build(k, alpha)
		}
	})
}
