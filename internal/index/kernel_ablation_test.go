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
		dt := newDistTable(&k)
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
	dt := newDistTable(k)
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

// BenchmarkLBDKernels compares, per full pass over 400 series, the LBD
// kernel designs on the same workload — the paper's Figure-6-style ablation
// measured on real vector units:
//
//   - Scalar: the branchy scalar reference on the interval tables;
//   - FlatTable: the per-query flat distance table, one sequential
//     per-series call (the refinement's per-series reference) over ragged
//     word slices;
//   - FlatTableLeafBlock: the same calls streaming one contiguous
//     leaf-style word block — the layout the refinement loop uses;
//   - BlockTable: one staged block-kernel call bounds all 400 series (the
//     refinement kernel), dispatched and portable.
//
// CI runs this benchmark as a smoke test.
func BenchmarkLBDKernels(b *testing.B) {
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
	b.Run("BlockTable-"+simd.BlockImpl(), func(b *testing.B) {
		_, dt, _, block, l := lbdFixture(b)
		rows := len(block) / l
		out := make([]float64, rows)
		surv := make([]int32, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dt.minDistBlockEA(block, rows, out, math.Inf(1), surv, nil)
		}
	})
	b.Run("BlockTablePortable", func(b *testing.B) {
		_, dt, _, block, l := lbdFixture(b)
		rows := len(block) / l
		out := make([]float64, rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simd.LookupAccumBlockSurvivorsPortable(block, rows, dt.flat, out, math.Inf(1), nil)
		}
	})

}

// BenchmarkDistTableBuild measures the per-query table build: Cold rebuilds
// for a fresh query representation every iteration; Cached replays the same
// representation, which the qr-cache turns into an l-float compare.
func BenchmarkDistTableBuild(b *testing.B) {
	k, dt, _, _, _ := lbdFixture(b)
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
			dt.build(k)
		}
	})
	b.Run("Cached", func(b *testing.B) {
		k.qr = qrA
		dt.build(k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dt.build(k)
		}
	})
}
