package sofa

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkBatchSearchQPS drives the public SearchBatch API over the fixture
// of the BENCH_pr3.json batch snapshot — same generator seed, dataset shape
// (20000 x 128), leaf capacity, SFA sampling rate, k and query count — so the
// cost of the public boundary (per-query plans, context checks, caller-owned
// copies) is directly comparable against it.
func BenchmarkBatchSearchQPS(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	m := mixedMatrix(rng, 20000, 128)
	ix, err := Build(m, LeafSize(256), SampleRate(0.05))
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]Query, 4*runtime.GOMAXPROCS(0))
	for i := range qs {
		qs[i] = Query{Series: randQuery(rng, 128), K: 10}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchBatch(ctx, qs, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(qs))/secs, "queries/s")
	}
}

// BenchmarkSearchInto measures the zero-allocation escape hatch in steady
// state; allocs/op must be 0 (also asserted by TestSearchIntoReusesBuffer).
func BenchmarkSearchInto(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	m := mixedMatrix(rng, 20000, 128)
	ix, err := Build(m, LeafSize(256), SampleRate(0.05), Workers(1))
	if err != nil {
		b.Fatal(err)
	}
	q := Query{Series: randQuery(rng, 128), K: 10}
	ctx := context.Background()
	var buf []Result
	if buf, err = ix.SearchInto(ctx, q, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = ix.SearchInto(ctx, q, buf); err != nil {
			b.Fatal(err)
		}
	}
}
