package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/distance"
)

// The throughput benchmarks share one fixture with sofa's
// BenchmarkBatchSearchQPS — same generator seed, dataset shape (20000 x 128),
// leaf capacity, SFA sampling rate, k and query count — so the sharded and
// streaming paths are directly comparable against the single-shard batched
// numbers at equal total workers.

func qpsFixture(b *testing.B, shards int) (*Index, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(53))
	m := mixedMatrix(rng, 20000, 128)
	ix, err := Build(m, Config{
		Method:       SOFA,
		LeafCapacity: 256,
		SampleRate:   0.05,
		Shards:       shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 4*runtime.GOMAXPROCS(0))
	for i := range queries {
		qv := make([]float64, 128)
		for j := range qv {
			qv[j] = rng.NormFloat64()
		}
		queries[i] = qv
	}
	return ix, queries
}

func benchCollectionBatchQPS(b *testing.B, shards int) {
	ix, queries := qpsFixture(b, shards)
	qm, err := distance.FromRows(queries)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchBatch(qm, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(queries))/secs, "queries/s")
	}
}

func benchCollectionStreamQPS(b *testing.B, shards int) {
	ix, queries := qpsFixture(b, shards)
	var pending sync.WaitGroup
	st, err := ix.NewStream(10, 0, func(qid uint64, res []Result, err error) {
		if err != nil {
			b.Error(err)
		}
		pending.Done()
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending.Add(len(queries))
		for _, q := range queries {
			if _, err := st.Submit(q); err != nil {
				b.Fatal(err)
			}
		}
		pending.Wait()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(queries))/secs, "queries/s")
	}
}

func BenchmarkCollectionBatchQPS1(b *testing.B)  { benchCollectionBatchQPS(b, 1) }
func BenchmarkCollectionBatchQPS4(b *testing.B)  { benchCollectionBatchQPS(b, 4) }
func BenchmarkCollectionStreamQPS1(b *testing.B) { benchCollectionStreamQPS(b, 1) }
func BenchmarkCollectionStreamQPS4(b *testing.B) { benchCollectionStreamQPS(b, 4) }
