package sofa_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"repro/sofa"
)

// exampleData builds a small deterministic collection of noisy sines.
func exampleData(count, n int) *sofa.Matrix {
	data := sofa.NewMatrix(count, n)
	for i := 0; i < count; i++ {
		row := data.Row(i)
		freq := 2 + float64(i%7)
		phase := float64(i) * 0.7
		for j := range row {
			row[j] = math.Sin(2*math.Pi*freq*float64(j)/float64(n) + phase)
		}
	}
	data.ZNormalizeAll()
	return data
}

// Build an index with functional options and answer one exact query.
func Example() {
	data := exampleData(256, 64)
	ix, err := sofa.Build(data, sofa.SFA(), sofa.LeafSize(32), sofa.SampleRate(1))
	if err != nil {
		panic(err)
	}

	// Querying with an indexed series finds that series at distance 0.
	res, err := ix.Search(context.Background(), sofa.Query{Series: data.Row(3), K: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("nearest: series %d at distance %.1f\n", res[0].ID, math.Sqrt(res[0].Dist))
	// Output: nearest: series 3 at distance 0.0
}

// Per-query options ride on the Query value: epsilon bounds, approximate
// probes, deadlines and work counters.
func ExampleQuery_With() {
	data := exampleData(256, 64)
	ix, err := sofa.Build(data, sofa.SampleRate(1))
	if err != nil {
		panic(err)
	}
	var stats sofa.SearchStats
	q := sofa.Query{Series: data.Row(10), K: 5}.With(sofa.Epsilon(0.1), sofa.WithStats(&stats))
	res, err := ix.Search(context.Background(), q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d neighbors within a 1.1 factor of optimal\n", len(res))
	// Output: 5 neighbors within a 1.1 factor of optimal
}

// SearchBatch runs heterogeneous queries — here with different k — under
// one context.
func ExampleIndex_SearchBatch() {
	data := exampleData(256, 64)
	ix, err := sofa.Build(data, sofa.Shards(2), sofa.SampleRate(1))
	if err != nil {
		panic(err)
	}
	qs := []sofa.Query{
		{Series: data.Row(0), K: 2},
		{Series: data.Row(1), K: 3},
		{Series: data.Row(2), K: 4},
	}
	out, err := ix.SearchBatch(context.Background(), qs, 0)
	if err != nil {
		panic(err)
	}
	for _, res := range out {
		fmt.Print(len(res), " ")
	}
	fmt.Println()
	// Output: 2 3 4
}

// The stream is the engine for sustained traffic: persistent workers,
// bounded backpressure, callback-scoped results.
func ExampleIndex_NewStream() {
	data := exampleData(256, 64)
	ix, err := sofa.Build(data, sofa.SampleRate(1))
	if err != nil {
		panic(err)
	}
	var answered sync.WaitGroup
	st, err := ix.NewStream(2, func(qid uint64, res []sofa.Result, err error) {
		// res is callback-scoped: copy it to retain beyond this call.
		answered.Done()
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 8; i++ {
		answered.Add(1)
		if _, err := st.Submit(sofa.Query{Series: data.Row(i), K: 3}); err != nil {
			panic(err)
		}
	}
	answered.Wait()
	st.Close()
	fmt.Println("answered 8 queries")
	// Output: answered 8 queries
}

// A durable index survives kill -9: every Insert is logged before it is
// acknowledged, and Open replays the log on the next start.
func ExampleOpen() {
	dir, err := os.MkdirTemp("", "sofa-durable")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// First Open initializes the directory from a fresh build.
	data := exampleData(256, 64)
	ix, err := sofa.Open(dir, sofa.CreateFrom(data, sofa.SampleRate(1)))
	if err != nil {
		panic(err)
	}
	series := append([]float64(nil), data.Row(0)...)
	id, err := ix.Insert(series) // logged, fsynced, then applied
	if err != nil {
		panic(err)
	}
	ix.Close() // a crash here instead would lose nothing

	// The next Open recovers the checkpoint and replays the logged insert.
	var stats sofa.RecoveryStats
	re, err := sofa.Open(dir, sofa.WithRecoveryStats(&stats))
	if err != nil {
		panic(err)
	}
	defer re.Close()
	fmt.Printf("insert %d recovered: %d replayed onto a %d-series checkpoint\n",
		id, stats.Replayed, stats.CheckpointLen)
	// Output: insert 256 recovered: 1 replayed onto a 256-series checkpoint
}

// The mutation lifecycle: Insert assigns a stable id, Upsert replaces the
// series under it, Delete retires it permanently, and Compact reclaims the
// tombstoned rows per the configured policy (RCU swap — in-flight queries
// never block on the rebuild).
func ExampleIndex_Insert() {
	data := exampleData(256, 64)
	ix, err := sofa.Build(data, sofa.SampleRate(1),
		sofa.CompactionPolicy(sofa.Compaction{MaxTombstoneFraction: 0.001}))
	if err != nil {
		panic(err)
	}

	fresh := make([]float64, 64)
	for j := range fresh {
		fresh[j] = math.Cos(2 * math.Pi * 11 * float64(j) / 64)
	}
	id, err := ix.Insert(fresh)
	if err != nil {
		panic(err)
	}

	// Upsert keeps the id while swapping the series: searches for the new
	// shape find it under the old id.
	replacement := make([]float64, 64)
	for j := range replacement {
		replacement[j] = math.Cos(2*math.Pi*13*float64(j)/64 + 0.3)
	}
	if err := ix.Upsert(id, replacement); err != nil {
		panic(err)
	}
	res, err := ix.Search(context.Background(), sofa.Query{Series: replacement, K: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("upserted id %d found itself: %v\n", id, res[0].ID == id)

	// Delete retires the id for good; mutating it again reports the tombstone.
	if err := ix.Delete(id); err != nil {
		panic(err)
	}
	fmt.Println("deleted twice:", errors.Is(ix.Delete(id), sofa.ErrTombstoned))

	// The upsert and the delete each left a dead row behind. Compact rebuilds
	// every shard past the policy threshold and reclaims them.
	fmt.Println("tombstoned before compaction:", ix.Tombstoned())
	if err := ix.Compact(); err != nil {
		panic(err)
	}
	fmt.Printf("after: %d tombstoned, %d live\n", ix.Tombstoned(), ix.Len())
	// Output:
	// upserted id 256 found itself: true
	// deleted twice: true
	// tombstoned before compaction: 2
	// after: 0 tombstoned, 256 live
}
