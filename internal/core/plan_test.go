package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
)

// SearchPlan with a pre-cancelled context must return before seeding any
// shard. The proof uses the work counters: they are reset only when a shard
// query begins, so after a cancelled call they still hold the previous
// query's values.
func TestSearchPlanPreCancelledRunsNoShardWork(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := mixedMatrix(rng, 400, 32)
	col, err := BuildCollection(m, Config{Method: SOFA, SampleRate: 0.2, LeafCapacity: 32, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := col.NewSearcher()
	query := make([]float64, 32)
	for j := range query {
		query[j] = rng.NormFloat64()
	}
	if _, err := s.SearchPlan(context.Background(), query, Plan{K: 3}, nil); err != nil {
		t.Fatal(err)
	}
	before := s.LastStats()
	if before.SeriesED == 0 {
		t.Fatal("fixture query did no work; the counter comparison below would be vacuous")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SearchPlan(ctx, query, Plan{K: 3}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if after := s.LastStats(); after != before {
		t.Errorf("cancelled SearchPlan ran shard work: counters %+v -> %+v", before, after)
	}
}

// An already-expired plan deadline behaves like a cancelled context, with
// context.DeadlineExceeded as the error.
func TestSearchPlanExpiredDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	m := mixedMatrix(rng, 200, 32)
	col, err := BuildCollection(m, Config{Method: SOFA, SampleRate: 0.2, LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := col.NewSearcher()
	p := Plan{K: 1, Deadline: time.Now().Add(-time.Minute)}
	if _, err := s.SearchPlan(context.Background(), m.Row(0), p, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// SearchPlan is the one executor and the Search* wrappers are plan literals
// over it: for S ∈ {1,4} × Workers ∈ {1,4} × {fresh, churned so the shards
// carry explicit id tables} × {exact, ε = 0.5, approximate}, each wrapper
// must return SearchPlan's answer bit for bit and leave the same LastStats
// and LastMeta. Workers = 1 takes the serial searcher (the inline path),
// Workers = 4 the parallel one — whose pruning order, and with it the work
// counters and which ε-admissible answer comes back, depends on goroutine
// timing, so there only what is deterministic is compared. Plan validation
// must reject bad k and epsilon.
func TestSearchPlanMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	m := mixedMatrix(rng, 500, 32)
	modes := []struct {
		name    string
		plan    Plan
		wrapper func(s *Searcher, q []float64) ([]Result, error)
	}{
		{"exact", Plan{K: 4}, func(s *Searcher, q []float64) ([]Result, error) { return s.Search(q, 4) }},
		{"epsilon", Plan{K: 4, Epsilon: 0.5}, func(s *Searcher, q []float64) ([]Result, error) { return s.SearchEpsilon(q, 4, 0.5) }},
		{"approximate", Plan{K: 4, Approximate: true}, func(s *Searcher, q []float64) ([]Result, error) { return s.SearchApproximate(q, 4) }},
	}
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 4} {
			for _, churned := range []bool{false, true} {
				col, err := BuildCollection(m, Config{Method: SOFA, SampleRate: 0.2, LeafCapacity: 32, Shards: shards, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if churned {
					for id := 0; id < 60; id += 3 {
						if err := col.Delete(index.ID(id)); err != nil {
							t.Fatal(err)
						}
						if err := col.Upsert(index.ID(id+1), churnSeries(rng, 32)); err != nil {
							t.Fatal(err)
						}
					}
					if err := col.CompactShard(0); err != nil {
						t.Fatal(err)
					}
					if col.state(0).pubOf == nil {
						t.Fatal("compaction left no id table — the churned arm lost its subject")
					}
				}
				serial := workers == 1
				s := col.newSearcher(serial)
				for qi := 0; qi < 5; qi++ {
					query := churnSeries(rng, 32)
					for _, mode := range modes {
						name := fmt.Sprintf("S=%d workers=%d churned=%v %s q=%d", shards, workers, churned, mode.name, qi)
						res, err := mode.wrapper(s, query)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want := append([]Result(nil), res...)
						wantStats, wantMeta := s.LastStats(), s.LastMeta()
						got, err := s.SearchPlan(context.Background(), query, mode.plan, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if s.LastMeta() != wantMeta {
							t.Fatalf("%s: meta %+v, wrapper left %+v", name, s.LastMeta(), wantMeta)
						}
						if !serial && mode.plan.Epsilon > 0 {
							continue
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d results, wrapper returned %d", name, len(got), len(want))
						}
						for i := range want {
							if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
								t.Fatalf("%s rank %d: %v, wrapper returned %v", name, i, got[i], want[i])
							}
						}
						if serial && s.LastStats() != wantStats {
							t.Fatalf("%s: stats %+v, wrapper left %+v", name, s.LastStats(), wantStats)
						}
					}
				}
				if _, err := s.SearchPlan(context.Background(), m.Row(0), Plan{K: 0}, nil); err == nil {
					t.Error("k=0 plan accepted")
				}
				if _, err := s.SearchPlan(context.Background(), m.Row(0), Plan{K: 1, Epsilon: -1}, nil); err == nil {
					t.Error("negative epsilon plan accepted")
				}
			}
		}
	}
}

// The stream must shed queued work whose deadline expired and honor
// per-query plans (mixed k in flight).
func TestStreamSubmitPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	m := mixedMatrix(rng, 400, 32)
	col, err := BuildCollection(m, Config{Method: SOFA, SampleRate: 0.2, LeafCapacity: 32, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		n   int
		err error
	}
	var mu sync.Mutex
	got := map[uint64]answer{}
	st, err := col.NewStream(1, 2, func(qid uint64, res []Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		got[qid] = answer{n: len(res), err: err}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int{}
	for i := 0; i < 20; i++ {
		k := 2 + i%4
		qid, err := st.SubmitPlan(m.Row(i), Plan{K: k})
		if err != nil {
			t.Fatal(err)
		}
		want[qid] = k
	}
	expired, err := st.SubmitPlan(m.Row(0), Plan{K: 5, Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for qid, k := range want {
		if got[qid].err != nil || got[qid].n != k {
			t.Errorf("qid %d: got (%d, %v), want %d results", qid, got[qid].n, got[qid].err, k)
		}
	}
	if !errors.Is(got[expired].err, context.DeadlineExceeded) {
		t.Errorf("expired query: got %v, want context.DeadlineExceeded", got[expired].err)
	}
	if _, err := st.SubmitPlan(m.Row(0), Plan{K: 0}); err == nil {
		t.Error("k=0 SubmitPlan accepted")
	}
	if _, err := st.Submit(m.Row(0)); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("submit after close: got %v, want ErrStreamClosed", err)
	}
}
