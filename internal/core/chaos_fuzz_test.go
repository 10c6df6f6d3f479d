//go:build faultinject

package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/faultinject"
)

// FuzzFaultSchedule fuzzes the space of injection plans against the query
// path: any seeded schedule (site × mode × trigger shape) must never let a
// panic escape the containment layer, must never mislabel a degraded answer
// as complete, and — whenever the plan happens not to fire — must leave the
// results bit-identical to the fault-free baseline. Wired into the chaos CI
// job for a continuous short pass (~20s with -fuzztime).

var (
	fuzzOnce     sync.Once
	fuzzIx       *Index
	fuzzQueries  [][]float64
	fuzzBaseline [][]Result
)

func fuzzCollection(tb testing.TB) (*Index, [][]float64, [][]Result) {
	fuzzOnce.Do(func() {
		rng := rand.New(rand.NewSource(851))
		data := mixedMatrix(rng, 400, 48)
		ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.2, Shards: 4})
		if err != nil {
			tb.Fatal(err)
		}
		qm := mixedMatrix(rng, 3, 48)
		queries := make([][]float64, qm.Len())
		baseline := make([][]Result, qm.Len())
		s := ix.NewSearcher()
		for i := range queries {
			queries[i] = qm.Row(i)
			res, err := s.Search(queries[i], 5)
			if err != nil {
				tb.Fatal(err)
			}
			baseline[i] = append([]Result(nil), res...)
		}
		fuzzIx, fuzzQueries, fuzzBaseline = ix, queries, baseline
	})
	return fuzzIx, fuzzQueries, fuzzBaseline
}

func FuzzFaultSchedule(f *testing.F) {
	// Representative corners: each mode at each query-path site, nth-call and
	// probabilistic schedules, serial and parallel searchers.
	f.Add(uint8(0), uint8(2), uint8(0), uint8(1), uint16(0), uint64(1), true)
	f.Add(uint8(1), uint8(2), uint8(1), uint8(2), uint16(0), uint64(2), false)
	f.Add(uint8(2), uint8(0), uint8(2), uint8(0), uint16(30000), uint64(3), true)
	f.Add(uint8(0), uint8(1), uint8(2), uint8(0), uint16(65535), uint64(4), false)
	f.Add(uint8(2), uint8(2), uint8(1), uint8(1), uint16(0), uint64(5), true)

	f.Fuzz(func(t *testing.T, siteSel, modeSel, schedSel, n uint8, prob uint16, seed uint64, parallel bool) {
		ix, queries, baseline := fuzzCollection(t)
		col := ix.Collection()
		sites := faultinject.Sites()
		site := sites[int(siteSel)%len(sites)]
		trig := faultinject.Trigger{Mode: faultinject.Mode(int(modeSel) % 3)}
		switch int(schedSel) % 3 {
		case 0:
			trig.OnCall = uint64(n%16) + 1
		case 1:
			trig.EveryN = uint64(n%8) + 1
		default:
			trig.Prob = float64(prob) / 65536
			trig.Seed = seed
		}
		trig.Count = uint64(n % 4) // 0 = unbounded

		faultinject.Reset()
		for i := 0; i < col.Shards(); i++ {
			if err := col.Reinstate(i); err != nil {
				t.Fatal(err)
			}
		}
		defer faultinject.Reset()
		faultinject.Arm(site, trig)

		var s *Searcher
		if parallel {
			s = ix.NewSearcher()
		} else {
			s = col.newSearcher(true)
		}
		for qi, q := range queries {
			res, err := s.SearchPlan(context.Background(), q, Plan{K: 5, AllowPartial: true}, nil)
			m := s.LastMeta()
			switch {
			case err != nil:
				// The only acceptable failure is a degraded query with no
				// survivors (or an all-shard fault): always ErrDegraded.
				if !errors.Is(err, ErrDegraded) {
					t.Fatalf("site=%s trig=%+v q=%d: err %v does not wrap ErrDegraded", site, trig, qi, err)
				}
			case m.ShardsFailed == 0:
				// Claimed complete: must be bit-identical to the baseline.
				if len(res) != len(baseline[qi]) {
					t.Fatalf("site=%s trig=%+v q=%d: %d results, baseline %d", site, trig, qi, len(res), len(baseline[qi]))
				}
				for r := range res {
					if res[r] != baseline[qi][r] {
						t.Fatalf("site=%s trig=%+v q=%d rank %d: non-degraded %+v != baseline %+v",
							site, trig, qi, r, res[r], baseline[qi][r])
					}
				}
				if m.EpsilonBound != 0 {
					t.Fatalf("site=%s trig=%+v q=%d: complete answer with ε=%v", site, trig, qi, m.EpsilonBound)
				}
			default:
				// Degraded but answered: non-empty with a non-negative bound.
				if len(res) == 0 {
					t.Fatalf("site=%s trig=%+v q=%d: degraded nil-error answer is empty", site, trig, qi)
				}
				if m.EpsilonBound < 0 {
					t.Fatalf("site=%s trig=%+v q=%d: negative ε %v", site, trig, qi, m.EpsilonBound)
				}
				if m.ShardsSearched+m.ShardsFailed != col.Shards() {
					t.Fatalf("site=%s trig=%+v q=%d: meta %+v does not partition %d shards",
						site, trig, qi, m, col.Shards())
				}
			}
		}
	})
}
