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
// path: under any seeded schedule (site × mode × trigger shape) no panic
// escapes the containment layer, and every query either fails with an error
// wrapping ErrDegraded (or the injected error itself) or returns the
// complete answer, bit-identical to the fault-free baseline — never
// anything in between. Wired into the chaos CI job for a continuous short
// pass (~20s with -fuzztime).

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
		defer faultinject.Reset()
		faultinject.Arm(site, trig)

		var s *Searcher
		if parallel {
			s = ix.NewSearcher()
		} else {
			s = ix.Collection().newSearcher(true)
		}
		for qi, q := range queries {
			res, err := s.SearchPlan(context.Background(), q, Plan{K: 5}, nil)
			if err != nil {
				if !errors.Is(err, ErrDegraded) && !faultinject.IsInjected(err) {
					t.Fatalf("site=%s trig=%+v q=%d: err %v neither wraps ErrDegraded nor is injected", site, trig, qi, err)
				}
				continue
			}
			if len(res) != len(baseline[qi]) {
				t.Fatalf("site=%s trig=%+v q=%d: %d results, baseline %d", site, trig, qi, len(res), len(baseline[qi]))
			}
			for r := range res {
				if res[r] != baseline[qi][r] {
					t.Fatalf("site=%s trig=%+v q=%d rank %d: answer %+v != baseline %+v",
						site, trig, qi, r, res[r], baseline[qi][r])
				}
			}
		}
	})
}
