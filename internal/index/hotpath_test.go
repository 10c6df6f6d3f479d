package index

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/sfa"
)

// Steady-state exact search must perform zero heap allocations: all scratch
// (query copy, representation, word, flat distance table, collector, queues,
// result buffer) is owned by the Searcher, and the single-worker engine runs
// inline without goroutine fan-out.
func TestSearchZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 128
	m := mixedMatrix(rng, 2000, n)
	for name, sum := range map[string]Summarization{
		"SFA": newSFASum(t, m, sfa.Options{SampleRate: 0.2}),
		"SAX": newSAXSum(t, n, 16, 8),
	} {
		t.Run(name, func(t *testing.T) {
			tr, err := Build(m, sum, Options{LeafCapacity: 64, Workers: 1, Queues: 1})
			if err != nil {
				t.Fatal(err)
			}
			s := tr.NewSearcher()
			query := make([]float64, n)
			for j := range query {
				query[j] = rng.NormFloat64()
			}
			// Warm up: grow every pooled buffer to its steady-state size.
			for i := 0; i < 3; i++ {
				if _, err := s.Search(query, 10); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(50, func() {
				if _, err := s.Search(query, 10); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state Search allocates %v allocs/op, want 0", avg)
			}
		})
	}
}

// shapeMatrix draws count z-normalized series of one of the benchmark's
// dataset shapes: LenDB (high-frequency: SFA rules out almost every series
// within its first positions), SALD (smooth) and SIFT1b (heavy-tailed
// vectors that nearly all survive the lower bound).
func shapeMatrix(t testing.TB, name string, count int, seed int64) (data, queries *distance.Matrix) {
	t.Helper()
	spec, err := dataset.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Count = count
	if data, err = dataset.Generate(spec, seed); err != nil {
		t.Fatal(err)
	}
	if queries, err = dataset.GenerateQueries(spec, 12, seed); err != nil {
		t.Fatal(err)
	}
	return data, queries
}

// perSeriesSearch is the serial per-series reference of the query pipeline
// (Section IV-C): approximate seed with real distances for every live member
// of the best-matching leaf, traversal, then a drain that bounds each live
// leaf member with its own early-abandoning dt.minDistEA call — no block
// kernel, no survivor list. scale is the ε prune scale (1 = exact);
// seedOnly stops after the seed (approximate mode).
func perSeriesSearch(t *testing.T, s *Searcher, query []float64, k int, scale float64, seedOnly bool) ([]Result, SearchStats) {
	t.Helper()
	tr := s.t
	q, err := s.prepareQuery(query, k)
	if err != nil {
		t.Fatal(err)
	}
	kn := NewKNNCollector(k)
	s.nodesVisited.Store(0)
	s.buildTable()
	var st SearchStats
	refine := func(leaf *node, lbd bool) {
		bound := kn.Bound()
		for i, id := range leaf.ids {
			if i%boundRefreshInterval == 0 {
				bound = kn.Bound()
			}
			if deadBit(tr.dead, id) {
				continue
			}
			if lbd {
				st.SeriesLBD++
				pruneAt := bound * scale
				if s.dt.minDistEA(leaf.words[i*tr.l:(i+1)*tr.l], pruneAt) >= pruneAt {
					continue
				}
				st.SeriesED++
			}
			d := distance.SquaredEDEarlyAbandon(tr.data.Row(int(id)), q, bound)
			if d < bound && kn.Offer(ID(id), d) {
				bound = kn.Bound()
			}
		}
	}
	approx := s.approximateLeaf()
	if approx != nil {
		refine(approx, false)
	}
	if !seedOnly {
		s.set.Reset()
		for _, rk := range tr.rootKeys {
			s.traverseScaled(tr.root[rk], kn, approx, scale)
		}
		for qi := 0; qi < s.set.Size(); qi++ {
			for {
				it, ok := s.set.Queue(qi).PopIfBelow(kn.Bound() * scale)
				if !ok {
					break
				}
				st.LeavesRefined++
				refine(it.Payload, true)
			}
		}
	}
	st.NodesVisited = s.nodesVisited.Load()
	return kn.Results(), st
}

// The block-kernel refinement path must return what the per-series
// reference returns — same ids, same distance bits — and do identical work:
// a survivor of the staged block kernel carries the bits of the per-series
// sequential kernel, a dropped series exceeds the same bound in both, and
// the survivor walk re-reads the bound where the per-series walk does.
// Checked on the three dataset shapes of the benchmark, which drive the
// kernel through its all-dropped, queued and dense regimes, with and without
// tombstones. Single worker keeps the comparison deterministic.
func TestBlockRefinementMatchesPerSeries(t *testing.T) {
	for _, shape := range []string{"LenDB", "SALD", "SIFT1b"} {
		m, queries := shapeMatrix(t, shape, 3000, 44)
		sum := newSFASum(t, m, sfa.Options{SampleRate: 0.2})
		for _, tombstones := range []bool{false, true} {
			tr, err := Build(m, sum, Options{LeafCapacity: 200, Workers: 1, Queues: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tombstones {
				for id := int32(0); int(id) < m.Len(); id += 7 {
					if err := tr.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			name := fmt.Sprintf("%s tombstones=%v", shape, tombstones)
			compareBlockToPerSeries(t, name, tr, queries, tombstones)
		}
	}
}

func compareBlockToPerSeries(t *testing.T, name string, tr *Tree, queries *distance.Matrix, tombstones bool) {
	t.Helper()
	sb := tr.NewSearcher()
	sp := tr.NewSearcher()
	sameResults := func(what string, got, want []Result) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d results vs %d", name, what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %s rank %d: block %+v != per-series %+v", name, what, i, got[i], want[i])
			}
		}
	}
	for qi := 0; qi < queries.Len(); qi++ {
		query := queries.Row(qi)
		k := 1 + qi%10
		got, err := sb.Search(query, k)
		if err != nil {
			t.Fatal(err)
		}
		want, ws := perSeriesSearch(t, sp, query, k, 1, false)
		sameResults(fmt.Sprintf("query %d", qi), got, want)
		// Identical pruning decisions imply identical work counters. The
		// one exception is by definition: the block kernel bounds a leaf's
		// tombstoned members too (and counts them), the per-series walk
		// skips them first.
		gs := sb.LastStats()
		if tombstones && gs.SeriesLBD >= ws.SeriesLBD {
			gs.SeriesLBD = ws.SeriesLBD
		}
		if gs != ws {
			t.Fatalf("%s query %d: stats diverged: block %+v != per-series %+v", name, qi, sb.LastStats(), ws)
		}
		// Approximate mode: the seed prefilter must not change answers.
		ga, err := sb.SearchApproximate(query, k)
		if err != nil {
			t.Fatal(err)
		}
		wa, _ := perSeriesSearch(t, sp, query, k, 1, true)
		sameResults(fmt.Sprintf("query %d approx", qi), ga, wa)
		// ε-search scales the bound the kernel abandons against.
		ge, err := sb.SearchEpsilon(query, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		we, _ := perSeriesSearch(t, sp, query, k, 1/(1.5*1.5), false)
		sameResults(fmt.Sprintf("query %d eps", qi), ge, we)
	}
}

// A parallel search (Workers >= 2) spawns its traversal and drain goroutines
// per query, which allocates — but nothing whose size follows the leaves:
// every drain worker refines into scratch the Searcher keeps (LBD buffer
// and survivor list). Before that, every query allocated a drainScratch and
// an n-float LBD slice per worker on top: 12.3 allocs and 15.8 KB per query
// on this fixture, against 10 allocs and under 1 KB now.
func TestParallelSearchAllocsDoNotScaleWithLeaves(t *testing.T) {
	m, queries := shapeMatrix(t, "LenDB", 6000, 47)
	sum := newSFASum(t, m, sfa.Options{SampleRate: 0.2})
	tr, err := Build(m, sum, Options{LeafCapacity: 1024, Workers: 2, Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.NewSearcher()
	search := func() {
		for qi := 0; qi < queries.Len(); qi++ {
			if _, err := s.Search(queries.Row(qi), 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	search() // grow every pooled buffer to its steady-state size
	if raceEnabled {
		return // the detector's own allocations make the counts meaningless
	}
	perQuery := func(v float64) float64 { return v / float64(queries.Len()) }
	allocs := perQuery(testing.AllocsPerRun(20, search))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	search()
	runtime.ReadMemStats(&after)
	bytes := perQuery(float64(after.TotalAlloc - before.TotalAlloc))
	t.Logf("parallel search: %.1f allocs, %.0f bytes per query", allocs, bytes)
	if allocs > 11 {
		t.Errorf("parallel Search allocates %.1f allocs/query, want 10 (the goroutines and their join state)", allocs)
	}
	if leaf := 8.0 * 1024; bytes >= leaf/4 {
		t.Errorf("parallel Search allocates %.0f bytes/query: something the size of a leaf's LBD buffer (%.0f bytes) is allocated per query", bytes, leaf)
	}
}

// The flat per-query distance table is the default refinement kernel; it
// must agree bit-for-bit (not just within tolerance) with the scalar
// reference: both accumulate the identical per-position terms in the same
// order.
func TestFlatTableBitForBitScalar(t *testing.T) {
	sum, g, enc, m := ablationFixture(t)
	dt := &distTable{}
	f := func(seed int64) bool {
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
		dt.build(&k, 1<<sum.MaxBits()) // reused across seeds, as in the searcher
		word := make([]byte, 16)
		if _, err := enc.Word(m.Row(r.Intn(m.Len())), word); err != nil {
			return false
		}
		return dt.minDistEA(word, math.Inf(1)) == k.minDistScalar(word)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Leaf refinement blocks must mirror the global word buffer after build and
// stay consistent through post-build inserts (including leaf splits).
func TestLeafBlocksConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 64
	m := mixedMatrix(rng, 500, n)
	tr, err := Build(m, newSAXSum(t, n, 8, 8), Options{LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after build: %v", err)
	}
	enc := tr.Encoder()
	for i := 0; i < 200; i++ {
		series := make([]float64, n)
		for j := range series {
			series[j] = rng.NormFloat64()
		}
		distance.ZNormalize(series)
		if _, err := tr.Insert(series, enc); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
	// Search over the mutated tree stays exact.
	s := tr.NewSearcher()
	for qi := 0; qi < 10; qi++ {
		query := make([]float64, n)
		for j := range query {
			query[j] = rng.NormFloat64()
		}
		res, err := s.Search(query, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(tr.data, query, 3)
		for i := range want {
			if math.Abs(res[i].Dist-want[i]) > 1e-7*(want[i]+1) {
				t.Fatalf("query %d rank %d: got %v want %v", qi, i, res[i].Dist, want[i])
			}
		}
	}
}

// The pooled result buffer means consecutive searches on one Searcher reuse
// the same backing array; the documented contract is that results are valid
// until the next call. Verify the values are correct immediately after each
// call even when k varies.
func TestResultBufferReuseAcrossK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 64
	m := mixedMatrix(rng, 300, n)
	tr, err := Build(m, newSAXSum(t, n, 8, 8), Options{LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.NewSearcher()
	query := make([]float64, n)
	for j := range query {
		query[j] = rng.NormFloat64()
	}
	for _, k := range []int{10, 1, 5, 50, 2} {
		res, err := s.Search(query, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(m, query, k)
		if len(res) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(res), len(want))
		}
		for i := range want {
			if math.Abs(res[i].Dist-want[i]) > 1e-7*(want[i]+1) {
				t.Fatalf("k=%d rank %d: got %v want %v", k, i, res[i].Dist, want[i])
			}
		}
	}
}
