package index

import (
	"bytes"
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
		"SAX": newSAXSum(t, n, 16),
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

// The seed leaf is refined at bound +Inf, where every member survives the
// block kernel, tombstoned ones included; the walk then prefetches rows of
// dead survivors ahead of the EDs it skips. With large leaves and a third of
// the rows tombstoned, answers and counters must still be the per-series
// walk's.
func TestBlockRefinementMatchesPerSeriesTombstonedSeed(t *testing.T) {
	m, queries := shapeMatrix(t, "SIFT1b", 3000, 45)
	sum := newSFASum(t, m, sfa.Options{SampleRate: 0.2})
	tr, err := Build(m, sum, Options{LeafCapacity: 1024, Workers: 1, Queues: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); int(id) < m.Len(); id += 3 {
		if err := tr.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.NewSearcher()
	for qi := 0; qi < queries.Len(); qi++ {
		if _, err := s.prepareQuery(queries.Row(qi), 10); err != nil {
			t.Fatal(err)
		}
		leaf, dead := s.approximateLeaf(), 0
		for _, id := range leaf.ids {
			if deadBit(tr.dead, id) {
				dead++
			}
		}
		if len(leaf.ids) <= prefetchAhead || dead == 0 {
			t.Fatalf("query %d: seed leaf of %d members, %d tombstoned: the case lost its subject", qi, len(leaf.ids), dead)
		}
	}
	compareBlockToPerSeries(t, "SIFT1b tombstoned seed", tr, queries, true)
}

// walkWithoutPrefetch is walkSurvivors (scale 1) without the row prefetch:
// the baseline BenchmarkRefineRandomRows measures the prefetch against.
func walkWithoutPrefetch(s *Searcher, leaf *node, q []float64, kn *KNNCollector, ds *drainScratch) (nED int64) {
	lbd, surv := ds.forLeaf(len(leaf.ids))
	bound := kn.Bound()
	surv = surv[:s.dt.minDistBlockEA(leaf.words, len(leaf.ids), lbd, bound, surv, &ds.fast)]
	block := 0
	for _, i := range surv {
		if b := int(i) / boundRefreshInterval; b != block {
			block = b
			bound = kn.Bound()
		}
		id := leaf.ids[i]
		if lbd[i] >= bound || deadBit(s.t.dead, id) {
			continue
		}
		nED++
		d := distance.SquaredEDEarlyAbandon(s.t.data.Row(int(id)), q, bound)
		if d < bound && kn.Offer(ID(id), d) {
			bound = kn.Bound()
		}
	}
	return nED
}

// BenchmarkRefineRandomRows refines one leaf per iteration, rotating over
// every leaf of a 64 MiB SIFT-like matrix (2^16 rows of 128 floats, more
// than a last-level cache holds), against a collector holding the query's
// true 10-NN bound: the drain regime of a pruning-hostile query, where
// nearly every member survives its LBD and each ED reads a random row. The
// "walk" case is the engine's walkSurvivors; "no-prefetch" is the same walk
// without the row prefetch. ns/ED is the metric to compare.
func BenchmarkRefineRandomRows(b *testing.B) {
	const k = 10
	m, queries := shapeMatrix(b, "SIFT1b", 1<<16, 46)
	sum := newSFASum(b, m, sfa.Options{SampleRate: 0.05})
	tr, err := Build(m, sum, Options{LeafCapacity: 1024, Workers: 1, Queues: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := tr.NewSerialSearcher()
	res, err := s.Search(queries.Row(0), k)
	if err != nil {
		b.Fatal(err)
	}
	kth := res[k-1].Dist
	q, err := s.prepareQuery(queries.Row(0), k)
	if err != nil {
		b.Fatal(err)
	}
	s.buildTable()
	var leaves []*node
	var collect func(n *node)
	collect = func(n *node) {
		if n.isLeaf() {
			if len(n.ids) > 0 {
				leaves = append(leaves, n)
			}
			return
		}
		collect(n.children[0])
		collect(n.children[1])
	}
	for _, rk := range tr.rootKeys {
		collect(tr.root[rk])
	}
	for _, c := range []struct {
		name string
		walk func(*node, *KNNCollector, *drainScratch) int64
	}{
		{"walk", func(l *node, kn *KNNCollector, ds *drainScratch) int64 { return s.walkSurvivors(l, q, kn, 1, ds) }},
		{"no-prefetch", func(l *node, kn *KNNCollector, ds *drainScratch) int64 { return walkWithoutPrefetch(s, l, q, kn, ds) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ds drainScratch
			kn := NewKNNCollector(k)
			var eds int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kn.Reset(k)
				for j := 0; j < k; j++ {
					kn.Offer(ID(-1-j), kth)
				}
				eds += c.walk(leaves[i%len(leaves)], kn, &ds)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(eds, 1)), "ns/ED")
		})
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
		dt.build(&k) // reused across seeds, as in the searcher
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

// Leaf refinement blocks are the tree's only copy of the words: after build
// and through post-build inserts (including leaf splits) every block row must
// be its member's word, not just a row that fits the leaf's prefixes.
func TestLeafBlocksConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 64
	m := mixedMatrix(rng, 500, n)
	tr, err := Build(m, newSAXSum(t, n, 8), Options{LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after build: %v", err)
	}
	built := tr.SplitCount()
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
	if tr.SplitCount() == built {
		t.Fatal("no insert split a leaf; the fixture does not exercise block division")
	}
	words, want := tr.Words(), make([]byte, tr.l)
	for id := 0; id < tr.Len(); id++ {
		if _, err := enc.Word(tr.data.Row(id), want); err != nil {
			t.Fatal(err)
		}
		if got := words[id*tr.l : (id+1)*tr.l]; !bytes.Equal(got, want) {
			t.Fatalf("series %d: block row %v, word %v", id, got, want)
		}
	}
	// Compaction's form: every third id dropped, the rest packed densely.
	pos, kept := make([]int32, tr.Len()), 0
	for id := range pos {
		pos[id] = -1
		if id%3 != 0 {
			pos[id] = int32(kept)
			kept++
		}
	}
	dense := make([]byte, kept*tr.l)
	tr.CopyWords(dense, pos)
	for id, p := range pos {
		if p >= 0 && !bytes.Equal(dense[int(p)*tr.l:(int(p)+1)*tr.l], words[id*tr.l:(id+1)*tr.l]) {
			t.Fatalf("series %d: CopyWords row %d differs from Words", id, p)
		}
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
	tr, err := Build(m, newSAXSum(t, n, 8), Options{LeafCapacity: 32})
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
