package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/distance"
)

// When the query's root key has no subtree, the approximate stage must fall
// back to the closest root child and search must stay exact.
func TestApproximateLeafFallback(t *testing.T) {
	n := 64
	// A collection of near-identical smooth series: one (or very few) root
	// keys exist.
	rng := rand.New(rand.NewSource(31))
	m := distance.NewMatrix(100, n)
	for i := 0; i < m.Len(); i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = math.Sin(2*math.Pi*3*float64(j)/float64(n)) + 0.01*rng.NormFloat64()
		}
	}
	m.ZNormalizeAll()
	tr, err := Build(m, newSAXSum(t, n, 8), Options{LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	// A radically different query (anti-phase, high frequency): its word's
	// root key is almost surely absent.
	query := make([]float64, n)
	for j := range query {
		query[j] = math.Sin(2 * math.Pi * 25 * float64(j) / float64(n) * -1)
	}
	s := tr.NewSearcher()
	res, err := s.Search1(query)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(m, query, 1)[0]
	if math.Abs(res.Dist-want) > 1e-7*(want+1) {
		t.Fatalf("fallback search inexact: got %v want %v", res.Dist, want)
	}
}

func TestLastStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := mixedMatrix(rng, 300, 64)
	tr, err := Build(m, newSAXSum(t, 64, 8), Options{LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.NewSearcher()
	query := make([]float64, 64)
	for j := range query {
		query[j] = rng.NormFloat64()
	}
	if _, err := s.Search1(query); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.NodesVisited <= 0 {
		t.Errorf("NodesVisited = %d, want > 0", st.NodesVisited)
	}
	if st.SeriesLBD < st.SeriesED {
		t.Errorf("every real distance needs a prior LBD check: LBD=%d ED=%d", st.SeriesLBD, st.SeriesED)
	}
	// Counters reset between queries.
	first := st
	if _, err := s.Search1(m.Row(0)); err != nil {
		t.Fatal(err)
	}
	st2 := s.LastStats()
	if st2 == first && st2.SeriesED == first.SeriesED && st2.NodesVisited == first.NodesVisited {
		// Identical counters across very different queries would suggest a
		// missing reset; tolerate genuine coincidence by checking reset via
		// a third trivial query on a fresh searcher.
		s3 := tr.NewSearcher()
		if _, err := s3.Search1(m.Row(0)); err != nil {
			t.Fatal(err)
		}
		if s3.LastStats().NodesVisited > st2.NodesVisited*10 {
			t.Error("stats do not appear to reset per query")
		}
	}
}

func TestRootFanoutBits(t *testing.T) {
	cases := []struct {
		n, leaf, l int
		want       int
	}{
		{100, 100, 16, 1},            // tiny: minimum one bit
		{2000, 100, 16, 5},           // 20 subtree target -> 5 bits (32)
		{20000, 256, 16, 7},          // ~78 target -> 7 bits (128)
		{100_000_000, 20000, 16, 13}, // paper scale: 5000 target -> 13 bits
		{1 << 40, 1, 16, 16},         // clamped at l
	}
	for _, c := range cases {
		if got := rootFanoutBits(c.n, c.leaf, c.l); got != c.want {
			t.Errorf("rootFanoutBits(%d,%d,%d) = %d, want %d", c.n, c.leaf, c.l, got, c.want)
		}
	}
}

// Workers exceeding subtree count must not deadlock or miss results.
func TestMoreWorkersThanSubtrees(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := mixedMatrix(rng, 150, 64)
	tr, err := Build(m, newSAXSum(t, 64, 8), Options{LeafCapacity: 64, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.NewSearcher()
	for qi := 0; qi < 5; qi++ {
		query := make([]float64, 64)
		for j := range query {
			query[j] = rng.NormFloat64()
		}
		res, err := s.Search(query, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(m, query, 3)
		for i := range want {
			if math.Abs(res[i].Dist-want[i]) > 1e-7*(want[i]+1) {
				t.Fatalf("workers>subtrees inexact at rank %d", i)
			}
		}
	}
}
