package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/distance"
	"repro/internal/sax"
	"repro/internal/sfa"
)

// Local Summarization adapters (the public ones live in internal/core; the
// index package stays free of sax/sfa imports outside tests).
type saxSum struct{ *sax.Quantizer }

func (s saxSum) NewIndexEncoder() Encoder { return s.Quantizer.NewEncoder() }

type sfaSum struct{ *sfa.Quantizer }

func (s sfaSum) NewIndexEncoder() Encoder { return s.Quantizer.NewTransformer() }

func randomWalkMatrix(rng *rand.Rand, count, n int) *distance.Matrix {
	m := distance.NewMatrix(count, n)
	for i := 0; i < count; i++ {
		row := m.Row(i)
		v := 0.0
		for j := range row {
			v += rng.NormFloat64()
			row[j] = v
		}
	}
	m.ZNormalizeAll()
	return m
}

func mixedMatrix(rng *rand.Rand, count, n int) *distance.Matrix {
	m := distance.NewMatrix(count, n)
	for i := 0; i < count; i++ {
		row := m.Row(i)
		switch i % 3 {
		case 0: // random walk
			v := 0.0
			for j := range row {
				v += rng.NormFloat64()
				row[j] = v
			}
		case 1: // high-frequency sinusoid + noise
			f := 3 + rng.Float64()*float64(n/2-4)
			ph := rng.Float64() * 2 * math.Pi
			for j := range row {
				row[j] = math.Sin(2*math.Pi*f*float64(j)/float64(n)+ph) + 0.2*rng.NormFloat64()
			}
		default: // white noise
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		}
	}
	m.ZNormalizeAll()
	return m
}

func newSAXSum(t testing.TB, n, l, bits int) saxSum {
	q, err := sax.NewQuantizer(n, l, bits)
	if err != nil {
		t.Fatal(err)
	}
	return saxSum{q}
}

func newSFASum(t testing.TB, data *distance.Matrix, opts sfa.Options) sfaSum {
	q, err := sfa.Learn(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sfaSum{q}
}

// bruteKNN returns the exact k smallest squared distances (sorted).
func bruteKNN(data *distance.Matrix, query []float64, k int) []float64 {
	q := distance.ZNormalized(query)
	dists := make([]float64, data.Len())
	for i := range dists {
		dists[i] = distance.SquaredED(data.Row(i), q)
	}
	sort.Float64s(dists)
	if k > len(dists) {
		k = len(dists)
	}
	return dists[:k]
}

func TestBuildValidation(t *testing.T) {
	s := newSAXSum(t, 64, 8, 8)
	if _, err := Build(nil, s, Options{}); err == nil {
		t.Error("expected error on nil data")
	}
	if _, err := Build(distance.NewMatrix(0, 64), s, Options{}); err == nil {
		t.Error("expected error on empty data")
	}
	rng := rand.New(rand.NewSource(1))
	m := randomWalkMatrix(rng, 10, 64)
	if _, err := Build(m, s, Options{LeafCapacity: -1}); err == nil {
		t.Error("expected error on negative leaf capacity")
	}
}

func TestSearchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomWalkMatrix(rng, 50, 64)
	tr, err := Build(m, newSAXSum(t, 64, 8, 8), Options{LeafCapacity: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.NewSearcher()
	if _, err := s.Search(make([]float64, 32), 1); err == nil {
		t.Error("expected query length error")
	}
	if _, err := s.Search(make([]float64, 64), 0); err == nil {
		t.Error("expected k error")
	}
}

// The golden invariant: the index returns exactly the brute-force answer.
func TestExactness1NN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 96
	m := mixedMatrix(rng, 600, n)
	sums := map[string]Summarization{
		"SAX": newSAXSum(t, n, 16, 8),
		"SFA": newSFASum(t, m, sfa.Options{SampleRate: 0.2}),
	}
	for name, sum := range sums {
		for _, leaf := range []int{8, 64, 1024} {
			for _, workers := range []int{1, 4} {
				tr, err := Build(m, sum, Options{LeafCapacity: leaf, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				s := tr.NewSearcher()
				for qi := 0; qi < 20; qi++ {
					query := make([]float64, n)
					for j := range query {
						query[j] = rng.NormFloat64()
					}
					res, err := s.Search1(query)
					if err != nil {
						t.Fatal(err)
					}
					want := bruteKNN(m, query, 1)[0]
					if math.Abs(res.Dist-want) > 1e-7*(want+1) {
						t.Fatalf("%s leaf=%d workers=%d query %d: got %v want %v",
							name, leaf, workers, qi, res.Dist, want)
					}
				}
			}
		}
	}
}

func TestExactnessKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 64
	m := mixedMatrix(rng, 400, n)
	sum := newSFASum(t, m, sfa.Options{WordLength: 8, SampleRate: 0.25})
	tr, err := Build(m, sum, Options{LeafCapacity: 32, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.NewSearcher()
	for _, k := range []int{1, 3, 5, 10, 50, 400, 500} {
		query := make([]float64, n)
		for j := range query {
			query[j] = rng.NormFloat64()
		}
		res, err := s.Search(query, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(m, query, k)
		if len(res) != len(want) {
			t.Fatalf("k=%d: got %d results, want %d", k, len(res), len(want))
		}
		for i := range want {
			if math.Abs(res[i].Dist-want[i]) > 1e-7*(want[i]+1) {
				t.Fatalf("k=%d rank %d: got %v want %v", k, i, res[i].Dist, want[i])
			}
		}
		if !sort.SliceIsSorted(res, func(a, b int) bool { return res[a].Dist < res[b].Dist }) {
			t.Fatalf("k=%d: results not sorted", k)
		}
	}
}

// Property: exactness holds across random datasets, seeds, and worker
// counts for SFA-based indexes.
func TestExactnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32 + rng.Intn(3)*32
		count := 100 + rng.Intn(300)
		m := mixedMatrix(rng, count, n)
		q, err := sfa.Learn(m, sfa.Options{WordLength: 8, SampleRate: 0.3})
		if err != nil {
			return false
		}
		tr, err := Build(m, sfaSum{q}, Options{
			LeafCapacity: 1 + rng.Intn(64),
			Workers:      1 + rng.Intn(8),
		})
		if err != nil {
			return false
		}
		s := tr.NewSearcher()
		for qi := 0; qi < 5; qi++ {
			query := make([]float64, n)
			for j := range query {
				query[j] = rng.NormFloat64()
			}
			k := 1 + rng.Intn(5)
			res, err := s.Search(query, k)
			if err != nil {
				return false
			}
			want := bruteKNN(m, query, k)
			for i := range want {
				if math.Abs(res[i].Dist-want[i]) > 1e-7*(want[i]+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchSelfReturnsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	m := randomWalkMatrix(rng, 200, n)
	tr, err := Build(m, newSAXSum(t, n, 8, 8), Options{LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.NewSearcher()
	for i := 0; i < 10; i++ {
		res, err := s.Search1(m.Row(i * 7))
		if err != nil {
			t.Fatal(err)
		}
		if res.Dist > 1e-9 {
			t.Errorf("self query %d: dist %v, want 0", i, res.Dist)
		}
	}
}

// Kernel: the SIMD-structured LBD must agree exactly with the scalar
// reference, and must be a valid lower bound at full cardinality.
func TestKernelMatchesScalarProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 96
	m := mixedMatrix(rng, 300, n)
	q, err := sfa.Learn(m, sfa.Options{SampleRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sum := sfaSum{q}
	g := newGatherTables(sum)
	enc := sum.NewIndexEncoder()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		query := make([]float64, n)
		for j := range query {
			query[j] = r.NormFloat64()
		}
		distance.ZNormalize(query)
		qr := make([]float64, 16)
		if _, err := enc.QueryRepr(query, qr); err != nil {
			return false
		}
		k := kernel{qr: qr, weights: sum.Weights(), g: g, l: 16}
		word := make([]byte, 16)
		if _, err := enc.Word(m.Row(r.Intn(m.Len())), word); err != nil {
			return false
		}
		want := k.minDistScalar(word)
		got := k.minDistEA(word, math.Inf(1))
		return math.Abs(got-want) <= 1e-9*(want+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Kernel early abandoning: a result <= bsf equals the exact bound; a result
// > bsf certifies the exact bound also exceeds bsf.
func TestKernelEarlyAbandonProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64
	m := mixedMatrix(rng, 200, n)
	q, err := sfa.Learn(m, sfa.Options{WordLength: 12, SampleRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	sum := sfaSum{q}
	g := newGatherTables(sum)
	enc := sum.NewIndexEncoder()
	f := func(seed int64, bsfRaw float64) bool {
		r := rand.New(rand.NewSource(seed))
		query := make([]float64, n)
		for j := range query {
			query[j] = r.NormFloat64()
		}
		distance.ZNormalize(query)
		qr := make([]float64, 12)
		enc.QueryRepr(query, qr)
		k := kernel{qr: qr, weights: sum.Weights(), g: g, l: 12}
		word := make([]byte, 12)
		enc.Word(m.Row(r.Intn(m.Len())), word)
		exact := k.minDistScalar(word)
		bsf := math.Mod(math.Abs(bsfRaw), 1000)
		got := k.minDistEA(word, bsf)
		if got <= bsf {
			return math.Abs(got-exact) <= 1e-9*(exact+1)
		}
		return exact > bsf || math.Abs(got-exact) <= 1e-9*(exact+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// nodeMinDist must agree with the summarization's own variable-cardinality
// mindist for SAX (whose implementation is independent).
func TestNodeMinDistMatchesSAX(t *testing.T) {
	n := 64
	sq, err := sax.NewQuantizer(n, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := saxSum{sq}
	rng := rand.New(rand.NewSource(8))
	enc := sum.NewIndexEncoder()
	for trial := 0; trial < 100; trial++ {
		query := make([]float64, n)
		series := make([]float64, n)
		for j := range query {
			query[j] = rng.NormFloat64()
			series[j] = rng.NormFloat64()
		}
		distance.ZNormalize(query)
		distance.ZNormalize(series)
		qr := make([]float64, 8)
		enc.QueryRepr(query, qr)
		full := make([]byte, 8)
		enc.Word(series, full)
		bits := 1 + rng.Intn(8)
		word := make([]byte, 8)
		cards := make([]uint8, 8)
		for j := range word {
			word[j] = full[j] >> (8 - bits)
			cards[j] = uint8(bits)
		}
		want := sq.MinDistVariable(qr, word, cards)
		got := nodeMinDist(sum, qr, word, cards)
		if math.Abs(got-want) > 1e-12*(want+1) {
			t.Fatalf("trial %d bits=%d: got %v want %v", trial, bits, got, want)
		}
	}
}

// The descent reads node lower bounds out of the per-query distance table
// (distTable.nodeMinDist); the breakpoint form (nodeMinDist) is its
// reference. Both must produce the same bits for every node of a tree —
// root children, inner nodes of every cardinality mix, leaves — under SFA
// and SAX, on a pruning-friendly and a pruning-hostile dataset shape:
// identical bits are what keeps every pruning decision of the descent, and
// so every counter downstream, where it was.
func TestNodeMinDistTableMatchesBreakpoints(t *testing.T) {
	for _, shape := range []string{"LenDB", "SIFT1b"} {
		m, queries := shapeMatrix(t, shape, 4000, 9)
		for name, sum := range map[string]Summarization{
			"SFA": newSFASum(t, m, sfa.Options{SampleRate: 0.2}),
			"SAX": newSAXSum(t, m.Stride, 16, 8),
		} {
			tr, err := Build(m, sum, Options{LeafCapacity: 32, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			s := tr.NewSearcher()
			nodes := 0
			var walk func(n *node)
			walk = func(n *node) {
				nodes++
				want := nodeMinDist(tr.sum, s.qr, n.word, n.cards)
				got := s.dt.nodeMinDist(s.qword, n.word, n.cards, tr.maxBits)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s node depth %d word %v cards %v: table %v (%#x) != breakpoints %v (%#x)",
						shape, name, n.depth, n.word, n.cards, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if !n.isLeaf() {
					walk(n.children[0])
					walk(n.children[1])
				}
			}
			for qi := 0; qi < queries.Len(); qi++ {
				if _, err := s.prepareQuery(queries.Row(qi), 1); err != nil {
					t.Fatal(err)
				}
				s.buildTable()
				for _, rk := range tr.rootKeys {
					walk(tr.root[rk])
				}
			}
			// A series of the index itself sits exactly inside its own
			// intervals, and a constant query has a NaN-free all-zero word.
			for _, q := range [][]float64{m.Row(17), make([]float64, m.Stride)} {
				if _, err := s.prepareQuery(q, 1); err != nil {
					t.Fatal(err)
				}
				s.buildTable()
				for _, rk := range tr.rootKeys {
					walk(tr.root[rk])
				}
			}
			if nodes < 100*queries.Len() {
				t.Fatalf("%s/%s: walked only %d nodes", shape, name, nodes)
			}
		}
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 64
	count := 500
	m := mixedMatrix(rng, count, n)
	tr, err := Build(m, newSAXSum(t, n, 8, 8), Options{LeafCapacity: 20})
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Series != count {
		t.Errorf("Series: %d", st.Series)
	}
	if st.Subtrees < 1 || st.Subtrees != len(tr.rootKeys) {
		t.Errorf("Subtrees: %d", st.Subtrees)
	}
	if st.Leaves < 1 || st.AvgLeafSize <= 0 || st.AvgDepth < 1 {
		t.Errorf("degenerate stats: %+v", st)
	}
	// All series accounted for.
	total := 0
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.isLeaf() {
			total += len(nd.ids)
			return
		}
		walk(nd.children[0])
		walk(nd.children[1])
	}
	for _, k := range tr.rootKeys {
		walk(tr.root[k])
	}
	if total != count {
		t.Errorf("leaves hold %d series, want %d", total, count)
	}
}

func TestLeafCapacityRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 64
	m := mixedMatrix(rng, 1000, n)
	const cap = 25
	tr, err := Build(m, newSAXSum(t, n, 8, 8), Options{LeafCapacity: cap})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd.isLeaf() {
			if len(nd.ids) > cap && !nd.noSplit {
				t.Errorf("splittable leaf of size %d exceeds capacity %d", len(nd.ids), cap)
			}
			return
		}
		walk(nd.children[0])
		walk(nd.children[1])
	}
	for _, k := range tr.rootKeys {
		walk(tr.root[k])
	}
}

func TestIdenticalSeriesOverflowLeaf(t *testing.T) {
	// 100 copies of the same series cannot be split; the leaf must absorb
	// them and search must still be exact.
	n := 64
	base := make([]float64, n)
	rng := rand.New(rand.NewSource(11))
	for j := range base {
		base[j] = math.Sin(float64(j)/5) + 0.01*rng.NormFloat64()
	}
	m := distance.NewMatrix(100, n)
	for i := 0; i < 100; i++ {
		copy(m.Row(i), base)
	}
	m.ZNormalizeAll()
	tr, err := Build(m, newSAXSum(t, n, 8, 8), Options{LeafCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.NewSearcher().Search(base, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	for _, r := range res {
		if r.Dist > 1e-9 {
			t.Errorf("duplicate search distance %v, want 0", r.Dist)
		}
	}
}

func TestKNNSet(t *testing.T) {
	s := NewKNNCollector(3)
	if !math.IsInf(s.Bound(), 1) {
		t.Error("initial bound should be +Inf")
	}
	s.Offer(1, 5)
	s.Offer(2, 3)
	if !math.IsInf(s.Bound(), 1) {
		t.Error("bound should stay +Inf until k results")
	}
	s.Offer(3, 7)
	if s.Bound() != 7 {
		t.Errorf("bound %v, want 7", s.Bound())
	}
	s.Offer(4, 1) // evicts 7
	if s.Bound() != 5 {
		t.Errorf("bound %v, want 5", s.Bound())
	}
	s.Offer(5, 100) // ignored
	res := s.Results()
	if len(res) != 3 || res[0].Dist != 1 || res[1].Dist != 3 || res[2].Dist != 5 {
		t.Errorf("results %+v", res)
	}
}

func TestBuildPhaseTimings(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := mixedMatrix(rng, 300, 64)
	tr, err := Build(m, newSAXSum(t, 64, 8, 8), Options{LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tr.TransformSeconds < 0 || tr.TreeSeconds < 0 {
		t.Error("negative phase timings")
	}
	if tr.Len() != 300 || tr.SeriesLen() != 64 {
		t.Error("accessors wrong")
	}
}

func BenchmarkBuildSAX(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	m := mixedMatrix(rng, 20000, 128)
	sum := newSAXSum(b, 128, 16, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(m, sum, Options{LeafCapacity: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch1NN(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	m := mixedMatrix(rng, 20000, 128)
	q, err := sfa.Learn(m, sfa.Options{SampleRate: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Build(m, sfaSum{q}, Options{LeafCapacity: 256})
	if err != nil {
		b.Fatal(err)
	}
	s := tr.NewSearcher()
	query := make([]float64, 128)
	for j := range query {
		query[j] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search1(query); err != nil {
			b.Fatal(err)
		}
	}
}
