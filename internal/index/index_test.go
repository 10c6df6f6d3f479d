package index

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/sax"
	"repro/internal/sfa"
	"repro/internal/simd"
)

// The local Summarization adapter, for SFA and iSAX quantizers alike (the
// public one lives in internal/core; the index package stays free of
// sax/sfa imports outside tests).
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

func newSAXSum(t testing.TB, n, l int) sfaSum {
	q, err := sax.NewQuantizer(n, l, SymbolBits)
	if err != nil {
		t.Fatal(err)
	}
	return sfaSum{q.Quantizer}
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

// Build's words — each worker's chunk transformed by one Encoder.Words
// call, then carried in the leaf blocks — are byte-identical to one
// Encoder.Word per row, for
// the SFA and the SAX encoders, at worker counts that split the rows into
// uneven chunks.
func TestBuildWordsMatchPerRowWords(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := mixedMatrix(rng, 1001, 128)
	sums := map[string]Summarization{
		"sfa": newSFASum(t, data, sfa.Options{}),
		"sax": newSAXSum(t, 128, 16),
	}
	for name, sum := range sums {
		enc := sum.NewIndexEncoder()
		l := sum.Segments()
		want := make([]byte, data.Len()*l)
		for i := 0; i < data.Len(); i++ {
			if _, err := enc.Word(data.Row(i), want[i*l:(i+1)*l]); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 3, 7} {
			tree, err := Build(data, sum, Options{Workers: workers, LeafCapacity: 64})
			if err != nil {
				t.Fatal(err)
			}
			got := tree.Words()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: series %d position %d: built word symbol %d, per-row Word %d",
						name, workers, i/l, i%l, got[i], want[i])
				}
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	s := newSAXSum(t, 64, 8)
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

// A symbol is a byte: every constructor refuses a summarization with fewer
// bits per symbol, with an error and before any table or word is built.
func TestBuildRejectsSubByteSymbols(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomWalkMatrix(rng, 40, 64)
	q4, err := sax.NewQuantizer(64, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum4 := sfaSum{q4.Quantizer}
	tr, err := Build(m, newSAXSum(t, 64, 8), Options{LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() (*Tree, error){
		"Build":          func() (*Tree, error) { return Build(m, sum4, Options{}) },
		"BuildFromWords": func() (*Tree, error) { return BuildFromWords(m, sum4, Options{}, tr.Words()) },
		"FromShape":      func() (*Tree, error) { return FromShape(m, sum4, Options{}, tr.Shape()) },
	} {
		if got, err := build(); err == nil || got != nil || !strings.Contains(err.Error(), "4-bit symbols") {
			t.Errorf("%s with 4-bit symbols: tree %v, err %v; want a 4-bit symbols error", name, got != nil, err)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomWalkMatrix(rng, 50, 64)
	tr, err := Build(m, newSAXSum(t, 64, 8), Options{LeafCapacity: 16, Workers: 2})
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
		"SAX": newSAXSum(t, n, 16),
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
	tr, err := Build(m, newSAXSum(t, n, 8), Options{LeafCapacity: 16})
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

// Kernel: the block kernel the refinement runs must agree bit for bit with
// the scalar reference at bsf = +Inf.
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
		var out [1]float64
		newDistTable(&k).minDistBlockEA(word, 1, out[:], math.Inf(1), nil, nil)
		return out[0] == k.minDistScalar(word)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Kernel early abandoning: the block kernel's survivors are exactly the
// series whose exact bound (minDistScalar) is <= bsf, with the exact bound
// as their value, and every other result exceeds bsf. That certificate is
// sound only when every table entry is nonnegative, which the kernel does
// not check, so the tables here come from learned SFA (at l = 16 and at
// l = 12, which has a sub-8 tail) and from SAX summarizations, for query
// representations that put large magnitudes into the ±Inf edge intervals:
// every entry must be >= 0 and not NaN. The dispatched tier and the
// portable reference run here; the tier-pinned test lanes cover the rest.
func TestKernelEarlyAbandonProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 128
	m := mixedMatrix(rng, 300, n)
	rows := m.Len()
	big := []float64{1e6, 1e150, 1e200, math.MaxFloat64}
	for si, sum := range []Summarization{
		newSFASum(t, m, sfa.Options{SampleRate: 0.5}),
		newSFASum(t, m, sfa.Options{WordLength: 12, SampleRate: 0.3}),
		newSAXSum(t, n, 16),
	} {
		l, alpha := sum.Segments(), simd.Alphabet
		g := newGatherTables(sum)
		enc := sum.NewIndexEncoder()
		words := make([]byte, rows*l)
		for i := 0; i < rows; i++ {
			if _, err := enc.Word(m.Row(i), words[i*l:(i+1)*l]); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < l; j++ { // two series entirely in the edge intervals
			words[j], words[l+j] = 0, byte(alpha-1)
		}
		exact := make([]float64, rows)
		out := make([]float64, rows)
		surv := make([]int32, rows)
		var fs fastScan
		for trial := 0; trial < 20; trial++ {
			query := make([]float64, n)
			for j := range query {
				query[j] = rng.NormFloat64()
			}
			distance.ZNormalize(query)
			qr := make([]float64, l)
			if _, err := enc.QueryRepr(query, qr); err != nil {
				t.Fatal(err)
			}
			for j := range qr {
				if rng.Intn(3) == 0 {
					qr[j] = big[rng.Intn(len(big))] * float64(1-2*rng.Intn(2))
				}
			}
			k := kernel{qr: qr, weights: sum.Weights(), g: g, l: l}
			dt := newDistTable(&k)
			for i, v := range dt.flat {
				if !(v >= 0) {
					t.Fatalf("summarization %d l=%d trial %d: table entry (%d, %d) = %v for qr %v", si, l, trial, i/alpha, i%alpha, v, qr)
				}
			}
			for i := range exact {
				exact[i] = k.minDistScalar(words[i*l : (i+1)*l])
			}
			sorted := append([]float64(nil), exact...)
			sort.Float64s(sorted)
			for _, bsf := range []float64{0, sorted[rows/10], sorted[rows/2], sorted[rows-3], math.Inf(1)} {
				for _, kern := range []string{"staged", "portable", "fastscan"} {
					var kept int
					switch kern {
					case "portable":
						kept = simd.LookupAccumBlockSurvivorsPortable(words, rows, dt.flat, out, bsf, surv)
					case "staged":
						kept = dt.minDistBlockEA(words, rows, out, bsf, surv, nil)
					default:
						kept = dt.minDistBlockEA(words, rows, out, bsf, surv, &fs)
					}
					want := 0
					for i, e := range exact {
						if e > bsf {
							// The fast scan leaves a non-survivor's out unspecified.
							if kern != "fastscan" && !(out[i] > bsf) {
								t.Fatalf("summarization %d l=%d trial %d bsf=%v %s: series %d (bound %v) is no survivor but out = %v", si, l, trial, bsf, kern, i, e, out[i])
							}
							continue
						}
						if want >= kept || surv[want] != int32(i) || out[i] != e {
							t.Fatalf("summarization %d l=%d trial %d bsf=%v %s: series %d (bound %v) missing from survivors %v", si, l, trial, bsf, kern, i, e, surv[:kept])
						}
						want++
					}
					if kept != want {
						t.Fatalf("summarization %d l=%d trial %d bsf=%v %s: %d survivors, minDistScalar keeps %d", si, l, trial, bsf, kern, kept, want)
					}
				}
			}
		}
	}
}

// nodeMinDist computes the squared lower-bound distance between the query
// representation and a variable-cardinality node word (cards[j] bits of
// prefix per position; cards[j] == 0 means the position is unconstrained)
// from the summarization's breakpoints. Queries descend the tree through
// distTable.nodeMinDist, which reads the same products out of the per-query
// table; this form needs no table and is the reference the two tests below
// pin the table form against.
func nodeMinDist(s Summarizer, qr []float64, word []byte, cards []uint8) float64 {
	l := s.Segments()
	weights := s.Weights()
	var sum float64
	for j := 0; j < l; j++ {
		bits := int(cards[j])
		if bits == 0 {
			continue // interval is (-inf, +inf): contributes nothing
		}
		bps := s.Breakpoints(j)
		shift := uint(SymbolBits - bits)
		loIdx := int(word[j]) << shift
		hiIdx := (int(word[j]) + 1) << shift
		v := qr[j]
		var d float64
		if loIdx > 0 && v < bps[loIdx-1] {
			d = bps[loIdx-1] - v
		} else if hiIdx <= len(bps) && v > bps[hiIdx-1] {
			d = v - bps[hiIdx-1]
		}
		sum += weights[j] * d * d
	}
	return sum
}

// nodeMinDist must agree with the summarization's own variable-cardinality
// mindist for SAX (whose implementation is independent).
func TestNodeMinDistMatchesSAX(t *testing.T) {
	n := 64
	sq, err := sax.NewQuantizer(n, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := sfaSum{sq.Quantizer}
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

// iSAX as a projection at word lengths that do not divide the series
// length — the BigANN stand-in's 100 points at l = 16, and 16,385 points at
// l = 13, where segment boundaries fall inside points — lower-bounds every
// pair exhaustively: the full-cardinality MinDist and the prefix bound at
// every cardinality (uniform, and one random mix per pair) stay <= ED² +
// 1e-9. The index's table LBD — per series, in both block kernels, and at
// the nodes of the descent — equals the quantizer's own MinDist bit for
// bit, so the tree prunes exactly what the reference bound prunes.
func TestProjectedSAXBoundsExhaustive(t *testing.T) {
	bigANN, _ := shapeMatrix(t, "BigANN", 200, 4)
	long, err := dataset.Generate(dataset.Spec{Name: "long", Count: 40, Length: 16385, Family: dataset.Seismic, HFShare: 0.5, Burst: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		m *distance.Matrix
		l int
	}{{bigANN, 16}, {long, 13}} {
		n, rows, l := c.m.Stride, c.m.Len(), c.l
		sum := newSAXSum(t, n, l)
		enc, g := sum.NewIndexEncoder(), newGatherTables(sum)
		words := make([]byte, rows*l)
		if err := enc.Words(c.m.Data, words); err != nil {
			t.Fatal(err)
		}
		qr, qword := make([]float64, l), make([]byte, l)
		prefix, cards := make([]byte, l), make([]uint8, l)
		block, surv := make([]float64, rows), make([]int32, rows)
		var fs fastScan
		for qi := 0; qi < rows; qi++ {
			query := c.m.Row(qi)
			if _, err := enc.QueryRepr(query, qr); err != nil {
				t.Fatal(err)
			}
			if _, err := enc.Word(query, qword); err != nil {
				t.Fatal(err)
			}
			k := kernel{qr: qr, weights: sum.Weights(), g: g, l: l}
			dt := newDistTable(&k)
			for _, bfs := range []*fastScan{nil, &fs} {
				if kept := dt.minDistBlockEA(words, rows, block, math.Inf(1), surv, bfs); kept != rows {
					t.Fatalf("n=%d l=%d query %d: %d of %d series survive an infinite bound", n, l, qi, kept, rows)
				}
				for i := 0; i < rows; i++ {
					if want := sum.MinDist(qr, words[i*l:(i+1)*l]); math.Float64bits(block[i]) != math.Float64bits(want) {
						t.Fatalf("n=%d l=%d pair (%d,%d) fastScan=%v: block LBD %v != MinDist %v", n, l, qi, i, bfs != nil, block[i], want)
					}
				}
			}
			for i := 0; i < rows; i++ {
				word := words[i*l : (i+1)*l]
				ed := distance.SquaredED(query, c.m.Row(i))
				lbd := sum.MinDist(qr, word)
				if got := dt.minDistEA(word, math.Inf(1)); math.Float64bits(got) != math.Float64bits(lbd) {
					t.Fatalf("n=%d l=%d pair (%d,%d): table LBD %v != MinDist %v", n, l, qi, i, got, lbd)
				}
				if lbd > ed+1e-9 {
					t.Fatalf("n=%d l=%d pair (%d,%d): MinDist %v > ED² %v", n, l, qi, i, lbd, ed)
				}
				for bits := 0; bits <= SymbolBits; bits++ {
					for j := range word {
						cards[j] = uint8(bits)
						if bits == 0 { // the last round mixes cardinalities
							cards[j] = uint8(1 + rng.Intn(SymbolBits))
						}
						prefix[j] = word[j] >> (SymbolBits - int(cards[j]))
					}
					pb := sum.MinDistVariable(qr, prefix, cards)
					if pb > ed+1e-9 || pb > lbd {
						t.Fatalf("n=%d l=%d pair (%d,%d) cards %v: prefix bound %v exceeds ED² %v or MinDist %v", n, l, qi, i, cards, pb, ed, lbd)
					}
					if got := dt.nodeMinDist(qword, prefix, cards); math.Float64bits(got) != math.Float64bits(pb) {
						t.Fatalf("n=%d l=%d pair (%d,%d) cards %v: node table LBD %v != MinDistVariable %v", n, l, qi, i, cards, got, pb)
					}
				}
			}
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
			"SAX": newSAXSum(t, m.Stride, 16),
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
				got := s.dt.nodeMinDist(s.qword, n.word, n.cards)
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
	tr, err := Build(m, newSAXSum(t, n, 8), Options{LeafCapacity: 20})
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
	tr, err := Build(m, newSAXSum(t, n, 8), Options{LeafCapacity: cap})
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
	tr, err := Build(m, newSAXSum(t, n, 8), Options{LeafCapacity: 10})
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
	tr, err := Build(m, newSAXSum(t, 64, 8), Options{LeafCapacity: 16})
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
	sum := newSAXSum(b, 128, 16)
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
