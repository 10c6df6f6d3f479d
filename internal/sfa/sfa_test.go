package sfa

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/fft"
	"repro/internal/simd"
	"repro/internal/stats"
)

// randomMatrix builds a z-normalized matrix of random-walk series, which
// have energy spread over low frequencies.
func randomMatrix(rng *rand.Rand, n, count int) *distance.Matrix {
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

// highFreqMatrix builds series dominated by high-frequency oscillation, the
// regime where variance selection matters.
func highFreqMatrix(rng *rand.Rand, n, count int) *distance.Matrix {
	m := distance.NewMatrix(count, n)
	for i := 0; i < count; i++ {
		row := m.Row(i)
		f := float64(n)/2 - 2 - rng.Float64()*3 // near-Nyquist frequency
		phase := rng.Float64() * 2 * math.Pi
		amp := 1 + rng.Float64()
		for j := range row {
			row[j] = amp*math.Sin(2*math.Pi*f*float64(j)/float64(n)+phase) + 0.1*rng.NormFloat64()
		}
	}
	m.ZNormalizeAll()
	return m
}

func TestLearnValidation(t *testing.T) {
	if _, err := Learn(nil, Options{}); err == nil {
		t.Error("expected error on nil data")
	}
	if _, err := Learn(distance.NewMatrix(0, 16), Options{}); err == nil {
		t.Error("expected error on empty data")
	}
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 8, 10)
	// 8-point series: only coefficients 1..4 available = 7 values (Nyquist
	// imag excluded); word length 16 must fail.
	if _, err := Learn(m, Options{WordLength: 16}); err == nil {
		t.Error("expected error when word length exceeds candidates")
	}
	if _, err := Learn(m, Options{WordLength: 4, Bits: 12}); err == nil {
		t.Error("expected error on bits out of range")
	}
}

func TestLearnDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 256, 300)
	q, err := Learn(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Segments() != 16 || q.MaxBits() != 8 || q.SeriesLen() != 256 {
		t.Errorf("defaults wrong: l=%d bits=%d n=%d", q.Segments(), q.MaxBits(), q.SeriesLen())
	}
	if len(q.Indices()) != 16 || len(q.Weights()) != 16 {
		t.Error("selection size wrong")
	}
	for j := 0; j < 16; j++ {
		if len(q.Breakpoints(j)) != 255 {
			t.Errorf("position %d: %d breakpoints", j, len(q.Breakpoints(j)))
		}
	}
	// DC (indices 0 and 1) must never be selected.
	for _, idx := range q.Indices() {
		if idx < 2 {
			t.Errorf("DC value %d selected", idx)
		}
	}
	// Priority order: descending variance.
	vars := q.Variances()
	for i := 1; i < len(vars); i++ {
		if vars[i] > vars[i-1]+1e-12 {
			t.Errorf("variances not descending at %d: %v > %v", i, vars[i], vars[i-1])
		}
	}
}

func TestCandidateIndices(t *testing.T) {
	// n=8, maxCoeffs=4: coefficients 1,2,3 give re+im; coefficient 4 is
	// Nyquist (n even) -> real only. 7 values.
	got := candidateIndices(8, 4)
	want := []int{2, 3, 4, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Odd n: no Nyquist exclusion.
	got = candidateIndices(9, 4)
	if len(got) != 8 {
		t.Fatalf("odd n: got %v", got)
	}
}

func TestParsevalWeight(t *testing.T) {
	if parsevalWeight(8, 0) != 1 || parsevalWeight(8, 1) != 1 { // DC
		t.Error("DC weight should be 1")
	}
	if parsevalWeight(8, 8) != 1 { // Nyquist real of n=8 (k=4)
		t.Error("Nyquist weight should be 1")
	}
	if parsevalWeight(8, 4) != 2 { // k=2
		t.Error("interior weight should be 2")
	}
	if parsevalWeight(9, 8) != 2 { // odd n has no Nyquist
		t.Error("odd-n weight should be 2")
	}
}

func TestVarianceSelectionPrefersHighFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 64
	m := highFreqMatrix(rng, n, 200)
	qVar, err := Learn(m, Options{WordLength: 8, MaxCoeffs: n / 2, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	qFirst, err := Learn(m, Options{WordLength: 8, MaxCoeffs: n / 2, SampleRate: 1, Selection: FirstCoefficients})
	if err != nil {
		t.Fatal(err)
	}
	if qVar.MeanCoefficientIndex() <= qFirst.MeanCoefficientIndex() {
		t.Errorf("variance selection should pick higher coefficients on high-frequency data: VAR=%v FIRST=%v",
			qVar.MeanCoefficientIndex(), qFirst.MeanCoefficientIndex())
	}
	// The dominant frequency is near n/2-3; variance selection should land
	// in that neighbourhood.
	if qVar.MeanCoefficientIndex() < float64(n)/4 {
		t.Errorf("variance selection mean index %v suspiciously low", qVar.MeanCoefficientIndex())
	}
}

func TestFirstCoefficientsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 64, 100)
	q, err := Learn(m, Options{WordLength: 6, Selection: FirstCoefficients, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 4, 5, 6, 7} // re1, im1, re2, im2, re3, im3
	for i, idx := range q.Indices() {
		if idx != want[i] {
			t.Fatalf("got indices %v, want %v", q.Indices(), want)
		}
	}
}

func TestWordSymbolsWithinAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 96, 200)
	for _, bits := range []int{2, 4, 8} {
		q, err := Learn(m, Options{WordLength: 8, Bits: bits, SampleRate: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		tr := q.NewTransformer()
		word := make([]byte, 8)
		for i := 0; i < m.Len(); i++ {
			w, err := tr.Word(m.Row(i), word)
			if err != nil {
				t.Fatal(err)
			}
			for _, sym := range w {
				if int(sym) >= 1<<bits {
					t.Fatalf("bits=%d: symbol %d out of alphabet", bits, sym)
				}
			}
		}
	}
}

func TestTransformerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomMatrix(rng, 64, 50)
	q, err := Learn(m, Options{WordLength: 8, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := q.NewTransformer()
	if _, err := tr.Word(make([]float64, 32), make([]byte, 8)); err == nil {
		t.Error("expected series length error")
	}
	if _, err := tr.Word(make([]float64, 64), make([]byte, 4)); err == nil {
		t.Error("expected dst length error")
	}
	if _, err := tr.QueryRepr(make([]float64, 32), make([]float64, 8)); err == nil {
		t.Error("expected query length error")
	}
	if _, err := tr.QueryRepr(make([]float64, 64), make([]float64, 4)); err == nil {
		t.Error("expected query dst error")
	}
}

// The GEMINI invariant for SFA: mindist(DFT(Q), word(S)) <= ed²(Q, S), for
// both binning strategies, both selection strategies, various alphabet
// sizes, and even series NOT drawn from the training distribution.
func TestLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 96
	train := randomMatrix(rng, n, 300)
	configs := []Options{
		{WordLength: 16, Binning: EquiWidth, Selection: HighestVariance, SampleRate: 0.2},
		{WordLength: 16, Binning: EquiDepth, Selection: HighestVariance, SampleRate: 0.2},
		{WordLength: 16, Binning: EquiWidth, Selection: FirstCoefficients, SampleRate: 0.2},
		{WordLength: 8, Bits: 4, Binning: EquiDepth, Selection: FirstCoefficients, SampleRate: 0.2},
	}
	for ci, opt := range configs {
		q, err := Learn(train, opt)
		if err != nil {
			t.Fatal(err)
		}
		tr := q.NewTransformer()
		l := q.Segments()
		f := func(seed int64, outOfDist bool) bool {
			r := rand.New(rand.NewSource(seed))
			var qs, cs []float64
			if outOfDist {
				// White noise + spike: far from the random-walk training set.
				qs = make([]float64, n)
				cs = make([]float64, n)
				for i := range qs {
					qs[i] = r.NormFloat64() * 5
					cs[i] = r.NormFloat64() * 5
				}
				cs[r.Intn(n)] += 50
				distance.ZNormalize(qs)
				distance.ZNormalize(cs)
			} else {
				a := randomMatrix(r, n, 2)
				qs, cs = a.Row(0), a.Row(1)
			}
			qr, err := tr.QueryRepr(qs, make([]float64, l))
			if err != nil {
				return false
			}
			word, err := tr.Word(cs, make([]byte, l))
			if err != nil {
				return false
			}
			lb := q.MinDist(qr, word)
			ed2 := distance.SquaredED(qs, cs)
			return lb <= ed2+1e-6
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("config %d (%v/%v): %v", ci, opt.Binning, opt.Selection, err)
		}
	}
}

// Lower cardinality loosens the SFA mindist monotonically, which the tree
// index relies on for node-level pruning.
func TestCardinalityMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 64
	train := randomMatrix(rng, n, 200)
	q, err := Learn(train, Options{WordLength: 8, SampleRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tr := q.NewTransformer()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pair := randomMatrix(r, n, 2)
		qr, _ := tr.QueryRepr(pair.Row(0), make([]float64, 8))
		word, _ := tr.Word(pair.Row(1), make([]byte, 8))
		prev := math.Inf(1)
		for bits := 8; bits >= 1; bits-- {
			w := make([]byte, 8)
			cards := make([]uint8, 8)
			for j := range w {
				w[j] = word[j] >> (8 - bits)
				cards[j] = uint8(bits)
			}
			d := q.MinDistVariable(qr, w, cards)
			if d > prev+1e-12 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMinDistSelfIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 128
	m := randomMatrix(rng, n, 100)
	q, err := Learn(m, Options{SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := q.NewTransformer()
	for i := 0; i < 20; i++ {
		s := m.Row(i)
		qr, _ := tr.QueryRepr(s, make([]float64, 16))
		word, _ := tr.Word(s, make([]byte, 16))
		if d := q.MinDist(qr, word); d != 0 {
			t.Errorf("series %d: self mindist %v, want 0", i, d)
		}
	}
}

// TLB comparison: on high-frequency data, SFA with variance selection must
// produce a tighter average bound than first-coefficient selection. This is
// the paper's central claim (Section IV-E2, validated in Section V-E).
func TestVarianceSelectionTightensBoundOnHighFreqData(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 64
	train := highFreqMatrix(rng, n, 400)
	queries := highFreqMatrix(rng, n, 30)
	var tlb [2]float64
	for si, sel := range []Selection{HighestVariance, FirstCoefficients} {
		q, err := Learn(train, Options{WordLength: 8, MaxCoeffs: n / 2, Selection: sel, SampleRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := q.NewTransformer()
		var sum float64
		var count int
		for qi := 0; qi < queries.Len(); qi++ {
			qr, _ := tr.QueryRepr(queries.Row(qi), make([]float64, 8))
			for ci := 0; ci < 50; ci++ {
				word, _ := tr.Word(train.Row(ci), make([]byte, 8))
				lb := math.Sqrt(q.MinDist(qr, word))
				ed := math.Sqrt(distance.SquaredED(queries.Row(qi), train.Row(ci)))
				if ed > 0 {
					sum += lb / ed
					count++
				}
			}
		}
		tlb[si] = sum / float64(count)
	}
	if tlb[0] <= tlb[1] {
		t.Errorf("TLB: variance selection %v should beat first-coefficients %v on high-frequency data", tlb[0], tlb[1])
	}
}

// Each basis row reproduces its DFT value: the projection of x equals the
// 1/sqrt(n)-scaled naive DFT within 1e-12·‖x‖, on power-of-two lengths and
// on lengths the FFT would take through Bluestein.
func TestProjectionMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{96, 100, 128, 256} {
		indices := candidateIndices(n, n/2)
		basis := projectionBasis(n, indices)
		for trial := 0; trial < 4; trial++ {
			x := make([]float64, n)
			cx := make([]complex128, n)
			var norm float64
			for i := range x {
				x[i] = rng.NormFloat64() * 3
				cx[i] = complex(x[i], 0)
				norm += x[i] * x[i]
			}
			tol := 1e-12 * math.Sqrt(norm)
			spec := fft.NaiveDFT(cx)
			scale := 1 / math.Sqrt(float64(n))
			for j, idx := range indices {
				want := real(spec[idx/2]) * scale
				if idx%2 == 1 {
					want = imag(spec[idx/2]) * scale
				}
				if got := simd.Dot(basis[j*n:(j+1)*n], x); math.Abs(got-want) > tol {
					t.Fatalf("n=%d value %d: projection %v, naive DFT %v (|diff| %.3g > %.3g)", n, idx, got, want, math.Abs(got-want), tol)
				}
			}
		}
	}
}

// Word is the quantization of QueryRepr, bit for bit, and QueryRepr is the
// portable Dot's value in whichever kernel tier serves it: containers store
// words, so a word must not depend on the machine. Checked on learned
// equi-width and equi-depth tables, and on tables built from the rows' own
// values, which put every value on a breakpoint — where any difference
// between the arithmetic of Word and of QueryRepr flips a symbol.
func TestWordQuantizesQueryRepr(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomMatrix(rng, 100, 300)
	var quantizers []*Quantizer
	for _, binning := range []Binning{EquiWidth, EquiDepth} {
		q, err := Learn(m, Options{Binning: binning, SampleRate: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		quantizers = append(quantizers, q)
	}
	st := quantizers[0].State()
	tr := quantizers[0].NewTransformer()
	for j := range st.Breakpoints {
		for i := range st.Breakpoints[j] {
			qr, err := tr.QueryRepr(m.Row(i), make([]float64, st.L))
			if err != nil {
				t.Fatal(err)
			}
			st.Breakpoints[j][i] = qr[j]
		}
		sort.Float64s(st.Breakpoints[j])
	}
	onBreakpoints, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	quantizers = append(quantizers, onBreakpoints)

	for qi, q := range quantizers {
		tr := q.NewTransformer()
		qr, word := make([]float64, q.Segments()), make([]byte, q.Segments())
		for i := 0; i < m.Len(); i++ {
			if _, err := tr.QueryRepr(m.Row(i), qr); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Word(m.Row(i), word); err != nil {
				t.Fatal(err)
			}
			for j, v := range qr {
				if ref := simd.DotPortable(q.basis[j*q.n:(j+1)*q.n], m.Row(i)); math.Float64bits(v) != math.Float64bits(ref) {
					t.Fatalf("%s tier, row %d position %d: value %v, portable Dot %v", simd.Impl(), i, j, v, ref)
				}
				if want := stats.BinIndex(q.Breakpoints(j), v); int(word[j]) != want {
					t.Fatalf("quantizer %d row %d position %d: word symbol %d, BinIndex(QueryRepr) %d", qi, i, j, word[j], want)
				}
			}
		}
	}
}

// The O(1) bin locator agrees with the binary search at every breakpoint,
// at both float64 neighbours of it, at ±Inf and at NaN — on learned
// equi-width tables (which take the guess) and equi-depth ones (which take
// the binary search), and on degenerate tables.
func TestBinTableMatchesBinIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randomMatrix(rng, 64, 400)
	tables := map[string][]float64{
		"collapsed": make([]float64, 255), // a constant value: width 0
		"one":       {0.5},
		"inf-tail":  {-1, 0, 1, math.Inf(1)},
	}
	for _, binning := range []Binning{EquiWidth, EquiDepth} {
		for _, bits := range []int{2, 8} {
			q, err := Learn(m, Options{WordLength: 8, Bits: bits, Binning: binning, SampleRate: 1})
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < q.Segments(); j++ {
				if fast := q.bins[j].inv != 0; bits == 8 && fast != (binning == EquiWidth) {
					t.Errorf("%v bits=%d position %d: arithmetic guess enabled=%v", binning, bits, j, fast)
				}
				tables[fmt.Sprintf("%v/%d/%d", binning, bits, j)] = q.Breakpoints(j)
			}
		}
	}
	for name, bps := range tables {
		b := newBinTable(bps)
		probes := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0}
		for _, v := range bps {
			probes = append(probes, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		if b.inv != 0 {
			// Mid-bin values take the offset path; the bins below the first
			// breakpoint and past the last take the walk.
			for i := -3; i <= len(bps)+2; i++ {
				probes = append(probes, b.lo+(float64(i)+0.5)/b.inv, b.lo+(float64(i)+0.999)/b.inv)
			}
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, rng.NormFloat64()*2)
		}
		for _, v := range probes {
			if got, want := b.index(v), stats.BinIndex(bps, v); got != want {
				t.Fatalf("table %s: index(%v) = %d, BinIndex %d", name, v, got, want)
			}
		}
	}
}

// ROADMAP item 5's invariant under the projected transform, on stand-ins of
// the benchmark's three datasets: the SFA lower bound never exceeds the
// squared Euclidean distance.
func TestLowerBoundOnDatasetStandIns(t *testing.T) {
	for _, name := range []string{"LenDB", "SALD", "SIFT1b"} {
		spec, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		train, err := dataset.GenerateQueries(spec, 600, 1)
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := dataset.GenerateQueries(spec, 400, 2)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Learn(train, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr := q.NewTransformer()
		qr, word := make([]float64, q.Segments()), make([]byte, q.Segments())
		for i := 0; i < pairs.Len(); i += 2 {
			a, b := pairs.Row(i), pairs.Row(i+1)
			if _, err := tr.QueryRepr(a, qr); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Word(b, word); err != nil {
				t.Fatal(err)
			}
			if lb, ed2 := q.MinDist(qr, word), distance.SquaredED(a, b); lb > ed2 {
				t.Fatalf("%s pair %d: lower bound %v > squared ED %v", name, i/2, lb, ed2)
			}
		}
	}
}

// Words over a block is byte-identical to a per-row reference that shares
// none of its code: l simd.DotPortable calls and stats.BinIndex, on every
// dataset stand-in of the catalog, at l = 16 and 32, under both binnings.
// 257 rows cover Words' 64-row blocks and every kernel tier's remainder
// rows (an odd last row, and m%3 rows for the AVX2 tile).
func TestBlockWordsOnDatasetStandIns(t *testing.T) {
	const rows = 257
	for _, spec := range dataset.Catalog() {
		data, err := dataset.GenerateQueries(spec, rows, 3)
		if err != nil {
			t.Fatal(err)
		}
		n := data.Stride
		for _, l := range []int{16, 32} {
			for _, binning := range []Binning{EquiWidth, EquiDepth} {
				q, err := Learn(data, Options{WordLength: l, Binning: binning})
				if err != nil {
					t.Fatal(err)
				}
				words := make([]byte, rows*l)
				if err := q.NewTransformer().Words(data.Data, words); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rows; r++ {
					for j := 0; j < l; j++ {
						v := simd.DotPortable(q.basis[j*n:(j+1)*n], data.Row(r))
						if want := stats.BinIndex(q.Breakpoints(j), v); int(words[r*l+j]) != want {
							t.Fatalf("%s l=%d %v row %d position %d: block symbol %d, reference %d",
								spec.Name, l, binning, r, j, words[r*l+j], want)
						}
					}
				}
			}
		}
	}
}

// Words validates the block shape and writes nothing past dst[:rows*l].
func TestWordsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := randomMatrix(rng, 64, 50)
	q, err := Learn(m, Options{WordLength: 8, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := q.NewTransformer()
	if err := tr.Words(make([]float64, 65), make([]byte, 16)); err == nil {
		t.Error("expected block length error")
	}
	if err := tr.Words(m.Data[:3*64], make([]byte, 23)); err == nil {
		t.Error("expected dst length error")
	}
	dst := make([]byte, 3*8+1)
	dst[24] = 0xAB
	if err := tr.Words(m.Data[:3*64], dst); err != nil || dst[24] != 0xAB {
		t.Errorf("Words on 3 rows: err %v, byte past the words %#x", err, dst[24])
	}
	if err := tr.Words(nil, nil); err != nil {
		t.Errorf("empty block: %v", err)
	}
}

// FromState refuses states whose lower bound could exceed the true
// distance, even when the container around them checksums cleanly.
func TestFromStateRejectsForgedStates(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	q, err := Learn(randomMatrix(rng, 64, 200), Options{WordLength: 8, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromState(q.State()); err != nil {
		t.Fatalf("learned state rejected: %v", err)
	}
	for name, forge := range map[string]func(st *State){
		"duplicate index":       func(st *State) { st.Indices[1] = st.Indices[0]; st.Weights[1] = st.Weights[0] },
		"weight above Parseval": func(st *State) { st.Weights[2] = 4 },
		"weight below Parseval": func(st *State) { st.Weights[3] = 1 },
		"short variances":       func(st *State) { st.Variances = st.Variances[:st.L-1] },
		"long variances":        func(st *State) { st.Variances = append(st.Variances, 1) },
	} {
		st := q.State()
		forge(&st)
		if _, err := FromState(st); err == nil {
			t.Errorf("%s: forged state accepted", name)
		}
	}
}

// SymbolBounds reads the interval of a symbol prefix off its position's own
// table: the merged bins of every full-cardinality symbol sharing it.
func TestSymbolBoundsPrefixes(t *testing.T) {
	q := New(4, 2, make([]float64, 4), [][]float64{{1, 2, 3}}, []float64{1})
	for _, c := range []struct {
		bits   int
		prefix byte
		lo, hi float64
	}{
		{2, 0, math.Inf(-1), 1}, {2, 1, 1, 2}, {2, 3, 3, math.Inf(1)},
		{1, 0, math.Inf(-1), 2}, {1, 1, 2, math.Inf(1)},
	} {
		if lo, hi := q.SymbolBounds(0, c.bits, c.prefix); lo != c.lo || hi != c.hi {
			t.Errorf("prefix %d@%d bits: (%v,%v), want (%v,%v)", c.prefix, c.bits, lo, hi, c.lo, c.hi)
		}
	}
}

func TestMeanCoefficientIndex(t *testing.T) {
	q := &Quantizer{indices: []int{16, 17, 18, 19}} // coeffs 8,8,9,9
	if got := q.MeanCoefficientIndex(); got != 8.5 {
		t.Errorf("got %v, want 8.5", got)
	}
	empty := &Quantizer{}
	if empty.MeanCoefficientIndex() != 0 {
		t.Error("empty quantizer should report 0")
	}
}

func TestSampleRows(t *testing.T) {
	m := distance.NewMatrix(1000, 4)
	rows := sampleRows(m, 0.01, 1, 1)
	if len(rows) != 10 {
		t.Errorf("1%% of 1000: got %d rows", len(rows))
	}
	seen := map[int]bool{}
	for _, r := range rows {
		if r < 0 || r >= 1000 || seen[r] {
			t.Fatalf("bad or duplicate row %d", r)
		}
		seen[r] = true
	}
	// Rate >= 1 uses everything.
	if got := sampleRows(m, 2, 1, 1); len(got) != 1000 {
		t.Errorf("full sample: got %d", len(got))
	}
	// Tiny rate still yields at least one row.
	if got := sampleRows(m, 1e-9, 1, 1); len(got) != 1 {
		t.Errorf("minimum sample: got %d", len(got))
	}
	// Determinism.
	a := sampleRows(m, 0.05, 1, 7)
	b := sampleRows(m, 0.05, 1, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic for fixed seed")
		}
	}
}

func TestBinningStrings(t *testing.T) {
	if EquiWidth.String() != "EW" || EquiDepth.String() != "ED" {
		t.Error("Binning strings")
	}
	if HighestVariance.String() != "VAR" || FirstCoefficients.String() != "FIRST" {
		t.Error("Selection strings")
	}
	if Binning(99).String() == "" || Selection(99).String() == "" {
		t.Error("unknown values should still print")
	}
}

func BenchmarkLearn(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(rng, 256, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Learn(m, Options{SampleRate: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWord is the build's transform phase: every row of a 64 MiB
// matrix (2^16 rows at n = 128, 2^15 at n = 256, so the rows stream from
// DRAM as they do in a build), transformed by Words over chunks of 1024 rows
// ("block", the path index.Build takes), one Word per row ("row", a block of
// one), or by l simd.Dot calls per row and the same quantization ("dot",
// the untiled baseline the tile is measured against). ns/row is per series.
func BenchmarkWord(b *testing.B) {
	const matrixBytes, chunk = 64 << 20, 1024
	for _, n := range []int{128, 256} {
		count := matrixBytes / 8 / n
		m := randomMatrix(rand.New(rand.NewSource(12)), n, count)
		for _, l := range []int{16, 32} {
			q, err := Learn(m, Options{WordLength: l})
			if err != nil {
				b.Fatal(err)
			}
			words := make([]byte, count*l)
			report := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
			}
			b.Run(fmt.Sprintf("l=%d/n=%d/row", l, n), func(b *testing.B) {
				tr := q.NewTransformer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r := i % count
					if _, err := tr.Word(m.Row(r), words[r*l:(r+1)*l]); err != nil {
						b.Fatal(err)
					}
				}
				report(b)
			})
			b.Run(fmt.Sprintf("l=%d/n=%d/dot", l, n), func(b *testing.B) {
				vals := make([]float64, l)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r := i % count
					for j := range vals {
						vals[j] = simd.Dot(q.basis[j*n:(j+1)*n], m.Row(r))
					}
					q.quantize(vals, words[r*l:(r+1)*l])
				}
				report(b)
			})
			b.Run(fmt.Sprintf("l=%d/n=%d/block", l, n), func(b *testing.B) {
				tr := q.NewTransformer()
				b.ReportAllocs()
				for done := 0; done < b.N; {
					lo := done % count
					hi := min(lo+chunk, count, lo+b.N-done)
					if err := tr.Words(m.Data[lo*n:hi*n], words[lo*l:hi*l]); err != nil {
						b.Fatal(err)
					}
					done += hi - lo
				}
				report(b)
			})
		}
	}
}
