package sax

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/distance"
)

// encode returns the query representation (the segment means) and the
// full-cardinality word of series under q.
func encode(q *Quantizer, series []float64) ([]float64, []byte, error) {
	enc, l := q.NewEncoder(), q.Segments()
	qr, err := enc.QueryRepr(series, make([]float64, l))
	if err != nil {
		return nil, nil, err
	}
	word, err := enc.Word(series, make([]byte, l))
	return qr, word, err
}

// means returns the segment means of x under an l-segment quantizer.
func means(t *testing.T, x []float64, l int) []float64 {
	t.Helper()
	q, err := NewQuantizer(len(x), l, 8)
	if err != nil {
		t.Fatal(err)
	}
	qr, _, err := encode(q, x)
	if err != nil {
		t.Fatal(err)
	}
	return qr
}

func TestNewQuantizerValidation(t *testing.T) {
	cases := []struct{ n, l, bits int }{
		{0, 1, 8}, {16, 0, 8}, {16, 32, 8}, {16, 4, 0}, {16, 4, 9},
	}
	for _, c := range cases {
		if _, err := NewQuantizer(c.n, c.l, c.bits); err == nil {
			t.Errorf("NewQuantizer(%d,%d,%d): expected error", c.n, c.l, c.bits)
		}
	}
	if _, err := NewQuantizer(256, 16, 8); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	q, _ := NewQuantizer(256, 16, 8)
	if q.Segments() != 16 || q.SeriesLen() != 256 || q.MaxBits() != 8 {
		t.Error("accessor mismatch")
	}
	if len(q.Breakpoints(0)) != 255 {
		t.Errorf("breakpoints: %d", len(q.Breakpoints(0)))
	}
}

// The iSAX weight of every segment is the segment length n/l, fractional
// where l does not divide n.
func TestSegmentLength(t *testing.T) {
	for _, c := range []struct {
		n, l int
		want float64
	}{{256, 16, 16}, {100, 16, 6.25}, {5, 2, 2.5}, {7, 7, 1}, {3, 1, 3}} {
		q, err := NewQuantizer(c.n, c.l, 8)
		if err != nil {
			t.Fatal(err)
		}
		ws := q.Weights()
		if len(ws) != c.l {
			t.Fatalf("n=%d l=%d: %d weights", c.n, c.l, len(ws))
		}
		for j, w := range ws {
			if w != c.want {
				t.Errorf("n=%d l=%d: weight %d is %v, want %v", c.n, c.l, j, w, c.want)
			}
		}
	}
}

func TestBreakpointsSymmetricAndSorted(t *testing.T) {
	q, _ := NewQuantizer(64, 8, 8)
	bps := q.Breakpoints(0)
	for i := 1; i < len(bps); i++ {
		if bps[i] <= bps[i-1] {
			t.Fatalf("breakpoints not strictly increasing at %d", i)
		}
	}
	// Gaussian breakpoints are symmetric about zero.
	for i := 0; i < len(bps)/2; i++ {
		if math.Abs(bps[i]+bps[len(bps)-1-i]) > 1e-9 {
			t.Errorf("breakpoints not symmetric: %v vs %v", bps[i], bps[len(bps)-1-i])
		}
	}
	// Median breakpoint is 0 for even alphabet.
	if math.Abs(bps[127]) > 1e-12 {
		t.Errorf("middle breakpoint %v, want 0", bps[127])
	}
	// Every position reads the same N(0,1) table.
	for j := 1; j < q.Segments(); j++ {
		if &q.Breakpoints(j)[0] != &bps[0] {
			t.Errorf("position %d has its own table", j)
		}
	}
}

// The PAA basis: integer overlaps, so each point's weights sum to exactly l/n
// (its overlaps to exactly l) and each segment's to exactly 1 (its overlaps
// to exactly n), with no weight outside the row — at shapes where l divides
// n and where the segment boundaries fall inside points.
func TestPAABasisIntegerOverlaps(t *testing.T) {
	for _, c := range []struct{ n, l int }{{256, 16}, {100, 16}, {16385, 13}, {999, 15}, {5, 2}, {7, 7}, {3, 1}} {
		basis := paaBasis(c.n, c.l)
		if len(basis) != c.l*c.n {
			t.Fatalf("n=%d l=%d: basis length %d", c.n, c.l, len(basis))
		}
		pointSum := make([]int, c.n)
		for j := 0; j < c.l; j++ {
			segSum := 0
			for tt, w := range basis[j*c.n : (j+1)*c.n] {
				ov := int(math.Round(w * float64(c.n)))
				if w != float64(ov)/float64(c.n) || ov < 0 || ov > c.l {
					t.Fatalf("n=%d l=%d: weight %v of point %d in segment %d is not an overlap/n", c.n, c.l, w, tt, j)
				}
				segSum += ov
				pointSum[tt] += ov
			}
			if segSum != c.n {
				t.Errorf("n=%d l=%d: segment %d overlaps sum to %d, want %d", c.n, c.l, j, segSum, c.n)
			}
		}
		for tt, s := range pointSum {
			if s != c.l {
				t.Fatalf("n=%d l=%d: point %d overlaps sum to %d, want %d", c.n, c.l, tt, s, c.l)
			}
		}
	}
}

func TestQueryReprEvenDivision(t *testing.T) {
	got := means(t, []float64{1, 1, 2, 2, 3, 3, 4, 4}, 4)
	for i, want := range []float64{1, 2, 3, 4} {
		if got[i] != want {
			t.Errorf("segment %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestQueryReprSingleSegment(t *testing.T) {
	if got := means(t, []float64{2, 4, 6}, 1); math.Abs(got[0]-4) > 1e-12 {
		t.Errorf("got %v, want 4", got[0])
	}
}

func TestQueryReprIdentity(t *testing.T) {
	// l == n: PAA is the identity.
	x := []float64{3, 1, 4, 1, 5}
	got := means(t, x, 5)
	for i := range x {
		if got[i] != x[i] {
			t.Errorf("identity violated at %d: %v != %v", i, got[i], x[i])
		}
	}
}

// The segment means are only defined for 1 <= l <= n and need l slots.
func TestQueryReprValidation(t *testing.T) {
	if _, err := NewQuantizer(3, 0, 8); err == nil {
		t.Error("expected error for l=0")
	}
	if _, err := NewQuantizer(3, 4, 8); err == nil {
		t.Error("expected error for l>n")
	}
	q, err := NewQuantizer(3, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.NewEncoder().QueryRepr([]float64{1, 2, 3}, make([]float64, 1)); err == nil {
		t.Error("expected error for small dst")
	}
}

func TestQueryReprFractional(t *testing.T) {
	// n=5, l=2: segments cover [0,2.5) and [2.5,5).
	got := means(t, []float64{1, 1, 1, 3, 3}, 2)
	// Segment 0: 1*1 + 1*1 + 1*0.5 = 2.5 over 2.5 -> 1.
	// Segment 1: 1*0.5 + 3 + 3 = 6.5 over 2.5 -> 2.6.
	if math.Abs(got[0]-1) > 1e-12 || math.Abs(got[1]-2.6) > 1e-12 {
		t.Errorf("got %v, want [1 2.6]", got)
	}
}

// Property: PAA preserves the overall mean (the mean of the segment means
// equals the series mean), for any length and segment count.
func TestMeanPreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		l := 1 + rng.Intn(n)
		x := make([]float64, n)
		var mean float64
		for i := range x {
			x[i] = rng.NormFloat64()
			mean += x[i]
		}
		mean /= float64(n)
		var paaMean float64
		for _, v := range means(t, x, l) {
			paaMean += v
		}
		paaMean /= float64(l)
		return math.Abs(mean-paaMean) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: each PAA value lies within [min(x), max(x)].
func TestRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		l := 1 + rng.Intn(n)
		x := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range x {
			x[i] = rng.NormFloat64()
			lo, hi = math.Min(lo, x[i]), math.Max(hi, x[i])
		}
		for _, v := range means(t, x, l) {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWordKnownValues(t *testing.T) {
	// Alphabet 4 (2 bits): N(0,1) breakpoints ~ {-0.6745, 0, +0.6745}.
	q, err := NewQuantizer(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// PAA values: -2, -0.3, 0.3, 2 -> symbols 0, 1, 2, 3.
	series := []float64{-2, -2, -0.3, -0.3, 0.3, 0.3, 2, 2}
	word, err := q.NewEncoder().Word(series, make([]byte, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 1, 2, 3}
	for i := range want {
		if word[i] != want[i] {
			t.Errorf("symbol %d: got %d want %d (word %v)", i, word[i], want[i], word)
		}
	}
}

func TestWordValidation(t *testing.T) {
	q, _ := NewQuantizer(16, 4, 8)
	enc := q.NewEncoder()
	if _, err := enc.Word(make([]float64, 8), make([]byte, 4)); err == nil {
		t.Error("expected series length error")
	}
	if _, err := enc.Word(make([]float64, 16), make([]byte, 2)); err == nil {
		t.Error("expected dst length error")
	}
	if _, err := enc.QueryRepr(make([]float64, 8), make([]float64, 4)); err == nil {
		t.Error("expected query length error")
	}
	if _, err := enc.QueryRepr(make([]float64, 16), make([]float64, 3)); err == nil {
		t.Error("expected query dst length error")
	}
}

func TestSymbolBounds(t *testing.T) {
	q, _ := NewQuantizer(16, 4, 2) // alphabet 4, bps {-q, 0, q}
	bps := q.Breakpoints(0)
	// Full cardinality (2 bits).
	lo, hi := q.SymbolBounds(0, 2, 0)
	if !math.IsInf(lo, -1) || hi != bps[0] {
		t.Errorf("symbol 0: (%v,%v)", lo, hi)
	}
	lo, hi = q.SymbolBounds(0, 2, 3)
	if lo != bps[2] || !math.IsInf(hi, 1) {
		t.Errorf("symbol 3: (%v,%v)", lo, hi)
	}
	// 1-bit prefix 0 covers symbols {0,1}: (-inf, bps[1]=0).
	lo, hi = q.SymbolBounds(0, 1, 0)
	if !math.IsInf(lo, -1) || hi != bps[1] {
		t.Errorf("prefix 0@1bit: (%v,%v)", lo, hi)
	}
	lo, hi = q.SymbolBounds(0, 1, 1)
	if lo != bps[1] || !math.IsInf(hi, 1) {
		t.Errorf("prefix 1@1bit: (%v,%v)", lo, hi)
	}
}

func TestPrefixBoundsNest(t *testing.T) {
	// The interval of a (bits)-wide prefix must contain the intervals of
	// both its (bits+1)-wide children, for all levels.
	q, _ := NewQuantizer(64, 8, 8)
	for bits := 1; bits < 8; bits++ {
		for prefix := 0; prefix < 1<<bits; prefix++ {
			plo, phi := q.SymbolBounds(0, bits, byte(prefix))
			for child := 0; child < 2; child++ {
				clo, chi := q.SymbolBounds(0, bits+1, byte(prefix<<1|child))
				if clo < plo || chi > phi {
					t.Fatalf("child [%v,%v) escapes parent [%v,%v) at bits=%d prefix=%d",
						clo, chi, plo, phi, bits, prefix)
				}
			}
		}
	}
}

func randomZNorm(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	distance.ZNormalize(x)
	return x
}

// shapes are the (n, l) pairs the bound properties run at: l dividing n,
// and segment boundaries inside points (BigANN's 100/16 among them).
var shapes = []struct{ n, l int }{{96, 16}, {64, 8}, {100, 16}, {61, 7}}

// The GEMINI invariant: mindist(PAA(Q), word(S)) <= ed²(Q, S).
func TestLowerBoundProperty(t *testing.T) {
	for _, c := range shapes {
		q, err := NewQuantizer(c.n, c.l, 8)
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			qs, cs := randomZNorm(rng, c.n), randomZNorm(rng, c.n)
			qr, _, err := encode(q, qs)
			if err != nil {
				return false
			}
			_, word, err := encode(q, cs)
			if err != nil {
				return false
			}
			return q.MinDist(qr, word) <= distance.SquaredED(qs, cs)+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("n=%d l=%d: %v", c.n, c.l, err)
		}
	}
}

// Lower cardinality can only loosen (reduce) the mindist, never raise it.
func TestCardinalityMonotonicityProperty(t *testing.T) {
	for _, c := range shapes {
		q, err := NewQuantizer(c.n, c.l, 8)
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			qr, _, _ := encode(q, randomZNorm(rng, c.n))
			_, word, _ := encode(q, randomZNorm(rng, c.n))
			prev := math.Inf(1)
			for bits := 8; bits >= 1; bits-- {
				w := make([]byte, c.l)
				cards := make([]uint8, c.l)
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
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("n=%d l=%d: %v", c.n, c.l, err)
		}
	}
}

// MinDistVariable at full cardinality equals MinDist.
func TestMinDistVariableMatchesFull(t *testing.T) {
	q, _ := NewQuantizer(64, 8, 8)
	rng := rand.New(rand.NewSource(42))
	qr, _, _ := encode(q, randomZNorm(rng, 64))
	_, word, _ := encode(q, randomZNorm(rng, 64))
	cards := []uint8{8, 8, 8, 8, 8, 8, 8, 8}
	if d1, d2 := q.MinDist(qr, word), q.MinDistVariable(qr, word, cards); d1 != d2 {
		t.Errorf("full-cardinality mismatch: %v vs %v", d1, d2)
	}
}

func TestMinDistSelfIsZeroish(t *testing.T) {
	// mindist of a series against its own word must be 0: its PAA values lie
	// inside their own bins.
	q, _ := NewQuantizer(128, 16, 8)
	rng := rand.New(rand.NewSource(7))
	qr, word, _ := encode(q, randomZNorm(rng, 128))
	if d := q.MinDist(qr, word); d != 0 {
		t.Errorf("self mindist %v, want 0", d)
	}
}

// The tightness of the bound must not decrease with alphabet size.
func TestTightnessImprovesWithAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 128
	var prevMean float64 = -1
	for _, bits := range []int{2, 4, 8} {
		q, err := NewQuantizer(n, 16, bits)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const trials = 50
		for i := 0; i < trials; i++ {
			qr, _, _ := encode(q, randomZNorm(rng, n))
			_, w, _ := encode(q, randomZNorm(rng, n))
			sum += q.MinDist(qr, w)
		}
		mean := sum / trials
		if mean < prevMean-1e-9 {
			t.Errorf("bits=%d: mean LBD %v decreased from %v", bits, mean, prevMean)
		}
		prevMean = mean
	}
}

func BenchmarkWord256(b *testing.B) {
	q, _ := NewQuantizer(256, 16, 8)
	rng := rand.New(rand.NewSource(1))
	s := randomZNorm(rng, 256)
	enc, dst := q.NewEncoder(), make([]byte, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Word(s, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinDist(b *testing.B) {
	q, _ := NewQuantizer(256, 16, 8)
	rng := rand.New(rand.NewSource(2))
	qr, _, _ := encode(q, randomZNorm(rng, 256))
	_, w, _ := encode(q, randomZNorm(rng, 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.MinDist(qr, w)
	}
}
