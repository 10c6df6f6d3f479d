package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/distance"
	"repro/internal/sfa"
)

func mixedMatrix(rng *rand.Rand, count, n int) *distance.Matrix {
	m := distance.NewMatrix(count, n)
	for i := 0; i < count; i++ {
		row := m.Row(i)
		switch i % 3 {
		case 0:
			v := 0.0
			for j := range row {
				v += rng.NormFloat64()
				row[j] = v
			}
		case 1:
			f := 3 + rng.Float64()*float64(n/2-4)
			for j := range row {
				row[j] = math.Sin(2*math.Pi*f*float64(j)/float64(n)) + 0.2*rng.NormFloat64()
			}
		default:
			for j := range row {
				row[j] = rng.NormFloat64()
			}
		}
	}
	m.ZNormalizeAll()
	return m
}

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
	if _, err := Build(nil, Config{}); err == nil {
		t.Error("expected error on nil data")
	}
	if _, err := Build(distance.NewMatrix(0, 16), Config{}); err == nil {
		t.Error("expected error on empty data")
	}
	rng := rand.New(rand.NewSource(1))
	m := mixedMatrix(rng, 50, 64)
	if _, err := Build(m, Config{Method: Method(99)}); err == nil {
		t.Error("expected error on unknown method")
	}
}

func TestMethodString(t *testing.T) {
	if SOFA.String() != "SOFA" || MESSI.String() != "MESSI" {
		t.Error("method strings")
	}
	if Method(5).String() == "" {
		t.Error("unknown method should still print")
	}
}

func TestBuildBothMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := mixedMatrix(rng, 300, 96)
	for _, method := range []Method{SOFA, MESSI} {
		ix, err := Build(m, Config{Method: method, LeafCapacity: 32, SampleRate: 0.2})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if ix.Method() != method || ix.Len() != 300 || ix.SeriesLen() != 96 {
			t.Errorf("%v: accessor mismatch", method)
		}
		if ix.BuildSeconds() < 0 {
			t.Errorf("%v: negative build time", method)
		}
		st := ix.Stats()
		if st.Series != 300 || st.Leaves < 1 {
			t.Errorf("%v: bad stats %+v", method, st)
		}
		if method == SOFA {
			if ix.SFAQuantizer() == nil {
				t.Error("SOFA should expose its quantizer")
			}
			if ix.LearnSeconds <= 0 {
				t.Error("SOFA should record learn time")
			}
		} else if ix.SFAQuantizer() != nil {
			t.Error("MESSI should not have an SFA quantizer")
		}
	}
}

// Both methods return exactly the brute-force result.
func TestExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 96
	m := mixedMatrix(rng, 500, n)
	for _, method := range []Method{SOFA, MESSI} {
		ix, err := Build(m, Config{Method: method, LeafCapacity: 24, SampleRate: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		s := ix.NewSearcher()
		for _, k := range []int{1, 5, 20} {
			for qi := 0; qi < 10; qi++ {
				query := make([]float64, n)
				for j := range query {
					query[j] = rng.NormFloat64()
				}
				res, err := s.Search(query, k)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteKNN(m, query, k)
				for i := range want {
					if math.Abs(res[i].Dist-want[i]) > 1e-7*(want[i]+1) {
						t.Fatalf("%v k=%d rank %d: got %v want %v", method, k, i, res[i].Dist, want[i])
					}
				}
			}
		}
		r, err := s.Search1(m.Row(0))
		if err != nil {
			t.Fatal(err)
		}
		if r.Dist > 1e-9 {
			t.Errorf("%v: self query dist %v", method, r.Dist)
		}
	}
}

// Config knobs must reach the underlying layers.
func TestConfigPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := mixedMatrix(rng, 200, 64)
	ix, err := Build(m, Config{
		Method:       SOFA,
		WordLength:   8,
		LeafCapacity: 16,
		Workers:      2,
		Binning:      sfa.EquiDepth,
		Selection:    sfa.FirstCoefficients,
		SampleRate:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := ix.SFAQuantizer()
	if q.Segments() != 8 || q.MaxBits() != 8 {
		t.Errorf("word config not propagated: l=%d bits=%d", q.Segments(), q.MaxBits())
	}
	// FirstCoefficients ordering is ascending spectral order.
	idx := q.Indices()
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Errorf("FirstCoefficients selection not in order: %v", idx)
		}
	}
}

// Property: SOFA and MESSI agree with each other (both exact) on random
// workloads.
func TestMethodsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		count := 100 + rng.Intn(200)
		m := mixedMatrix(rng, count, n)
		sofa, err := Build(m, Config{Method: SOFA, LeafCapacity: 1 + rng.Intn(40), SampleRate: 0.3, WordLength: 8})
		if err != nil {
			return false
		}
		messi, err := Build(m, Config{Method: MESSI, LeafCapacity: 1 + rng.Intn(40), WordLength: 8})
		if err != nil {
			return false
		}
		ss, ms := sofa.NewSearcher(), messi.NewSearcher()
		for qi := 0; qi < 3; qi++ {
			query := make([]float64, n)
			for j := range query {
				query[j] = rng.NormFloat64()
			}
			k := 1 + rng.Intn(4)
			a, err := ss.Search(query, k)
			if err != nil {
				return false
			}
			b, err := ms.Search(query, k)
			if err != nil {
				return false
			}
			for i := range a {
				if math.Abs(a[i].Dist-b[i].Dist) > 1e-7*(a[i].Dist+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSearchers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 64
	m := mixedMatrix(rng, 400, n)
	ix, err := Build(m, Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			s := ix.NewSearcher()
			for i := 0; i < 10; i++ {
				query := make([]float64, n)
				for j := range query {
					query[j] = r.NormFloat64()
				}
				res, err := s.Search(query, 3)
				if err != nil {
					errc <- err
					return
				}
				want := bruteKNN(m, query, 3)
				for i := range want {
					if math.Abs(res[i].Dist-want[i]) > 1e-7*(want[i]+1) {
						errc <- err
						return
					}
				}
			}
			errc <- nil
		}(int64(g))
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
