package sofa

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/scan"
)

// mixedMatrix generates the test collection used across the repo: a third
// random walks, a third noisy sines, a third white noise — z-normalized.
func mixedMatrix(rng *rand.Rand, count, n int) *Matrix {
	m := NewMatrix(count, n)
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

func randQuery(rng *rand.Rand, n int) []float64 {
	q := make([]float64, n)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	return q
}

// bruteKNN returns the k smallest squared z-normalized distances between
// query and every row of m, ascending.
func bruteKNN(m *Matrix, query []float64, k int) []float64 {
	qz := append([]float64(nil), query...)
	znormalize(qz)
	dists := make([]float64, m.Len())
	for i := range dists {
		var d float64
		row := m.Row(i)
		for j := range qz {
			diff := row[j] - qz[j]
			d += diff * diff
		}
		dists[i] = d
	}
	sort.Float64s(dists)
	if k > len(dists) {
		k = len(dists)
	}
	return dists[:k]
}

func znormalize(x []float64) {
	var mean, m2 float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for _, v := range x {
		m2 += (v - mean) * (v - mean)
	}
	std := math.Sqrt(m2 / float64(len(x)))
	if std < 1e-12 {
		std = 1
	}
	for i := range x {
		x[i] = (x[i] - mean) / std
	}
}

// buildFixture builds a small deterministic index shared by many tests.
func buildFixture(t testing.TB, count, n int, opts ...Option) (*Index, *Matrix, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	m := mixedMatrix(rng, count, n)
	ix, err := Build(m, append([]Option{SampleRate(0.2), LeafSize(64)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ix, m, rng
}

func TestBuildSentinelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mixedMatrix(rng, 50, 32)
	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"nil data", func() error { _, err := Build(nil); return err }, ErrEmptyData},
		{"empty data", func() error { _, err := Build(NewMatrix(0, 16)); return err }, ErrEmptyData},
		{"negative shards", func() error { _, err := Build(m, Shards(-1)); return err }, ErrBadConfig},
		{"negative leaf", func() error { _, err := Build(m, LeafSize(-8)); return err }, ErrBadConfig},
		{"bad sample rate", func() error { _, err := Build(m, SampleRate(1.5)); return err }, ErrBadConfig},
		{"negative workers", func() error { _, err := Build(m, Workers(-2)); return err }, ErrBadConfig},
		{"no rows", func() error { _, err := FromRows(nil); return err }, ErrEmptyData},
		{"ragged rows", func() error {
			_, err := FromRows([][]float64{make([]float64, 8), make([]float64, 9)})
			return err
		}, ErrBadSeriesLength},
		{"zero-length rows", func() error { _, err := FromRows([][]float64{{}}); return err }, ErrBadSeriesLength},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.do(); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

func TestQuerySentinelErrors(t *testing.T) {
	ix, m, rng := buildFixture(t, 300, 32)
	ctx := context.Background()
	good := randQuery(rng, 32)
	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"search wrong length", func() error {
			_, err := ix.Search(ctx, Query{Series: make([]float64, 31), K: 1})
			return err
		}, ErrBadSeriesLength},
		{"search k=0", func() error {
			_, err := ix.Search(ctx, Query{Series: good, K: 0})
			return err
		}, ErrBadK},
		{"search negative epsilon", func() error {
			_, err := ix.Search(ctx, Query{Series: good, K: 1}.With(Epsilon(-0.5)))
			return err
		}, ErrBadEpsilon},
		{"searchinto k<1", func() error {
			_, err := ix.SearchInto(ctx, Query{Series: good, K: -3}, nil)
			return err
		}, ErrBadK},
		{"batch empty", func() error {
			_, err := ix.SearchBatch(ctx, nil, 0)
			return err
		}, ErrEmptyData},
		{"batch bad query", func() error {
			_, err := ix.SearchBatch(ctx, []Query{{Series: good, K: 1}, {Series: good, K: 0}}, 0)
			return err
		}, ErrBadK},
		{"batch wrong length", func() error {
			_, err := ix.SearchBatch(ctx, []Query{{Series: make([]float64, 5), K: 1}}, 0)
			return err
		}, ErrBadSeriesLength},
		{"insert wrong length", func() error {
			_, err := ix.Insert(make([]float64, 7))
			return err
		}, ErrBadSeriesLength},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.do(); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
	_ = m
}

func TestStreamSentinelErrors(t *testing.T) {
	ix, m, rng := buildFixture(t, 200, 32)
	if _, err := ix.NewStream(1, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil handler: got %v, want ErrBadConfig", err)
	}
	st, err := ix.NewStream(2, func(uint64, []Result, error) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(Query{Series: randQuery(rng, 32), K: 0}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 submit: got %v, want ErrBadK", err)
	}
	if _, err := st.Submit(Query{Series: make([]float64, 3), K: 1}); !errors.Is(err, ErrBadSeriesLength) {
		t.Errorf("short submit: got %v, want ErrBadSeriesLength", err)
	}
	if _, err := st.Submit(Query{Series: m.Row(0), K: 1}); err != nil {
		t.Fatalf("good submit: %v", err)
	}
	st.Close()
	st.Close() // idempotent
	if _, err := st.Submit(Query{Series: m.Row(0), K: 1}); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("submit after close: got %v, want ErrStreamClosed", err)
	}
}

// Search through the public API must return exactly the brute-force k-NN
// distances, for single- and multi-shard builds and for both methods.
func TestSearchExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"SFA-1shard", nil},
		{"SFA-4shards", []Option{Shards(4)}},
		{"MESSI", []Option{MESSI()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, m, rng := buildFixture(t, 600, 48, tc.opts...)
			ctx := context.Background()
			for qi := 0; qi < 8; qi++ {
				q := randQuery(rng, 48)
				res, err := ix.Search(ctx, Query{Series: q, K: 5})
				if err != nil {
					t.Fatal(err)
				}
				want := bruteKNN(m, q, 5)
				if len(res) != len(want) {
					t.Fatalf("got %d results, want %d", len(res), len(want))
				}
				for i := range want {
					if math.Abs(res[i].Dist-want[i]) > 1e-7*(want[i]+1) {
						t.Fatalf("rank %d: got %v want %v", i, res[i].Dist, want[i])
					}
				}
			}
		})
	}
}

// MESSI at a word length that does not divide the series length: 16,385
// points in 13 segments put segment boundaries inside points, and the last
// segment's rounded end past the last point. The build must succeed and
// answer exactly what the sequential scan answers. The basis behind it is
// checked exactly at this shape in internal/sax (TestPAABasisIntegerOverlaps).
func TestMESSIFractionalSegments(t *testing.T) {
	const n, count, k = 16385, 120, 5
	rng := rand.New(rand.NewSource(13))
	m := mixedMatrix(rng, count, n)
	ix, err := Build(m, MESSI(), WordLength(13), LeafSize(16))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.New(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for qi := 0; qi < 6; qi++ {
		q := randQuery(rng, n)
		if qi%2 == 1 {
			copy(q, m.Row(rng.Intn(count))) // a query with an exact match
		}
		res, err := ix.Search(ctx, Query{Series: q, K: k})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sc.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(want) {
			t.Fatalf("query %d: %d results, scan %d", qi, len(res), len(want))
		}
		for i := range want {
			if uint64(res[i].ID) != uint64(want[i].ID) || math.Abs(res[i].Dist-want[i].Dist) > 1e-9*(want[i].Dist+1) {
				t.Fatalf("query %d rank %d: got %+v, scan %+v", qi, i, res[i], want[i])
			}
		}
	}
}

// Epsilon and Approximate queries answer within their documented bounds.
func TestApproximateModes(t *testing.T) {
	ix, m, rng := buildFixture(t, 600, 48)
	ctx := context.Background()
	for qi := 0; qi < 6; qi++ {
		q := randQuery(rng, 48)
		exact := bruteKNN(m, q, 3)
		eps, err := ix.Search(ctx, Query{Series: q, K: 3}.With(Epsilon(0.2)))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range eps {
			if r.Dist > exact[i]*1.2*1.2+1e-9 {
				t.Fatalf("epsilon rank %d: %v exceeds (1+eps)^2 * %v", i, r.Dist, exact[i])
			}
		}
		appr, err := ix.Search(ctx, Query{Series: q, K: 3}.With(Approximate()))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range appr {
			if r.Dist < exact[i]-1e-9 {
				t.Fatalf("approximate rank %d: %v below exact %v", i, r.Dist, exact[i])
			}
		}
	}
}

// Search results must be caller-owned: immune to any number of subsequent
// queries on the same index (which reuse the pooled internal searchers).
func TestSearchResultsCallerOwned(t *testing.T) {
	ix, _, rng := buildFixture(t, 500, 32)
	ctx := context.Background()
	q0 := randQuery(rng, 32)
	res, err := ix.Search(ctx, Query{Series: q0, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]Result(nil), res...)
	for i := 0; i < 25; i++ {
		if _, err := ix.Search(ctx, Query{Series: randQuery(rng, 32), K: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range snapshot {
		if res[i] != snapshot[i] {
			t.Fatalf("result %d mutated by later searches: %v != %v (Search must copy)", i, res[i], snapshot[i])
		}
	}
}

// SearchInto appends into the caller's buffer: same backing array across
// calls (the documented overwrite semantics), zero allocations once warm.
func TestSearchIntoReusesBuffer(t *testing.T) {
	ix, _, rng := buildFixture(t, 500, 32, Workers(1))
	ctx := context.Background()
	q := randQuery(rng, 32)
	buf := make([]Result, 0, 16)
	r1, err := ix.SearchInto(ctx, Query{Series: q, K: 10}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 10 || &r1[0] != &buf[:1][0] {
		t.Fatal("SearchInto must append into the provided buffer")
	}
	r2, err := ix.SearchInto(ctx, Query{Series: randQuery(rng, 32), K: 10}, r1)
	if err != nil {
		t.Fatal(err)
	}
	if &r2[0] != &r1[0] {
		t.Fatal("SearchInto with a reused buffer must reuse its backing array")
	}

	if raceEnabled {
		// The race detector makes sync.Pool randomly drop items, so the
		// allocation count below would be spuriously nonzero.
		return
	}
	warmQ := Query{Series: q, K: 10}
	res := r2
	avg := testing.AllocsPerRun(50, func() {
		var err error
		res, err = ix.SearchInto(ctx, warmQ, res)
		if err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state SearchInto allocates %v allocs/op, want 0", avg)
	}
}

// SearchBatch agrees with Search and supports mixed per-query k.
func TestSearchBatchMixedK(t *testing.T) {
	ix, _, rng := buildFixture(t, 500, 32, Shards(2))
	ctx := context.Background()
	qs := make([]Query, 12)
	for i := range qs {
		qs[i] = Query{Series: randQuery(rng, 32), K: 1 + i%5}
	}
	out, err := ix.SearchBatch(ctx, qs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if len(res) != qs[i].K {
			t.Fatalf("query %d: got %d results, want %d", i, len(res), qs[i].K)
		}
		single, err := ix.Search(ctx, qs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range single {
			if res[j] != single[j] {
				t.Fatalf("query %d rank %d: batch %v != single %v", i, j, res[j], single[j])
			}
		}
	}
}

// Two in-flight stream queries with different k must both return the
// correct result counts (the per-query-k regression the redesign enables).
func TestStreamPerQueryK(t *testing.T) {
	ix, _, rng := buildFixture(t, 500, 32)
	var mu sync.Mutex
	got := map[uint64]int{}
	st, err := ix.NewStream(4, func(qid uint64, res []Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("qid %d: %v", qid, err)
			return
		}
		got[qid] = len(res)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int{}
	// Alternate two k values so queries with different k overlap in flight.
	for i := 0; i < 40; i++ {
		k := 3
		if i%2 == 1 {
			k = 11
		}
		qid, err := st.Submit(Query{Series: randQuery(rng, 32), K: k})
		if err != nil {
			t.Fatal(err)
		}
		want[qid] = k
	}
	st.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("answered %d queries, want %d", len(got), len(want))
	}
	for qid, k := range want {
		if got[qid] != k {
			t.Errorf("qid %d: got %d results, want %d", qid, got[qid], k)
		}
	}
}

// WithStats surfaces the pruning counters.
func TestWithStats(t *testing.T) {
	ix, _, rng := buildFixture(t, 500, 32)
	var st SearchStats
	_, err := ix.Search(context.Background(), Query{Series: randQuery(rng, 32), K: 5}.With(WithStats(&st)))
	if err != nil {
		t.Fatal(err)
	}
	if st.SeriesED == 0 && st.SeriesLBD == 0 && st.NodesVisited == 0 {
		t.Error("WithStats recorded no work counters")
	}
}

// Save/Load round-trips through the public API, preserving answers.
func TestSaveLoadRoundTrip(t *testing.T) {
	ix, _, rng := buildFixture(t, 300, 32, Shards(2))
	ctx := context.Background()
	q := randQuery(rng, 32)
	want, err := ix.Search(ctx, Query{Series: q, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ix.sofa"
	if err := SaveFile(ix, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Search(ctx, Query{Series: q, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-5*(want[i].Dist+1) {
			t.Fatalf("rank %d: loaded %v != built %v", i, got[i], want[i])
		}
	}
}

// A deadline already expired at submit time is shed by the stream without
// executing the query.
func TestStreamShedsExpiredDeadline(t *testing.T) {
	ix, _, rng := buildFixture(t, 300, 32)
	var mu sync.Mutex
	errs := map[uint64]error{}
	st, err := ix.NewStream(2, func(qid uint64, res []Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		errs[qid] = err
	})
	if err != nil {
		t.Fatal(err)
	}
	qid, err := st.Submit(Query{Series: randQuery(rng, 32), K: 3}.With(Deadline(time.Now().Add(-time.Second))))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	mu.Lock()
	defer mu.Unlock()
	if !errors.Is(errs[qid], context.DeadlineExceeded) {
		t.Errorf("expired query answered with %v, want context.DeadlineExceeded", errs[qid])
	}
}
