package core

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/distance"
	"repro/internal/index"
)

// The persist-compat golden suite: small containers written by earlier
// builds, checked in under testdata/ together with the query answers they
// must keep producing. TestPersistCompatGolden is the CI gate — it fails on
// any format drift (a fixture stops loading) or result drift (a fixture loads
// but answers differently). Regenerate fixtures ONLY for an intentional,
// documented format change:
//
//	go test ./internal/core/ -run TestRegenPersistGolden -regen-golden
var regenGolden = flag.Bool("regen-golden", false, "rewrite the golden persistence fixtures under testdata/")

// goldenMatrix is the frozen fixture generator. It must never change: the
// checked-in expected results were computed over exactly these series.
// (mixedMatrix is similar but test-local and free to evolve; this one is
// part of the compatibility contract.)
func goldenMatrix(seed int64, count, n int) *distance.Matrix {
	rng := rand.New(rand.NewSource(seed))
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
			f := 2 + rng.Float64()*float64(n/4)
			for j := range row {
				row[j] = math.Sin(2*math.Pi*f*float64(j)/float64(n)) + 0.3*rng.NormFloat64()
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

const (
	goldenSeries    = 256
	goldenLength    = 48
	goldenDataSeed  = 1001
	goldenQuerySeed = 1002
	goldenQueries   = 8
	goldenK         = 5
)

func goldenQuerySet() *distance.Matrix {
	return goldenMatrix(goldenQuerySeed, goldenQueries, goldenLength)
}

// goldenFixtureSpec describes one checked-in container. Mutate applies the
// frozen mutation script before saving, so the fixture carries tombstones
// and remapped ids.
type goldenFixtureSpec struct {
	File   string
	Build  Config
	Mutate bool
}

func goldenFixtureSpecs() []goldenFixtureSpec {
	build := Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.25, Shards: 2}
	return []goldenFixtureSpec{
		{File: "golden_v5.sofa", Build: build},
		{File: "golden_v5_churn.sofa", Build: build, Mutate: true},
	}
}

// goldenMutate is the frozen mutation script of the churned fixture: a
// fixed interleave of inserts, deletes, and upserts. Like goldenMatrix it
// must never change — the checked-in answers were computed after exactly
// this history.
func goldenMutate(tb testing.TB, ix *Index) {
	tb.Helper()
	extra := goldenMatrix(1003, 12, goldenLength)
	for i := 0; i < 4; i++ {
		if _, err := ix.Insert(extra.Row(i)); err != nil {
			tb.Fatal(err)
		}
	}
	for _, id := range []int64{3, 17, 100, 101, 200, 257} {
		if err := ix.Delete(index.ID(id)); err != nil {
			tb.Fatal(err)
		}
	}
	for i, id := range []int64{5, 50, 150, 258} {
		if err := ix.Upsert(index.ID(id), extra.Row(4+i)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 8; i < 12; i++ {
		if _, err := ix.Insert(extra.Row(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ix.Delete(index.ID(261)); err != nil {
		tb.Fatal(err)
	}
}

// goldenResult / goldenExpected mirror testdata/golden_expected.json.
type goldenResult struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

type goldenFixtureExpected struct {
	File    string           `json:"file"`
	Version int              `json:"version"`
	Method  string           `json:"method"`
	Shards  int              `json:"shards"`
	Results [][]goldenResult `json:"results"` // [query][rank]
}

type goldenExpected struct {
	Series   int                     `json:"series"`
	Length   int                     `json:"length"`
	Queries  int                     `json:"queries"`
	K        int                     `json:"k"`
	Fixtures []goldenFixtureExpected `json:"fixtures"`
}

// goldenAnswers runs the fixed query set against a loaded fixture.
func goldenAnswers(tb testing.TB, ix *Index) [][]goldenResult {
	tb.Helper()
	queries := goldenQuerySet()
	s := ix.NewSearcher()
	out := make([][]goldenResult, queries.Len())
	for qi := 0; qi < queries.Len(); qi++ {
		res, err := s.Search(queries.Row(qi), goldenK)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range res {
			out[qi] = append(out[qi], goldenResult{ID: int32(r.ID), Dist: r.Dist})
		}
	}
	return out
}

// regenGoldenFixture builds spec's index and writes it to path.
func regenGoldenFixture(t *testing.T, data *distance.Matrix, spec goldenFixtureSpec, path string) {
	t.Helper()
	cfg := spec.Build
	cfg.Seed = 1
	ix, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mutate {
		goldenMutate(t, ix)
	}
	if err := SaveFile(ix, path); err != nil {
		t.Fatal(err)
	}
}

func TestRegenPersistGolden(t *testing.T) {
	if !*regenGolden {
		t.Skip("pass -regen-golden to rewrite the golden fixtures")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	data := goldenMatrix(goldenDataSeed, goldenSeries, goldenLength)
	exp := goldenExpected{Series: goldenSeries, Length: goldenLength, Queries: goldenQueries, K: goldenK}
	for _, spec := range goldenFixtureSpecs() {
		path := filepath.Join("testdata", spec.File)
		regenGoldenFixture(t, data, spec, path)
		// Expected answers come from the loaded fixture, not the in-memory
		// build: loading is what CI replays, and the f32 round trip shifts
		// distances slightly.
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		exp.Fixtures = append(exp.Fixtures, goldenFixtureExpected{
			File:    spec.File,
			Version: savedIndexVersion,
			Method:  loaded.Method().String(),
			Shards:  loaded.Shards(),
			Results: goldenAnswers(t, loaded),
		})
	}
	blob, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "golden_expected.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("golden fixtures regenerated; commit testdata/ and document the format change")
}

// TestPersistCompatGolden is the compatibility gate: every checked-in
// container must keep loading and keep answering the fixed-seed queries
// exactly as recorded. It runs under both build variants (the
// persist-compat CI job repeats it with -tags noasm).
func TestPersistCompatGolden(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "golden_expected.json"))
	if err != nil {
		t.Fatalf("golden fixtures missing (regenerate with -regen-golden): %v", err)
	}
	var exp goldenExpected
	if err := json.Unmarshal(blob, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Series != goldenSeries || exp.Length != goldenLength || exp.Queries != goldenQueries || exp.K != goldenK {
		t.Fatalf("golden_expected.json header %+v does not match the frozen generator constants", exp)
	}
	if len(exp.Fixtures) != len(goldenFixtureSpecs()) {
		t.Fatalf("%d fixtures recorded, %d specified", len(exp.Fixtures), len(goldenFixtureSpecs()))
	}
	for _, fx := range exp.Fixtures {
		t.Run(fx.File, func(t *testing.T) {
			var st LoadStats
			f, err := os.Open(filepath.Join("testdata", fx.File))
			if err != nil {
				t.Fatalf("fixture unreadable: %v", err)
			}
			defer f.Close()
			ix, err := LoadWithStats(f, &st)
			if err != nil {
				t.Fatalf("format drift: %v", err)
			}
			if st.Version != fx.Version {
				t.Fatalf("loaded container version %d, recorded %d", st.Version, fx.Version)
			}
			if ix.Shards() != fx.Shards || ix.Method().String() != fx.Method {
				t.Fatalf("loaded %s/%d shards, recorded %s/%d", ix.Method(), ix.Shards(), fx.Method, fx.Shards)
			}
			if n := splitCount(ix); n != 0 {
				t.Errorf("fixture load performed %d splits, want 0", n)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("loaded fixture violates invariants: %v", err)
			}
			got := goldenAnswers(t, ix)
			for qi, want := range fx.Results {
				if len(got[qi]) != len(want) {
					t.Fatalf("query %d: %d results, recorded %d", qi, len(got[qi]), len(want))
				}
				for rank, w := range want {
					g := got[qi][rank]
					if g.ID != w.ID {
						t.Errorf("result drift: query %d rank %d id %d, recorded %d", qi, rank, g.ID, w.ID)
					}
					if math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
						t.Errorf("result drift: query %d rank %d dist %v, recorded %v", qi, rank, g.Dist, w.Dist)
					}
				}
			}
		})
	}
}
