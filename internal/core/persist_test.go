package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/sfa"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	data := mixedMatrix(rng, 500, 96)
	queries := mixedMatrix(rng, 15, 96)
	for _, method := range []Method{SOFA, MESSI} {
		orig, err := Build(data, Config{Method: method, LeafCapacity: 32, SampleRate: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(orig, &buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Method() != method || loaded.Len() != 500 || loaded.SeriesLen() != 96 {
			t.Fatalf("%v: loaded header mismatch", method)
		}
		// Tree structure survives the round trip.
		so, sl := orig.Stats(), loaded.Stats()
		if so.Subtrees != sl.Subtrees || so.Leaves != sl.Leaves {
			t.Errorf("%v: structure changed: %+v vs %+v", method, so, sl)
		}
		// Queries agree (tolerance: data round-trips through float32).
		os, ls := orig.NewSearcher(), loaded.NewSearcher()
		for qi := 0; qi < queries.Len(); qi++ {
			a, err := os.Search(queries.Row(qi), 5)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ls.Search(queries.Row(qi), 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if math.Abs(a[i].Dist-b[i].Dist) > 1e-4*(a[i].Dist+1) {
					t.Fatalf("%v query %d rank %d: %+v vs %+v", method, qi, i, a[i], b[i])
				}
			}
		}
		// Loaded index remains exact against its own (f32-rounded) data.
		r, err := ls.Search1(loaded.Row(3))
		if err != nil {
			t.Fatal(err)
		}
		if r.Dist > 1e-9 {
			t.Errorf("%v: self query on loaded index: %v", method, r.Dist)
		}
	}
}

// A sharded collection must survive the container round-trip: shard count
// preserved, per-shard trees decoded (in parallel) from the per-shard
// payloads, answers identical to the saved index.
func TestSaveLoadSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	data := mixedMatrix(rng, 600, 96)
	queries := mixedMatrix(rng, 10, 96)
	for _, method := range []Method{SOFA, MESSI} {
		orig, err := Build(data, Config{Method: method, LeafCapacity: 32, SampleRate: 0.2, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(orig, &buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Shards() != 4 {
			t.Fatalf("%v: loaded %d shards, want 4", method, loaded.Shards())
		}
		if loaded.Len() != 600 || loaded.SeriesLen() != 96 {
			t.Fatalf("%v: loaded header mismatch", method)
		}
		so, sl := orig.Stats(), loaded.Stats()
		if so.Subtrees != sl.Subtrees || so.Leaves != sl.Leaves {
			t.Errorf("%v: structure changed: %+v vs %+v", method, so, sl)
		}
		os, ls := orig.NewSearcher(), loaded.NewSearcher()
		for qi := 0; qi < queries.Len(); qi++ {
			a, err := os.Search(queries.Row(qi), 5)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ls.Search(queries.Row(qi), 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if math.Abs(a[i].Dist-b[i].Dist) > 1e-4*(a[i].Dist+1) {
					t.Fatalf("%v query %d rank %d: %+v vs %+v", method, qi, i, a[i], b[i])
				}
			}
		}
		// Global-id round trip: a loaded shard answers self-queries under the
		// original global ids.
		r, err := ls.Search1(loaded.Row(17))
		if err != nil {
			t.Fatal(err)
		}
		if int(r.ID) != 17 || r.Dist > 1e-9 {
			t.Errorf("%v: self query on loaded shard returned %+v", method, r)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	data := mixedMatrix(rng, 200, 64)
	ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.sofa")
	if err := SaveFile(ix, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 200 {
		t.Errorf("loaded %d series", loaded.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestLoadRejectsCorruptStreams(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("expected decode error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("expected EOF error")
	}
	// A structurally valid gob with inconsistent lengths must be rejected.
	rng := rand.New(rand.NewSource(63))
	data := mixedMatrix(rng, 50, 32)
	ix, err := Build(data, Config{Method: MESSI, LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	// Truncate: gob decode fails cleanly.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("expected truncation error")
	}
}

// An SFA state that checksums cleanly but could not lower-bound — or that
// describes rows of another length — fails the load instead of answering.
func TestLoadRejectsForgedSFAState(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	ix, err := Build(mixedMatrix(rng, 120, 64), Config{Method: SOFA, LeafCapacity: 16, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	for name, forge := range map[string]func(st *sfa.State){
		"series length":   func(st *sfa.State) { st.N *= 2 },
		"duplicate index": func(st *sfa.State) { st.Indices[1], st.Weights[1] = st.Indices[0], st.Weights[0] },
		"over-weighted":   func(st *sfa.State) { st.Weights[0] *= 2 },
	} {
		var s savedIndex
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&s); err != nil {
			t.Fatal(err)
		}
		forge(s.SFA)
		s.Checksum = globalChecksum(&s)
		var forged bytes.Buffer
		if err := gob.NewEncoder(&forged).Encode(&s); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&forged); err == nil {
			t.Errorf("%s: forged SFA state loaded", name)
		}
	}
}

// A compaction that re-learns the SFA quantization of only SOME shards must
// stay savable: the per-shard states are a slice gob cannot encode with nil
// holes ("gob: encodeArray: nil element"), so shards that share the
// collection's quantization are written as an empty state and read back as
// such. S=4, exactly one shard re-learned; the loaded collection must mark
// the same shard, keep the bounds of every shard valid in its own space —
// same neighbours, distances equal up to the container's float32 rows, as
// for any load — and stay savable itself.
func TestSaveLoadPartiallyRelearned(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	data := mixedMatrix(rng, 800, 64)
	queries := mixedMatrix(rng, 12, 64)
	cfg := Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.5, Shards: 4, Workers: 1}
	cfg.Compaction.RelearnChurnFraction = 0.05
	orig, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const relearned = 2
	for local := 0; local < 40; local++ {
		if err := orig.Delete(index.ID(local*cfg.Shards + relearned)); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.CompactShard(relearned); err != nil {
		t.Fatal(err)
	}
	if got := orig.Collection().relearns.Load(); got != 1 {
		t.Fatalf("%d shards re-learned, want exactly 1 — the test lost its subject", got)
	}
	var buf bytes.Buffer
	if err := Save(orig, &buf); err != nil {
		t.Fatalf("saving a partially re-learned collection: %v", err)
	}
	if err := SaveFile(orig, filepath.Join(t.TempDir(), "partial.sofa")); err != nil {
		t.Fatalf("SaveFile of a partially re-learned collection: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Shards; i++ {
		want := orig.Collection().state(i).relearned
		if got := loaded.Collection().state(i).relearned; got != want || want != (i == relearned) {
			t.Errorf("shard %d: re-learned marker %v after load, %v before, want %v", i, got, want, i == relearned)
		}
	}
	so, sl := orig.NewSearcher(), loaded.NewSearcher()
	for qi := 0; qi < queries.Len(); qi++ {
		a, err := so.Search(queries.Row(qi), 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sl.Search(queries.Row(qi), 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: %d results before, %d after load", qi, len(a), len(b))
		}
		for r := range a {
			if a[r].ID != b[r].ID || math.Abs(a[r].Dist-b[r].Dist) > 1e-4*(a[r].Dist+1) {
				t.Fatalf("query %d rank %d: %+v in memory, %+v after load", qi, r, a[r], b[r])
			}
		}
	}
	var again bytes.Buffer
	if err := Save(loaded, &again); err != nil {
		t.Fatal(err)
	}
	if reloaded, err := Load(bytes.NewReader(again.Bytes())); err != nil {
		t.Fatalf("container of the loaded collection does not load: %v", err)
	} else if !reloaded.Collection().state(relearned).relearned {
		t.Error("re-learned marker lost on the second round trip")
	}
}
