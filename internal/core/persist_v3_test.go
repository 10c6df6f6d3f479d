package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestLoadV3DirectDecode pins the version-3 contract: loading a v3
// container performs zero leaf splits (direct shape decode), while the same
// index saved as v2 re-splits every shard tree — and both loads answer
// every query bit-identically, across shard counts.
func TestLoadV3DirectDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := mixedMatrix(rng, 700, 96)
	queries := mixedMatrix(rng, 12, 96)
	for _, shards := range []int{1, 2, 8} {
		orig, err := Build(data, Config{
			Method: SOFA, LeafCapacity: 32, SampleRate: 0.2, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		var v2buf, v3buf bytes.Buffer
		if err := SaveVersion(orig, &v2buf, 2); err != nil {
			t.Fatal(err)
		}
		if err := SaveVersion(orig, &v3buf, 3); err != nil {
			t.Fatal(err)
		}
		// v3 packs the series data as raw float32 bytes, which undercuts
		// gob's per-element float encoding by enough to pay for the tree
		// shapes; the container should not balloon.
		if v3buf.Len() > 2*v2buf.Len() {
			t.Errorf("S=%d: v3 container %d B vs v2 %d B", shards, v3buf.Len(), v2buf.Len())
		}

		var st2, st3 LoadStats
		l2, err := LoadWithStats(bytes.NewReader(v2buf.Bytes()), &st2)
		if err != nil {
			t.Fatal(err)
		}
		l3, err := LoadWithStats(bytes.NewReader(v3buf.Bytes()), &st3)
		if err != nil {
			t.Fatal(err)
		}
		if st2.Version != 2 || st3.Version != 3 {
			t.Fatalf("S=%d: stats versions %d/%d, want 2/3", shards, st2.Version, st3.Version)
		}
		if st3.Splits != 0 {
			t.Errorf("S=%d: v3 load performed %d splits, want 0", shards, st3.Splits)
		}
		if got := l3.Collection().SplitCount(); got != 0 {
			t.Errorf("S=%d: v3-loaded collection reports %d splits", shards, got)
		}
		if st2.Splits == 0 {
			t.Errorf("S=%d: v2 load reports zero splits; counter hook broken", shards)
		}
		if st3.Bytes != int64(v3buf.Len()) {
			t.Errorf("S=%d: stats read %d bytes of a %d-byte container", shards, st3.Bytes, v3buf.Len())
		}
		if err := l3.CheckInvariants(); err != nil {
			t.Fatalf("S=%d: v3-loaded invariants: %v", shards, err)
		}

		// Both loads see the identical f32-rounded data and identical tree
		// membership, so their answers must agree bit for bit.
		s2, s3 := l2.NewSearcher(), l3.NewSearcher()
		for qi := 0; qi < queries.Len(); qi++ {
			for _, k := range []int{1, 10} {
				a, err := s2.Search(queries.Row(qi), k)
				if err != nil {
					t.Fatal(err)
				}
				b, err := s3.Search(queries.Row(qi), k)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("S=%d q=%d k=%d: %d vs %d results", shards, qi, k, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("S=%d q=%d k=%d rank %d: v2 %+v vs v3 %+v",
							shards, qi, k, i, a[i], b[i])
					}
				}
			}
		}

		// A v3-loaded index keeps accepting inserts and stays coherent.
		if _, err := l3.Insert(queries.Row(0)); err != nil {
			t.Fatal(err)
		}
		if err := l3.CheckInvariants(); err != nil {
			t.Errorf("S=%d: invariants after post-load insert: %v", shards, err)
		}
	}
}

// TestLoadV3MatchesFreshBuild is the tentpole regression: a v3 round trip
// answers like the index it was saved from (S ∈ {1,4}, k ∈ {1,10}; data
// round-trips through float32, so distances carry the usual tolerance).
func TestLoadV3MatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	data := mixedMatrix(rng, 600, 96)
	queries := mixedMatrix(rng, 10, 96)
	for _, method := range []Method{SOFA, MESSI} {
		for _, shards := range []int{1, 4} {
			orig, err := Build(data, Config{Method: method, LeafCapacity: 32, SampleRate: 0.2, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Save(orig, &buf); err != nil {
				t.Fatal(err)
			}
			var st LoadStats
			loaded, err := LoadWithStats(&buf, &st)
			if err != nil {
				t.Fatal(err)
			}
			if st.Splits != 0 {
				t.Errorf("%v S=%d: v3 load split %d leaves", method, shards, st.Splits)
			}
			so, sl := orig.Stats(), loaded.Stats()
			if so != sl {
				t.Errorf("%v S=%d: structure changed across v3 round trip: %+v vs %+v", method, shards, so, sl)
			}
			os, ls := orig.NewSearcher(), loaded.NewSearcher()
			for qi := 0; qi < queries.Len(); qi++ {
				for _, k := range []int{1, 10} {
					a, err := os.Search(queries.Row(qi), k)
					if err != nil {
						t.Fatal(err)
					}
					b, err := ls.Search(queries.Row(qi), k)
					if err != nil {
						t.Fatal(err)
					}
					for i := range a {
						if math.Abs(a[i].Dist-b[i].Dist) > 1e-4*(a[i].Dist+1) {
							t.Fatalf("%v S=%d q=%d k=%d rank %d: %+v vs %+v", method, shards, qi, k, i, a[i], b[i])
						}
					}
				}
			}
		}
	}
}

// TestSaveLoadAfterFanoutGrowth saves an index whose collection grew across
// a root-fanout boundary via Insert after the original build: the v3
// container must still load (the shape carries the build-time fan-out) and
// answer exactly like the in-memory index.
func TestSaveLoadAfterFanoutGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	ix, err := Build(mixedMatrix(rng, 100, 64), Config{Method: MESSI, LeafCapacity: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	extra := mixedMatrix(rng, 400, 64)
	for i := 0; i < extra.Len(); i++ {
		if _, err := ix.Insert(extra.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	var st LoadStats
	loaded, err := LoadWithStats(&buf, &st)
	if err != nil {
		t.Fatalf("loading post-insert v3 container: %v", err)
	}
	if st.Splits != 0 {
		t.Errorf("v3 load re-split %d leaves", st.Splits)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	a, err := ix.NewSearcher().Search(extra.Row(7), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.NewSearcher().Search(extra.Row(7), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-4*(a[i].Dist+1) {
			t.Fatalf("rank %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestLoadV3DetectsPayloadBitFlips flips single bytes across a valid v3
// container: every flip must fail the load — gob framing catches structural
// damage, the CRC-32C payload checksum catches flips inside the data, word
// and shape buffers, which would otherwise load cleanly and silently change
// answers.
func TestLoadV3DetectsPayloadBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	ix, err := Build(mixedMatrix(rng, 120, 32), Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// A spread of offsets across the container, hitting header, data, words
	// and shape regions.
	for _, off := range []int{50, len(blob) / 4, len(blob) / 2, 3 * len(blob) / 4, len(blob) - 50} {
		flipped := append([]byte(nil), blob...)
		flipped[off] ^= 0x10
		if _, err := Load(bytes.NewReader(flipped)); err == nil {
			t.Errorf("bit flip at offset %d/%d loaded without error", off, len(blob))
		}
	}
	// The unflipped container still loads.
	if _, err := Load(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
}

// TestLoadStatsBytesWithTrailingData pins LoadStats.Bytes to the container
// size even when the reader carries more data after it (concatenated
// containers, network streams): bufio read-ahead must not be counted.
func TestLoadStatsBytesWithTrailingData(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	ix, err := Build(mixedMatrix(rng, 80, 32), Config{Method: MESSI, LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	buf.WriteString("trailing payload beyond the container")
	var st LoadStats
	if _, err := LoadWithStats(bytes.NewReader(buf.Bytes()), &st); err != nil {
		t.Fatal(err)
	}
	if st.Bytes != int64(n) {
		t.Errorf("stats counted %d bytes for a %d-byte container with trailing data", st.Bytes, n)
	}
}

// TestSaveVersionValidation rejects unknown container versions at write
// time.
func TestSaveVersionValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ix, err := Build(mixedMatrix(rng, 60, 32), Config{Method: MESSI, LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 6} {
		if err := SaveVersion(ix, &bytes.Buffer{}, v); err == nil {
			t.Errorf("SaveVersion accepted version %d", v)
		}
	}
}
