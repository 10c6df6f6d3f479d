package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/scan"
	"repro/internal/sfa"
)

// splitCount sums the leaf splits every shard tree of ix has performed —
// zero for a collection decoded from a container.
func splitCount(ix *Index) int64 {
	var n int64
	for i := range ix.col.states {
		if t := ix.col.tree(i); t != nil {
			n += t.SplitCount()
		}
	}
	return n
}

// leafSets reduces a shape to what a rebuild from the same words must
// reproduce: the topology streams as they are, each leaf's membership sorted
// (in-leaf order depends on build parallelism) and the blocks, whose row
// order follows the in-leaf order, dropped.
func leafSets(s index.TreeShape) index.TreeShape {
	s.LeafBlocks = nil
	off := 0
	for _, n := range s.LeafCounts {
		leaf := s.IDs[off : off+int(n)]
		sort.Slice(leaf, func(a, b int) bool { return leaf[a] < leaf[b] })
		off += int(n)
	}
	return s
}

// TestLoadDirectDecode pins the load contract: loading a container performs
// zero leaf splits (direct shape decode), and the decoded tree of every
// shard is the tree a re-bucket + re-split of the same words builds — same
// topology, same leaf membership — across shard counts. LoadStats reports
// the container's version and size, and its decode and tree phases fit
// inside the total.
func TestLoadDirectDecode(t *testing.T) {
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
		var buf bytes.Buffer
		if err := Save(orig, &buf); err != nil {
			t.Fatal(err)
		}
		var st LoadStats
		loaded, err := LoadWithStats(bytes.NewReader(buf.Bytes()), &st)
		if err != nil {
			t.Fatal(err)
		}
		if st.Version != savedIndexVersion {
			t.Fatalf("S=%d: stats version %d, want %d", shards, st.Version, savedIndexVersion)
		}
		if n := splitCount(loaded); n != 0 {
			t.Errorf("S=%d: load performed %d splits, want 0", shards, n)
		}
		if st.Bytes != int64(buf.Len()) {
			t.Errorf("S=%d: stats read %d bytes of a %d-byte container", shards, st.Bytes, buf.Len())
		}
		if st.TotalSeconds <= 0 || st.DecodeSeconds <= 0 {
			t.Errorf("S=%d: empty phase timings: %+v", shards, st)
		}
		if st.TotalSeconds < st.DecodeSeconds+st.TreeSeconds {
			t.Errorf("S=%d: phases exceed total: %+v", shards, st)
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("S=%d: loaded invariants: %v", shards, err)
		}
		col := loaded.Collection()
		for i := 0; i < shards; i++ {
			dec := col.tree(i)
			rebuilt, err := index.BuildFromWords(col.state(i).data, dec.Sum(), col.shardOptions(), dec.Words())
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt.SplitCount() == 0 {
				t.Errorf("S=%d shard %d: rebuild reports zero splits; counter hook broken", shards, i)
			}
			if !reflect.DeepEqual(leafSets(dec.Shape()), leafSets(rebuilt.Shape())) {
				t.Errorf("S=%d shard %d: decoded tree differs from a rebuild from the same words", shards, i)
			}
		}

		// A loaded index keeps accepting inserts and stays coherent.
		if _, err := loaded.Insert(queries.Row(0)); err != nil {
			t.Fatal(err)
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Errorf("S=%d: invariants after post-load insert: %v", shards, err)
		}
	}
}

// TestLoadMatchesFreshBuild: a save/load round trip answers like the index
// it was saved from (S ∈ {1,4}, k ∈ {1,10}; data
// round-trips through float32, so distances carry the usual tolerance).
func TestLoadMatchesFreshBuild(t *testing.T) {
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
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n := splitCount(loaded); n != 0 {
				t.Errorf("%v S=%d: load split %d leaves", method, shards, n)
			}
			so, sl := orig.Stats(), loaded.Stats()
			if so != sl {
				t.Errorf("%v S=%d: structure changed across the round trip: %+v vs %+v", method, shards, so, sl)
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
// a root-fanout boundary via Insert after the original build: the
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
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("loading post-insert container: %v", err)
	}
	if n := splitCount(loaded); n != 0 {
		t.Errorf("load re-split %d leaves", n)
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

// TestLoadDetectsPayloadBitFlips flips single bytes across a valid
// container: every flip must fail the load — gob framing catches structural
// damage, the CRC-32C payload checksums catch flips inside the data and
// shape buffers, which would otherwise load cleanly and silently change
// answers.
func TestLoadDetectsPayloadBitFlips(t *testing.T) {
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
	// A flip inside a shard's leaf blocks: the tree checks block rows only
	// against its prefixes, so the shard's checksum is what must refuse it.
	for shard := 0; shard < ix.Shards(); shard++ {
		_, err := Load(bytes.NewReader(corruptShardPayload(t, blob, ix, shard)))
		if want := fmt.Sprintf("shard %d payload checksum mismatch", shard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("leaf block flip in shard %d: %v, want %q", shard, err, want)
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

// TestLoadRejectsOtherVersions: a container in any version but the current
// one is refused with ErrUnsupportedVersion on its header alone — whether it
// is an older layout (including the fields only those carried) or a newer
// one.
func TestLoadRejectsOtherVersions(t *testing.T) {
	encode := func(v any) *bytes.Buffer {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	for v := 0; v <= savedIndexVersion+1; v++ {
		if v == savedIndexVersion {
			continue
		}
		_, err := Load(encode(&savedIndex{Version: v, Method: SOFA, WordLength: 16, Count: 10}))
		if !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("version %d: %v, want ErrUnsupportedVersion", v, err)
		}
	}
	legacy := struct {
		Version int
		Count   int
		Data    []float32
		Words   []byte
	}{Version: 1, Count: 2, Data: []float32{1, 2}, Words: []byte{3, 4}}
	if _, err := Load(encode(&legacy)); !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("legacy-shaped version 1 container: %v, want ErrUnsupportedVersion", err)
	}
}

// forgeContainer saves ix, applies mutate to the decoded container,
// recomputes both checksum tiers and re-encodes it: a forgery only the
// load's own validation can refuse.
func forgeContainer(t *testing.T, ix *Index, mutate func(*savedIndex)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	var s savedIndex
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		t.Fatal(err)
	}
	mutate(&s)
	for i := range s.ShardShapes {
		s.ShardChecksums[i] = shardChecksum(s.ShardShapes[i])
	}
	s.Checksum = globalChecksum(&s)
	var forged bytes.Buffer
	if err := gob.NewEncoder(&forged).Encode(&s); err != nil {
		t.Fatal(err)
	}
	return &forged
}

// TestLoadRejectsSubByteSymbolBits: a symbol is a byte, so a container that
// declares another width — in its header, its SFA state or a shard's
// re-learned state — is refused under valid checksums by the container's
// own checks, before any tree is decoded. The states are real 7-bit ones,
// which FromState would accept on their own.
func TestLoadRejectsSubByteSymbolBits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := mixedMatrix(rng, 200, 32)
	ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	q7, err := sfa.Learn(data, sfa.Options{Bits: 7, SampleRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	st7 := q7.State()
	for name, c := range map[string]struct {
		mutate func(*savedIndex)
		want   string
	}{
		"header":               {func(s *savedIndex) { s.Bits = 7 }, "corrupt symbol bits 7"},
		"collection SFA state": {func(s *savedIndex) { s.SFA = &st7 }, "SFA state for series length 32 at 7 bits"},
		"shard SFA state": {func(s *savedIndex) {
			s.ShardSFA = []*sfa.State{{}, &st7}
		}, "shard 1 SFA state for series length 32 at 7 bits"},
	} {
		if _, err := Load(forgeContainer(t, ix, c.mutate)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s at 7 bits: %v, want an error containing %q", name, err, c.want)
		}
	}
}

// TestLoadAcceptsEverySymbolByte: every byte is a symbol. Learned from the
// whole collection, equi-width bins put each position's largest value in
// the top bin, so the leaf blocks hold symbol 255 (and 0); the container
// loads, and the loaded index answers exactly what a scan of its own rows
// answers.
func TestLoadAcceptsEverySymbolByte(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	ix, err := Build(mixedMatrix(rng, 300, 32), Config{Method: SOFA, LeafCapacity: 16, SampleRate: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var top, bottom int
	for i := range ix.col.states {
		for _, w := range ix.col.tree(i).Shape().LeafBlocks {
			switch w {
			case 255:
				top++
			case 0:
				bottom++
			}
		}
	}
	if top == 0 || bottom == 0 {
		t.Fatalf("leaf blocks hold symbol 255 %d times and 0 %d times, want both", top, bottom)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("container with symbol 255: %v", err)
	}
	rows := distance.NewMatrix(loaded.Len(), loaded.SeriesLen())
	for i := 0; i < loaded.Len(); i++ {
		copy(rows.Row(i), loaded.Row(i))
	}
	sc, err := scan.New(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := loaded.NewSearcher()
	queries := mixedMatrix(rng, 10, 32)
	for qi := 0; qi < queries.Len(); qi++ {
		got, err := s.Search(queries.Row(qi), 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sc.Search(queries.Row(qi), 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: loaded index %v, scan %v", qi, got, want)
		}
	}
}
