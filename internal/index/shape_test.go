package index

import (
	"math/rand"
	"testing"

	"repro/internal/distance"
)

// shapeFixture builds a small tree over random-walk data with a tight leaf
// capacity so the shape has real depth.
func shapeFixture(t *testing.T, n, length int, opts Options) (*Tree, *distance.Matrix, Summarization) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := distance.NewMatrix(n, length)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		v := 0.0
		for j := range row {
			v += rng.NormFloat64()
			row[j] = v
		}
	}
	data.ZNormalizeAll()
	sum := newSAXSum(t, length, 8)
	tree, err := Build(data, sum, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree, data, sum
}

func TestShapeRoundTrip(t *testing.T) {
	opts := Options{LeafCapacity: 16, Workers: 2}
	tree, data, sum := shapeFixture(t, 400, 64, opts)
	if tree.SplitCount() == 0 {
		t.Fatal("build performed no splits; fixture too small to exercise the shape")
	}
	shape := tree.Shape()
	dec, err := FromShape(data, sum, opts, shape)
	if err != nil {
		t.Fatalf("FromShape: %v", err)
	}
	if got := dec.SplitCount(); got != 0 {
		t.Errorf("decoded tree performed %d splits, want 0", got)
	}
	so, sd := tree.Stats(), dec.Stats()
	if so != sd {
		t.Errorf("stats diverge: %+v vs %+v", so, sd)
	}
	// The decode must reproduce the exact structure, not just one that
	// validates: re-exporting yields an identical shape.
	re := dec.Shape()
	if len(re.Splits) != len(shape.Splits) || len(re.IDs) != len(shape.IDs) {
		t.Fatalf("re-export shape size diverges")
	}
	for i := range shape.Splits {
		if re.Splits[i] != shape.Splits[i] {
			t.Fatalf("split stream diverges at %d", i)
		}
	}
	for i := range shape.IDs {
		if re.IDs[i] != shape.IDs[i] {
			t.Fatalf("leaf id order diverges at %d", i)
		}
	}
	// Queries agree bit-for-bit: same data, same words, same tree.
	rng := rand.New(rand.NewSource(8))
	for qi := 0; qi < 5; qi++ {
		q := make([]float64, 64)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		a, err := tree.NewSearcher().Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dec.NewSearcher().Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
	// A decoded tree keeps accepting inserts.
	series := make([]float64, 64)
	for j := range series {
		series[j] = rng.NormFloat64()
	}
	distance.ZNormalize(series)
	if _, err := dec.Insert(series, dec.Encoder()); err != nil {
		t.Fatal(err)
	}
	if err := dec.CheckInvariants(); err != nil {
		t.Errorf("invariants after post-load insert: %v", err)
	}
}

// TestShapeSurvivesFanoutGrowth pins the regression where a tree saved
// after Inserts grew the collection across a root-fanout boundary could not
// be decoded: the shape must carry the build-time RootBits, not re-derive
// it from the (now larger) data length.
func TestShapeSurvivesFanoutGrowth(t *testing.T) {
	opts := Options{LeafCapacity: 16, Workers: 1}
	tree, data, sum := shapeFixture(t, 100, 64, opts)
	before := tree.rootBits
	rng := rand.New(rand.NewSource(9))
	enc := tree.Encoder()
	for i := 0; i < 400; i++ {
		series := make([]float64, 64)
		v := 0.0
		for j := range series {
			v += rng.NormFloat64()
			series[j] = v
		}
		distance.ZNormalize(series)
		if _, err := tree.Insert(series, enc); err != nil {
			t.Fatal(err)
		}
	}
	if grown := rootFanoutBits(data.Len(), opts.LeafCapacity, tree.l); grown == before {
		t.Fatalf("fixture does not cross a fan-out boundary (%d bits before and after)", before)
	}
	shape := tree.Shape()
	if shape.RootBits != before {
		t.Fatalf("shape records %d root bits, tree built with %d", shape.RootBits, before)
	}
	dec, err := FromShape(data, sum, opts, shape)
	if err != nil {
		t.Fatalf("decoding post-insert tree: %v", err)
	}
	if dec.rootBits != before {
		t.Errorf("decoded tree has %d root bits, want %d", dec.rootBits, before)
	}
	if err := dec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// And the decoded tree keeps bucketing new inserts like the saved one.
	series := make([]float64, 64)
	for j := range series {
		series[j] = rng.NormFloat64()
	}
	distance.ZNormalize(series)
	if _, err := dec.Insert(series, dec.Encoder()); err != nil {
		t.Fatal(err)
	}
	if err := dec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFromShapeRejectsCorruptShapes drives the decoder through every
// validation branch with targeted mutations of a valid shape.
func TestFromShapeRejectsCorruptShapes(t *testing.T) {
	opts := Options{LeafCapacity: 16, Workers: 1}
	tree, data, sum := shapeFixture(t, 300, 64, opts)
	base := tree.Shape()

	mutations := map[string]func(s *TreeShape){
		"truncated node stream":  func(s *TreeShape) { s.Splits = s.Splits[:len(s.Splits)-1] },
		"extra node":             func(s *TreeShape) { s.Splits = append(s.Splits, -1) },
		"leaf becomes inner":     func(s *TreeShape) { s.Splits[len(s.Splits)-1] = 0 },
		"split out of range":     func(s *TreeShape) { s.Splits[0] = 64 },
		"negative leaf count":    func(s *TreeShape) { s.LeafCounts[0] = -1 },
		"oversized leaf count":   func(s *TreeShape) { s.LeafCounts[0] += 1000 },
		"shifted leaf count":     func(s *TreeShape) { s.LeafCounts[0]++; s.LeafCounts[1]-- },
		"duplicate id":           func(s *TreeShape) { s.IDs[0] = s.IDs[1] },
		"id out of range":        func(s *TreeShape) { s.IDs[0] = int32(len(s.IDs)) },
		"id far out of range":    func(s *TreeShape) { s.IDs[0] = 1 << 30 },
		"no blocks":              func(s *TreeShape) { s.LeafBlocks = nil },
		"empty blocks":           func(s *TreeShape) { s.LeafBlocks = []byte{} },
		"dropped id":             func(s *TreeShape) { s.IDs = s.IDs[:len(s.IDs)-1] },
		"unsorted root keys":     func(s *TreeShape) { s.RootKeys[0], s.RootKeys[1] = s.RootKeys[1], s.RootKeys[0] },
		"zero root bits":         func(s *TreeShape) { s.RootBits = 0 },
		"oversized root bits":    func(s *TreeShape) { s.RootBits = 65 },
		"oversized root key":     func(s *TreeShape) { s.RootKeys[0] = 1 << 63 },
		"truncated blocks":       func(s *TreeShape) { s.LeafBlocks = s.LeafBlocks[:len(s.LeafBlocks)-1] },
		"missing no-split flags": func(s *TreeShape) { s.LeafNoSplit = s.LeafNoSplit[:len(s.LeafNoSplit)-1] },
		// The top bit of the first row's first symbol is the first root
		// child's one-bit prefix at position 0. A flip below every prefix
		// decodes; the container's shard checksum is what catches it.
		"flipped prefix bit in block": func(s *TreeShape) { s.LeafBlocks[0] ^= 1 << (SymbolBits - 1) },
	}
	for name, mutate := range mutations {
		s := TreeShape{
			RootBits:    base.RootBits,
			RootKeys:    append([]uint64(nil), base.RootKeys...),
			Splits:      append([]int16(nil), base.Splits...),
			LeafCounts:  append([]int32(nil), base.LeafCounts...),
			LeafNoSplit: append([]bool(nil), base.LeafNoSplit...),
			IDs:         append([]int32(nil), base.IDs...),
			LeafBlocks:  append([]byte(nil), base.LeafBlocks...),
		}
		mutate(&s)
		if _, err := FromShape(data, sum, opts, s); err == nil {
			t.Errorf("%s: corrupt shape decoded without error", name)
		}
	}
	// The unmutated control must still decode.
	if _, err := FromShape(data, sum, opts, base); err != nil {
		t.Fatalf("control shape failed to decode: %v", err)
	}
}
