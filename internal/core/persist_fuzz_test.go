package core

import (
	"bytes"
	"testing"
)

// fuzzSeedContainers builds small valid containers (one to three shards,
// each fresh and after the golden churn script, so tombstone bitmaps and id
// tables are present) to seed the corpus with structurally meaningful bytes
// the mutator can corrupt.
func fuzzSeedContainers(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, c := range []Config{
		{Method: MESSI, LeafCapacity: 16},
		{Method: SOFA, LeafCapacity: 16, SampleRate: 0.3, Shards: 3},
		{Method: SOFA, LeafCapacity: 16, SampleRate: 0.3, Shards: 2},
	} {
		for _, churn := range []bool{false, true} {
			ix, err := Build(goldenMatrix(91, goldenSeries, goldenLength), c)
			if err != nil {
				tb.Fatal(err)
			}
			if churn {
				goldenMutate(tb, ix)
			}
			var buf bytes.Buffer
			if err := Save(ix, &buf); err != nil {
				tb.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
	}
	return out
}

// FuzzLoadCorrupt feeds Load arbitrary (mostly corrupted-container) bytes:
// every input must either load into a coherent index or return an error —
// never panic, and never allocate from forged header sizes (the header
// bounds in Load cap every size computation before it is trusted). Wired
// into the kernel-parity CI job's fuzz block for a continuous short pass.
func FuzzLoadCorrupt(f *testing.F) {
	seeds := fuzzSeedContainers(f)
	for _, s := range seeds {
		f.Add(s)
		// Classic corruptions as explicit seeds: truncations and bit flips
		// spread over the type descriptor, header, data and shard payloads.
		f.Add(s[:len(s)/2])
		f.Add(s[:len(s)-7])
		for _, off := range []int{10, len(s) / 6, len(s) / 3, len(s) / 2, 5 * len(s) / 6, len(s) - 20} {
			flipped := append([]byte(nil), s...)
			flipped[off] ^= 0x41
			f.Add(flipped)
		}
	}
	f.Add([]byte("not a gob stream"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		if len(blob) > 1<<20 {
			t.Skip("corrupting small containers; large inputs only slow the mutator")
		}
		ix, err := Load(bytes.NewReader(blob))
		if err != nil {
			return // rejected cleanly: the only acceptable failure mode
		}
		// The rare mutation that still decodes must yield a coherent index.
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("loaded container violates invariants: %v", err)
		}
		q := make([]float64, ix.SeriesLen())
		for i := range q {
			q[i] = float64(i%7) - 3
		}
		if _, err := ix.NewSearcher().Search(q, 3); err != nil {
			t.Fatalf("loaded container cannot answer queries: %v", err)
		}
	})
}
