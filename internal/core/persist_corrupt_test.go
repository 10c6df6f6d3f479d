package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corruptShardPayload flips one byte inside shard i's leaf blocks within a
// saved container. Gob encodes byte slices as contiguous raw bytes, so the
// shard's blocks appear verbatim in the blob; flipping inside that run
// damages exactly one shard's payload (covered by its per-shard checksum,
// outside the global checksum).
func corruptShardPayload(tb testing.TB, blob []byte, ix *Index, shard int) []byte {
	tb.Helper()
	blocks := ix.Collection().tree(shard).Shape().LeafBlocks
	off := bytes.Index(blob, blocks)
	if off < 0 {
		tb.Fatalf("shard %d leaf blocks not found in container", shard)
	}
	out := append([]byte(nil), blob...)
	out[off+len(blocks)/2] ^= 0x20
	return out
}

// TestLoadCorruptShardFails is the all-or-nothing load contract: a
// container with one corrupt shard payload fails to load, the error names
// that shard, and the file is left byte-identical — an index missing a
// shard could not answer exactly, so none is returned.
func TestLoadCorruptShardFails(t *testing.T) {
	rng := rand.New(rand.NewSource(821))
	const shards = 4
	orig, err := Build(mixedMatrix(rng, 600, 64), Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(orig, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("clean container: %v", err)
	}
	path := filepath.Join(t.TempDir(), "corrupt.idx")
	for bad := 0; bad < shards; bad++ {
		corrupted := corruptShardPayload(t, buf.Bytes(), orig, bad)
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := LoadFile(path)
		if err == nil || ix != nil {
			t.Fatalf("shard %d corrupt: load returned (%v, %v), want (nil, error)", bad, ix, err)
		}
		if want := fmt.Sprintf("shard %d ", bad); !strings.Contains(err.Error(), want) {
			t.Fatalf("shard %d corrupt: error %q does not name the shard", bad, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, corrupted) {
			t.Fatalf("shard %d corrupt: the failed load modified the file", bad)
		}
	}
}

// TestLoadAllShardsCorruptFails: a container whose every shard is corrupt
// fails to load, naming the first corrupt shard.
func TestLoadAllShardsCorruptFails(t *testing.T) {
	rng := rand.New(rand.NewSource(822))
	ix, err := Build(mixedMatrix(rng, 200, 32), Config{Method: MESSI, LeafCapacity: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	blob := corruptShardPayload(t, buf.Bytes(), ix, 0)
	blob = corruptShardPayload(t, blob, ix, 1)
	if _, err := Load(bytes.NewReader(blob)); err == nil || !strings.Contains(err.Error(), "shard 0 ") {
		t.Fatalf("all-corrupt container: %v, want an error naming shard 0", err)
	}
}

// TestLoadGlobalCorruptionStillFails: corruption in the global region
// (header, SFA tables, series data), which no shard checksum covers, fails
// the load as well.
func TestLoadGlobalCorruptionStillFails(t *testing.T) {
	rng := rand.New(rand.NewSource(823))
	ix, err := Build(mixedMatrix(rng, 200, 32), Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// The series data region: locate a run of the f32-encoded data bytes.
	// Flipping there breaks the global checksum, not a shard checksum.
	sawFailure := false
	for _, off := range []int{64, 96, 128} {
		flipped := append([]byte(nil), blob...)
		flipped[off] ^= 0x08
		if _, err := Load(bytes.NewReader(flipped)); err != nil {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("early-container corruption never failed the load")
	}
}
