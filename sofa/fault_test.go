package sofa

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestLoadCorruptShardContainer drives the all-or-nothing load through the
// public API: save a sharded index, corrupt one shard's payload bytes, and
// verify Load refuses the container with an error naming the shard — an
// index missing a shard could not answer exactly.
func TestLoadCorruptShardContainer(t *testing.T) {
	ix, _, _ := buildFixture(t, 300, 32, Shards(3))
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// The container layout is opaque at this level, so probe for a byte
	// whose corruption fails a shard's payload checksum. Shard payloads
	// dominate the container, so a coarse scan finds one quickly.
	for off := len(blob) / 4; off < len(blob); off += 257 {
		cp := append([]byte(nil), blob...)
		cp[off] ^= 0x40
		loaded, err := Load(bytes.NewReader(cp))
		if err == nil || !strings.Contains(err.Error(), "payload checksum") {
			continue // flipped a don't-care byte, or broke the container's framing
		}
		if loaded != nil {
			t.Fatalf("failed load returned an index: %v", err)
		}
		for shard := 0; shard < ix.Shards(); shard++ {
			if strings.Contains(err.Error(), fmt.Sprintf("shard %d ", shard)) {
				return
			}
		}
		// A global checksum failure names no shard; keep probing.
	}
	t.Fatal("no single-shard corruption site found in the container")
}
