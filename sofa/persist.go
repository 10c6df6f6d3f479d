package sofa

import (
	"io"
	"os"

	"repro/internal/core"
)

// LoadStats reports where a Load spent its time and what it did — the
// persistence counterpart of the WithStats query option. DecodeSeconds
// covers container decode, checksums and data re-normalization; TreeSeconds
// is the parallel per-shard tree phase, a direct decode of each saved tree
// shape (no re-splitting).
type LoadStats = core.LoadStats

// LoadOption configures Load/LoadFile.
type LoadOption func(*loadConfig)

type loadConfig struct {
	stats *LoadStats
}

// WithLoadStats records the load's phase timings, container version and
// byte count into dst.
func WithLoadStats(dst *LoadStats) LoadOption {
	return func(c *loadConfig) { c.stats = dst }
}

// Save writes the index to w in the container format (version 6, the only
// one): float32 series data shard by shard, the learned summarization state,
// the mutation state (tombstones, public-id tables, re-learned shard
// quantizations, mutation sequence), and per shard its finalized tree shape
// with the leaf refinement blocks, which hold its words — so Load
// reconstructs every shard tree by direct decode instead of rebuilding it —
// under a global checksum plus per-shard payload checksums, so load-time
// corruption is attributable to one shard.
func Save(x *Index, w io.Writer) error { return core.Save(x.ix, w) }

// SaveFile writes the index to a file; see Save.
func SaveFile(x *Index, path string) error { return core.SaveFile(x.ix, path) }

// Load reads an index previously written by Save; a container in any other
// format version fails with ErrUnsupportedVersion. The shard count is part
// of the saved index. The load is all or nothing: a container whose global
// checksum fails, or whose payload for any one shard fails its checksum,
// does not load, and the error names the corrupt shard — an index missing a
// shard could not answer exactly. Transient read errors from r (the
// net-style Temporary contract) are retried under a bounded backoff before
// the load fails. Pass WithLoadStats to observe the load's phase breakdown.
func Load(r io.Reader, opts ...LoadOption) (*Index, error) {
	var c loadConfig
	for _, opt := range opts {
		opt(&c)
	}
	ix, err := core.LoadWithStats(r, c.stats)
	if err != nil {
		return nil, err
	}
	return newIndex(ix), nil
}

// LoadFile reads an index from a file; see Load.
func LoadFile(path string, opts ...LoadOption) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, opts...)
}
