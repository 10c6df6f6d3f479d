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
	opts  core.LoadOptions
}

// WithLoadStats records the load's phase timings, container version, byte
// count and quarantined shards into dst.
func WithLoadStats(dst *LoadStats) LoadOption {
	return func(c *loadConfig) { c.stats = dst }
}

// AllowQuarantinedShards accepts a container with corrupt shard payloads as
// a degraded index: shards whose per-shard checksum fails load
// with no tree and permanently quarantined — searches skip them (failing
// fail-fast queries, degrading AllowPartial queries with an unbounded ε),
// Insert refuses them, and Save refuses the whole degraded index — while
// every healthy shard loads normally. QuarantinedShards (and
// LoadStats.QuarantinedShards via WithLoadStats) report which shards were
// lost. Without this option any corruption fails the whole load. A container
// whose every shard is corrupt, or whose global checksum (header, SFA tables,
// series data) fails, does not load regardless.
func AllowQuarantinedShards() LoadOption {
	return func(c *loadConfig) { c.opts.QuarantineCorruptShards = true }
}

// Save writes the index to w in the container format (version 5, the only
// one): float32 series data shard by shard, the learned summarization state,
// the mutation state (tombstones, public-id tables, re-learned shard
// quantizations, mutation sequence), and per shard its word buffer and
// finalized tree shape with the leaf refinement blocks — so Load
// reconstructs every shard tree by direct decode instead of rebuilding it —
// under a global checksum plus per-shard payload checksums, so load-time
// corruption is attributable to (and optionally survivable at) shard
// granularity. Saving an index that holds a load-quarantined shard fails
// with ErrShardQuarantined: the container would silently drop that shard's
// series.
func Save(x *Index, w io.Writer) error { return core.Save(x.ix, w) }

// SaveFile writes the index to a file; see Save.
func SaveFile(x *Index, path string) error { return core.SaveFile(x.ix, path) }

// Load reads an index previously written by Save; a container in any other
// format version fails with ErrUnsupportedVersion. The shard count is part
// of the saved index. Transient read errors from r (the net-style Temporary
// contract) are retried under a bounded backoff before the load fails. Pass
// WithLoadStats to observe the load's phase breakdown, and
// AllowQuarantinedShards to keep the healthy shards of a partially corrupt
// container.
func Load(r io.Reader, opts ...LoadOption) (*Index, error) {
	var c loadConfig
	for _, opt := range opts {
		opt(&c)
	}
	ix, err := core.LoadWithOptions(r, c.opts, c.stats)
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
