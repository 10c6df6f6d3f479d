package sofa

import (
	"io"
	"os"

	"repro/internal/core"
)

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
// the load fails.
func Load(r io.Reader) (*Index, error) {
	ix, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return newIndex(ix), nil
}

// LoadFile reads an index from a file; see Load.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
