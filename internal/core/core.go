// Package core is the public face of the reproduction: the SOFA index
// (SymbOlic Fourier Approximation — the paper's contribution) and its
// baseline twin MESSI. Both are the same MESSI-style parallel tree
// (internal/index); they differ only in the summarization plugged in:
//
//   - SOFA uses SFA — DFT values selected by variance with learned
//     (equi-width) per-value quantization (internal/sfa);
//   - MESSI uses iSAX — PAA means under fixed Normal-distribution
//     quantization (internal/sax).
//
// Every entry point routes through the Collection layer: an index made of S
// shards (Config.Shards; default 1), each an independent tree over a
// disjoint round-robin slice of the series, sharing one learned
// summarization. Exact k-NN runs the shards against one shared collector
// whose atomic bound is the cross-shard best-so-far, so a sharded index
// returns exactly what the single tree returns while build, memory and
// NUMA placement scale per shard. See Collection for the id mapping and
// the merge contract, and Collection.NewStream for the sustained-traffic
// streaming engine.
//
// Typical usage:
//
//	data, _ := distance.FromRows(rows) // N series of equal length
//	data.ZNormalizeAll()
//	ix, _ := core.Build(data, core.Config{Method: core.SOFA})
//	res, _ := ix.NewSearcher().Search(query, 10)
package core

import (
	"fmt"

	"repro/internal/distance"
	"repro/internal/index"
	"repro/internal/sax"
	"repro/internal/sfa"
)

// Method selects the summarization behind the index.
type Method int

const (
	// SOFA is the paper's index: SFA summarization over the MESSI tree.
	SOFA Method = iota
	// MESSI is the state-of-the-art baseline: iSAX summarization over the
	// same tree.
	MESSI
)

// Result is one answer of a similarity query (re-exported from the index
// layer so core callers need not import it).
type Result = index.Result

func (m Method) String() string {
	switch m {
	case SOFA:
		return "SOFA"
	case MESSI:
		return "MESSI"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config configures Build. Zero values select the paper's defaults
// (word length 16, alphabet 256, SFA with equi-width binning and variance
// selection learned from a 1% sample, one shard).
type Config struct {
	Method       Method
	WordLength   int // symbols per word (default 16)
	Bits         int // bits per symbol (default 8; alphabet 256)
	LeafCapacity int // tree leaf size (default 1024)
	Workers      int // build/query parallelism budget across shards (default GOMAXPROCS)
	Queues       int // query priority queues across shards (default Workers)

	// Shards is the number of index shards (default 1). Each shard is an
	// independent tree over 1/S of the series; searches merge per-shard
	// results through a shared best-so-far, so results are identical to a
	// single-shard build. See the README for how to pick S.
	Shards int

	// QuarantineAfter is how many consecutive panicking queries quarantine a
	// shard (default 3). A shard whose tree fails its invariant check after
	// a panic is quarantined immediately regardless. See Collection's fault
	// isolation contract (fault.go) and Plan.AllowPartial.
	QuarantineAfter int

	// Compaction governs tombstone reclamation and SFA re-learning for
	// mutable workloads; the zero value disables automatic compaction
	// (CompactShard remains available). See CompactionPolicy.
	Compaction CompactionPolicy

	// SFA-only knobs (ignored for MESSI).
	Binning    sfa.Binning   // default EquiWidth
	Selection  sfa.Selection // default HighestVariance
	SampleRate float64       // MCB sample ratio (default 0.01)
	MaxCoeffs  int           // candidate complex coefficients (default 16)
	Seed       int64         // sampling seed (default 1)
}

// Index is a built SOFA or MESSI index: a thin handle over a Collection of
// one or more shard trees. It is safe for concurrent searches (one Searcher
// per goroutine); mutations (Insert, Delete, Upsert) are safe with each
// other and with compaction but must be synchronized against searches.
type Index struct {
	col *Collection

	// Phase timings for the Fig. 7 breakdown, in seconds.
	LearnSeconds     float64 // SFA bin learning (0 for MESSI)
	TransformSeconds float64 // summarization of all series
	TreeSeconds      float64 // tree construction
}

// saxSummarization and sfaSummarization adapt the two quantizers to the
// index.Summarization interface.
type saxSummarization struct{ *sax.Quantizer }

func (s saxSummarization) NewIndexEncoder() index.Encoder { return s.Quantizer.NewEncoder() }

type sfaSummarization struct{ *sfa.Quantizer }

func (s sfaSummarization) NewIndexEncoder() index.Encoder { return s.Quantizer.NewTransformer() }

// Build constructs an index over data, which must contain z-normalized
// series (use Matrix.ZNormalizeAll; Build returns the paper's z-normalized
// Euclidean distances only under that contract). With cfg.Shards > 1 the
// series are partitioned round-robin across that many independent trees —
// see Collection.
func Build(data *distance.Matrix, cfg Config) (*Index, error) {
	col, err := BuildCollection(data, cfg)
	if err != nil {
		return nil, err
	}
	return &Index{
		col:              col,
		LearnSeconds:     col.LearnSeconds,
		TransformSeconds: col.TransformSeconds,
		TreeSeconds:      col.TreeSeconds,
	}, nil
}

// Collection returns the underlying sharded collection.
func (ix *Index) Collection() *Collection { return ix.col }

// Method reports whether this is a SOFA or MESSI index.
func (ix *Index) Method() Method { return ix.col.Method() }

// Len returns the number of indexed series.
func (ix *Index) Len() int { return ix.col.Len() }

// SeriesLen returns the length of the indexed series.
func (ix *Index) SeriesLen() int { return ix.col.SeriesLen() }

// Shards returns the number of index shards.
func (ix *Index) Shards() int { return ix.col.Shards() }

// Row returns the series stored under global id g (aliasing index memory;
// do not modify).
func (ix *Index) Row(g int) []float64 { return ix.col.Row(g) }

// Stats returns the tree-structure statistics (Fig. 8), aggregated across
// shards.
func (ix *Index) Stats() index.Stats { return ix.col.Stats() }

// BuildSeconds returns the total build time across all phases.
func (ix *Index) BuildSeconds() float64 { return ix.col.BuildSeconds() }

// SFAQuantizer returns the learned SFA summarization (nil for MESSI);
// exposed for the ablation experiments (Fig. 13 reads the selected
// coefficient indices). All shards share this one quantizer.
func (ix *Index) SFAQuantizer() *sfa.Quantizer { return ix.col.SFAQuantizer() }

// NewSearcher creates a searcher; see Collection.NewSearcher.
func (ix *Index) NewSearcher() *Searcher { return ix.col.NewSearcher() }

// SearchBatch answers a batch of queries with inter-query parallelism: up
// to workers queries run concurrently, each on a pooled single-threaded
// searcher (the FAISS protocol from the paper's Section V). workers <= 0
// selects GOMAXPROCS. Results are in query order and safe to retain.
func (ix *Index) SearchBatch(queries *distance.Matrix, k, workers int) ([][]index.Result, error) {
	return ix.col.SearchBatch(queries, k, workers)
}

// NewStream starts the streaming query engine; see Collection.NewStream.
func (ix *Index) NewStream(k, workers int, handle func(qid uint64, res []index.Result, err error)) (*Stream, error) {
	return ix.col.NewStream(k, workers, handle)
}

// Insert adds one series to the index (z-normalized internally) and returns
// its stable public id. Mutations (Insert, Delete, Upsert, compaction) may
// run concurrently with each other but not with searches — synchronize
// externally for mixed workloads. Inserted series are summarized with the
// index's existing learned quantization; re-learning happens only at a
// compaction that crosses CompactionPolicy.RelearnChurnFraction.
func (ix *Index) Insert(series []float64) (index.ID, error) {
	return ix.col.Insert(series)
}

// Delete tombstones the series with the given id; see Collection.Delete.
func (ix *Index) Delete(id index.ID) error { return ix.col.Delete(id) }

// Upsert replaces the series stored under id while keeping the id stable;
// see Collection.Upsert.
func (ix *Index) Upsert(id index.ID, series []float64) error {
	return ix.col.Upsert(id, series)
}

// CompactShard rebuilds one shard without its tombstoned rows and swaps it
// in RCU-style; see Collection.CompactShard.
func (ix *Index) CompactShard(i int) error { return ix.col.CompactShard(i) }

// MaybeCompact applies the configured CompactionPolicy across all shards;
// see Collection.MaybeCompact.
func (ix *Index) MaybeCompact() error { return ix.col.MaybeCompact() }

// CheckInvariants verifies every shard tree's structural invariants (mainly
// useful after Insert-heavy workloads and in tests).
func (ix *Index) CheckInvariants() error { return ix.col.CheckInvariants() }
