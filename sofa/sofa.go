// Package sofa is the public API of the SOFA reproduction: exact and
// approximate k-nearest-neighbor similarity search over collections of
// equal-length data series (and fixed-dimension vectors) under z-normalized
// Euclidean distance.
//
// SOFA (ICDE 2025) pairs the MESSI-style parallel in-memory tree index with
// a learned symbolic summarization — SFA, Fourier coefficients selected by
// variance and quantized with bins learned from the data — which keeps its
// pruning power on the high-frequency series where classical mean-based
// iSAX summarizations collapse. This package fronts the full reproduction
// stack: the learned quantization, the cache-conscious zero-allocation
// query engine with runtime-dispatched SIMD distance kernels, a sharded
// collection layer whose shards prune against one shared best-so-far (so a
// sharded index answers exactly like a single tree), batched and streaming
// execution, and shard-aware persistence.
//
// Construction uses functional options:
//
//	ix, err := sofa.Build(data, sofa.SFA(), sofa.Shards(4), sofa.LeafSize(512))
//
// Queries are values executed under a context:
//
//	res, err := ix.Search(ctx, sofa.Query{Series: q, K: 10})
//
// with per-query options for approximate modes and deadlines:
//
//	q := sofa.Query{Series: series, K: 5}.With(sofa.Epsilon(0.1), sofa.Deadline(t))
//
// Search returns caller-owned results; SearchInto is the allocation-free
// variant for steady-state loops; SearchBatch and NewStream provide
// throughput-oriented execution. Everything under internal/ (including
// internal/core) is unstable implementation detail — import only this
// package.
package sofa // import "repro/sofa"

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sfa"
)

// Sentinel errors returned (possibly wrapped with detail) by Build and the
// query paths. Match them with errors.Is.
var (
	// ErrEmptyData is returned when a build or batch is given no series.
	ErrEmptyData = errors.New("sofa: empty data")
	// ErrBadSeriesLength is returned when a series' length does not match
	// the collection (ragged build rows, wrong query length).
	ErrBadSeriesLength = errors.New("sofa: series length mismatch")
	// ErrBadK is returned when a query asks for fewer than one neighbor.
	ErrBadK = errors.New("sofa: k must be at least 1")
	// ErrBadEpsilon is returned when a query's epsilon is negative.
	ErrBadEpsilon = errors.New("sofa: epsilon must not be negative")
	// ErrBadConfig is returned by Build for invalid option values.
	ErrBadConfig = errors.New("sofa: invalid configuration")
	// ErrStreamClosed is returned by Stream.Submit after Close.
	ErrStreamClosed = errors.New("sofa: stream is closed")
)

// Fault-isolation sentinels. These are shared with the engine so errors.Is
// matches anywhere in a wrapped chain: every shard-fault error produced by a
// query wraps ErrDegraded, and operations refused because of quarantine wrap
// ErrShardQuarantined (which itself wraps ErrDegraded).
var (
	// ErrDegraded reports that one or more shards did not contribute to an
	// operation — a contained panic, an engine fault, or a quarantined shard.
	// Fail-fast queries (the default) return it; AllowPartial queries absorb
	// it into a degraded answer unless nothing survived.
	ErrDegraded = core.ErrDegraded
	// ErrShardQuarantined reports an operation against a quarantined shard:
	// a query routed to it (fail-fast), an Insert destined for it, or a Save
	// of a collection holding one.
	ErrShardQuarantined = core.ErrShardQuarantined
	// ErrStreamStalled is returned by Stream.Submit when every stream worker
	// has been stuck past the watchdog deadline (see Stream.SetWatchdog).
	ErrStreamStalled = core.ErrStreamStalled
)

// Mutation sentinels, returned by Delete and Upsert. Match them with
// errors.Is.
var (
	// ErrNotFound reports a mutation against an id that was never assigned.
	ErrNotFound = core.ErrNotFound
	// ErrTombstoned reports a mutation against a deleted id: ids are retired
	// permanently — deletion is not reversible, and Upsert replaces live
	// series only (it does not resurrect).
	ErrTombstoned = core.ErrTombstoned
)

// Durability sentinels, produced by Open's write-ahead-log recovery. By
// default both are absorbed into a lenient recovery (the valid WAL prefix is
// replayed, the damaged tail discarded and reported via RecoveryStats);
// under StrictRecovery they fail Open instead.
var (
	// ErrWALCorrupt reports write-ahead-log bytes that fail validation — a
	// checksum mismatch, a forged record length, or a broken sequence.
	ErrWALCorrupt = core.ErrWALCorrupt
	// ErrRecoveryTruncated reports a write-ahead log that ends mid-record:
	// the torn tail a crash during an append leaves behind.
	ErrRecoveryTruncated = core.ErrRecoveryTruncated
)

// ErrUnsupportedVersion reports a container (Load) or write-ahead log (Open)
// written in a format version this build does not read: it reads exactly
// what it writes, container version 5 and WAL version 2, which is everything
// any build since those formats were introduced has written. The file is
// refused before any of it is trusted and — unlike a damaged log, under
// StrictRecovery or not — is never repaired, truncated or replaced. Older
// files upgrade by loading and re-saving with an earlier build; see the
// README's "Persistence" section.
var ErrUnsupportedVersion = core.ErrUnsupportedVersion

// Method identifies the summarization behind an index.
type Method = core.Method

// The two supported summarizations: the paper's contribution and its
// state-of-the-art baseline over the identical tree.
const (
	MethodSOFA  Method = core.SOFA
	MethodMESSI Method = core.MESSI
)

// config collects the option values; zero values select the paper's
// defaults (word length 16, alphabet 256, leaf capacity 1024, SFA with
// equi-width binning and variance selection learned from a 1% sample, one
// shard).
type config struct {
	cfg core.Config
}

// Option configures Build.
type Option func(*config)

// SFA selects the paper's index: SFA summarization (learned DFT
// quantization) over the MESSI tree. This is the default.
func SFA() Option { return func(c *config) { c.cfg.Method = core.SOFA } }

// MESSI selects the baseline index: iSAX summarization (PAA means under
// fixed Normal-distribution breakpoints) over the same tree.
func MESSI() Option { return func(c *config) { c.cfg.Method = core.MESSI } }

// WordLength sets the symbols per summarization word (default 16).
func WordLength(l int) Option { return func(c *config) { c.cfg.WordLength = l } }

// SymbolBits sets the bits per symbol (default 8, i.e. alphabet 256).
func SymbolBits(b int) Option { return func(c *config) { c.cfg.Bits = b } }

// LeafSize sets the tree leaf capacity (default 1024).
func LeafSize(n int) Option { return func(c *config) { c.cfg.LeafCapacity = n } }

// Workers sets the build/query parallelism budget across shards (default
// GOMAXPROCS).
func Workers(n int) Option { return func(c *config) { c.cfg.Workers = n } }

// Shards sets the number of index shards (default 1). Each shard is an
// independent tree over a round-robin 1/S slice of the series; searches
// merge through a shared best-so-far, so results are identical to a
// single-shard build.
func Shards(s int) Option { return func(c *config) { c.cfg.Shards = s } }

// EquiDepthBinning switches SFA to equi-depth (equal sample mass) bins,
// the original SFA strategy; the default is the paper's equi-width bins.
func EquiDepthBinning() Option { return func(c *config) { c.cfg.Binning = sfa.EquiDepth } }

// FirstCoefficients switches SFA coefficient selection to the classical
// low-pass choice (first l values); the default keeps the l values with
// the highest variance over the sample.
func FirstCoefficients() Option { return func(c *config) { c.cfg.Selection = sfa.FirstCoefficients } }

// SampleRate sets the fraction of the collection the SFA bins are learned
// from (default 0.01).
func SampleRate(r float64) Option { return func(c *config) { c.cfg.SampleRate = r } }

// MaxCoeffs sets the number of candidate complex DFT coefficients SFA
// selects from (default 16).
func MaxCoeffs(m int) Option { return func(c *config) { c.cfg.MaxCoeffs = m } }

// Seed sets the sampling seed for the SFA learning stage (default 1).
func Seed(s int64) Option { return func(c *config) { c.cfg.Seed = s } }

// QuarantineAfter sets how many consecutive panicking queries quarantine a
// shard (default 3). A shard whose tree fails its structural invariant check
// after a contained panic is quarantined immediately regardless of this
// threshold. See the package's failure semantics: quarantined shards are
// skipped by searches (degrading them), refused by Insert, and reported by
// QuarantinedShards.
func QuarantineAfter(n int) Option { return func(c *config) { c.cfg.QuarantineAfter = n } }

// Compaction is the tombstone-reclamation policy of a mutable index: when a
// shard is rebuilt without its deleted rows, and when such a rebuild also
// re-learns the shard's SFA quantization from the surviving series. The zero
// value disables automatic compaction (explicit Compact/CompactShard calls
// still work).
type Compaction = core.CompactionPolicy

// CompactionPolicy sets the index's compaction policy. With
// p.MaxTombstoneFraction > 0, MaybeCompact (and, with p.Auto, a background
// pass after each mutation) rebuilds any shard whose tombstoned fraction
// reaches it; with p.RelearnChurnFraction > 0 a compaction whose accumulated
// churn crosses that fraction of the shard's live series re-learns the SFA
// bins from the survivors. Re-learning changes only pruning power, never
// results.
func CompactionPolicy(p Compaction) Option { return func(c *config) { c.cfg.Compaction = p } }

// validate rejects option values Build must not silently default.
func (c *config) validate() error {
	cfg := c.cfg
	switch {
	case cfg.WordLength < 0:
		return fmt.Errorf("%w: word length %d", ErrBadConfig, cfg.WordLength)
	case cfg.Bits < 0 || cfg.Bits > 8:
		return fmt.Errorf("%w: symbol bits %d (want 1..8)", ErrBadConfig, cfg.Bits)
	case cfg.LeafCapacity < 0:
		return fmt.Errorf("%w: leaf size %d", ErrBadConfig, cfg.LeafCapacity)
	case cfg.Workers < 0:
		return fmt.Errorf("%w: workers %d", ErrBadConfig, cfg.Workers)
	case cfg.Shards < 0:
		return fmt.Errorf("%w: shards %d", ErrBadConfig, cfg.Shards)
	case cfg.SampleRate < 0 || cfg.SampleRate > 1:
		return fmt.Errorf("%w: sample rate %v (want 0..1)", ErrBadConfig, cfg.SampleRate)
	case cfg.MaxCoeffs < 0:
		return fmt.Errorf("%w: max coefficients %d", ErrBadConfig, cfg.MaxCoeffs)
	case cfg.QuarantineAfter < 0:
		return fmt.Errorf("%w: quarantine threshold %d", ErrBadConfig, cfg.QuarantineAfter)
	case cfg.Compaction.MaxTombstoneFraction > 1:
		return fmt.Errorf("%w: max tombstone fraction %v (want 0..1)", ErrBadConfig, cfg.Compaction.MaxTombstoneFraction)
	}
	return nil
}

// Index is a built similarity index over a collection of series. It is safe
// for concurrent Search/SearchInto/SearchBatch/stream use from any number of
// goroutines. Mutations — Insert, Delete, Upsert, compaction — are safe with
// each other but must be synchronized against searches (see each method's
// contract).
type Index struct {
	ix *core.Index

	// searchers pools per-query engines with full intra-query parallelism
	// (shards fan out, and each shard tree applies its worker budget), so
	// Search and SearchInto are both concurrent-safe and allocation-free in
	// steady state.
	searchers sync.Pool
}

// Build constructs an index over data using the paper's defaults, adjusted
// by options. The collection should be z-normalized first
// (data.ZNormalizeAll()): all similarity in this library is z-normalized
// Euclidean distance, and queries are normalized internally under that
// contract.
//
// Option validation failures return errors wrapping ErrBadConfig; an empty
// collection returns ErrEmptyData.
func Build(data *Matrix, opts ...Option) (*Index, error) {
	if data == nil || data.Len() == 0 {
		return nil, ErrEmptyData
	}
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	ix, err := core.Build(data, c.cfg)
	if err != nil {
		// Both %w: errors.Is finds the sentinel and the engine's cause.
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	return newIndex(ix), nil
}

// newIndex wraps a built core index with the public searcher pooling.
func newIndex(ix *core.Index) *Index {
	x := &Index{ix: ix}
	x.searchers.New = func() any { return ix.Collection().NewSearcher() }
	return x
}

// Len returns the number of live (searchable) series: deleted series stop
// counting immediately, before compaction reclaims their storage.
func (x *Index) Len() int { return x.ix.Len() }

// SeriesLen returns the length every indexed (and queried) series must have.
func (x *Index) SeriesLen() int { return x.ix.SeriesLen() }

// Shards returns the number of index shards.
func (x *Index) Shards() int { return x.ix.Shards() }

// Method reports whether this is a SOFA or MESSI index.
func (x *Index) Method() Method { return x.ix.Method() }

// BuildSeconds returns the total build time across the learn, transform and
// tree phases.
func (x *Index) BuildSeconds() float64 { return x.ix.BuildSeconds() }

// Stats returns the aggregate tree-structure statistics across shards.
func (x *Index) Stats() TreeStats { return x.ix.Stats() }

// MeanSelectedCoefficient reports the mean index of the DFT coefficients
// the learned SFA selection kept — the paper's diagnostic for how far
// beyond the low-pass prefix variance selection reaches. ok is false for a
// MESSI index, which has no learned selection.
func (x *Index) MeanSelectedCoefficient() (mean float64, ok bool) {
	q := x.ix.SFAQuantizer()
	if q == nil {
		return 0, false
	}
	return q.MeanCoefficientIndex(), true
}

// Insert adds one series to the index (z-normalized internally) and returns
// its stable ID. Mutations (Insert, Delete, Upsert) may run concurrently
// with each other and with compaction, but not with searches — synchronize
// externally for mixed workloads. The series is summarized with the index's
// existing learned quantization; bins are re-learned only at a compaction
// that crosses the configured CompactionPolicy's RelearnChurnFraction.
// Inserting into a quarantined shard fails with ErrShardQuarantined (the
// series would otherwise be stranded in a tree searches skip).
func (x *Index) Insert(series []float64) (ID, error) {
	if len(series) != x.SeriesLen() {
		return 0, fmt.Errorf("%w: series length %d, want %d", ErrBadSeriesLength, len(series), x.SeriesLen())
	}
	return x.ix.Insert(series)
}

// Delete removes the series with the given id from the index: it stops
// appearing in search results immediately, its storage is reclaimed at the
// next compaction, and the id is permanently retired (never reused).
// Deleting an unknown id returns ErrNotFound; deleting twice returns
// ErrTombstoned. Same synchronization contract as Insert.
func (x *Index) Delete(id ID) error { return x.ix.Delete(id) }

// Upsert replaces the series stored under id (z-normalized internally),
// keeping the id stable: searches observe the id with its old series or its
// new one, never both. Upserting an unknown id returns ErrNotFound, a
// deleted one ErrTombstoned — an upsert is a replacement, not a
// resurrection. Same synchronization contract as Insert.
func (x *Index) Upsert(id ID, series []float64) error {
	if len(series) != x.SeriesLen() {
		return fmt.Errorf("%w: series length %d, want %d", ErrBadSeriesLength, len(series), x.SeriesLen())
	}
	return x.ix.Upsert(id, series)
}

// CompactShard rebuilds one shard without its deleted rows and atomically
// swaps the rebuilt shard in (RCU: in-flight queries keep the state they
// started with and never block). On a SOFA index whose accumulated churn has
// crossed the configured RelearnChurnFraction, the rebuild also re-learns
// the shard's SFA quantization from the survivors. Live ids, search results
// and result ordering are unchanged by compaction.
func (x *Index) CompactShard(i int) error { return x.ix.CompactShard(i) }

// Compact applies the configured compaction policy across all shards,
// rebuilding every shard whose tombstoned fraction has reached
// MaxTombstoneFraction — the explicit entry point for callers that schedule
// compaction themselves (with Compaction.Auto it also runs in the background
// after mutations).
func (x *Index) Compact() error { return x.ix.MaybeCompact() }

// Tombstoned returns the number of deleted-but-unreclaimed rows currently
// carried by the index — the space a compaction would reclaim. Len counts
// live series only, so Len()+Tombstoned() is the physical row count.
func (x *Index) Tombstoned() int { return x.ix.Collection().Tombstoned() }

// QuarantineShard manually quarantines one shard: subsequent searches skip
// it (failing fail-fast queries with ErrShardQuarantined, degrading
// AllowPartial queries) and Insert refuses it. It is the operational handle
// behind the automatic quarantine policy — useful for taking a shard out of
// service deterministically (maintenance, suspected corruption) and for
// exercising degraded behavior in tests.
func (x *Index) QuarantineShard(i int) error {
	return x.ix.Collection().Quarantine(i)
}

// ReinstateShard clears one shard's quarantine and fault history after the
// cause has been fixed. Reinstating a shard that lost its tree (quarantined
// at load time by AllowQuarantinedShards) fails: the data is gone until the
// collection is rebuilt.
func (x *Index) ReinstateShard(i int) error {
	return x.ix.Collection().Reinstate(i)
}

// QuarantinedShards returns the indices of the currently quarantined shards
// in ascending order (nil when the index is fully healthy).
func (x *Index) QuarantinedShards() []int {
	return x.ix.Collection().Quarantined()
}
