package sofa

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
)

// SyncPolicy selects when a durable index's write-ahead log fsyncs; see the
// README's durability table for what each policy guarantees after kill -9.
type SyncPolicy = core.SyncPolicy

const (
	// SyncAlways fsyncs after every Insert (the default): an acknowledged
	// insert survives power loss.
	SyncAlways SyncPolicy = core.SyncAlways
	// SyncInterval fsyncs at most once per SyncEvery interval: a crash loses
	// at most the last interval's acknowledged inserts.
	SyncInterval SyncPolicy = core.SyncInterval
	// SyncNone leaves flushing to the OS: a process crash loses nothing, a
	// power failure can lose everything since the last checkpoint.
	SyncNone SyncPolicy = core.SyncNone
)

// RecoveryStats reports what an Open found and did: the checkpoint it
// loaded, the WAL records it replayed or skipped, and whatever torn or
// corrupt tail it discarded (TailError wraps ErrRecoveryTruncated or
// ErrWALCorrupt; nil for a clean log).
type RecoveryStats = core.RecoveryStats

// OpenOption configures Open.
type OpenOption func(*openConfig)

type openConfig struct {
	create    *Matrix
	buildOpts []Option
	dcfg      core.DurableConfig
	stats     *RecoveryStats
}

// CreateFrom initializes the directory from a fresh build over data (with
// the usual Build options) when it does not yet hold an index. Without this
// option, Open of an uninitialized directory fails. The option is ignored —
// data is not consulted — when the directory already holds an index.
func CreateFrom(data *Matrix, opts ...Option) OpenOption {
	return func(c *openConfig) { c.create, c.buildOpts = data, opts }
}

// WithSync sets the WAL sync policy (default SyncAlways).
func WithSync(p SyncPolicy) OpenOption {
	return func(c *openConfig) { c.dcfg.Sync = p }
}

// SyncEvery selects the SyncInterval policy with the given maximum fsync
// spacing.
func SyncEvery(d time.Duration) OpenOption {
	return func(c *openConfig) { c.dcfg.Sync = core.SyncInterval; c.dcfg.SyncInterval = d }
}

// StrictRecovery makes Open fail on a torn or corrupt WAL tail instead of
// recovering the valid prefix and discarding the rest. The default is
// lenient: a torn tail is the expected residue of a crash mid-append, and
// what was discarded is reported via WithRecoveryStats.
func StrictRecovery() OpenOption {
	return func(c *openConfig) { c.dcfg.StrictWAL = true }
}

// WithRecoveryStats records into dst what the Open found: checkpoint
// version, records replayed and skipped, and bytes discarded from a torn or
// corrupt WAL tail. Also available afterwards as DurableIndex.RecoveryStats.
func WithRecoveryStats(dst *RecoveryStats) OpenOption {
	return func(c *openConfig) { c.stats = dst }
}

// DurableIndex is an Index whose mutations survive process death: every
// Insert, Delete, and Upsert is appended to a write-ahead log before it is
// applied, Checkpoint atomically publishes the in-memory state as a new
// container, and Open recovers the exact acknowledged state after a crash.
// All read paths (Search, SearchInto, SearchBatch, NewStream, ...) are the
// embedded Index's and follow its concurrency contract;
// Insert/Delete/Upsert/Checkpoint/Sync/Close are single-writer, like the
// in-memory mutation API itself.
type DurableIndex struct {
	*Index
	st *core.Store
}

// Open opens (or, with CreateFrom, initializes) the durable index stored in
// dir. An existing directory is recovered: the checkpoint container is
// loaded and the write-ahead log's suffix of post-checkpoint inserts is
// replayed through the ordinary insert path, stopping cleanly at the first
// torn or corrupt record — the valid prefix is recovered and the damaged
// tail discarded (see StrictRecovery to fail instead, and WithRecoveryStats
// for an exact account). Open never panics on damaged WAL bytes and never
// invents data: recovered ids and series are exactly the acknowledged
// prefix. A container or log written in another format version fails with
// ErrUnsupportedVersion, strict or not, and is left untouched.
func Open(dir string, opts ...OpenOption) (*DurableIndex, error) {
	var c openConfig
	for _, opt := range opts {
		opt(&c)
	}
	if _, err := os.Stat(core.ContainerPath(dir)); errors.Is(err, os.ErrNotExist) {
		if c.create == nil {
			return nil, fmt.Errorf("sofa: no index in %s (pass CreateFrom to initialize): %w", dir, os.ErrNotExist)
		}
		built, err := Build(c.create, c.buildOpts...)
		if err != nil {
			return nil, err
		}
		st, err := core.CreateStore(dir, built.ix, c.dcfg)
		if err != nil {
			return nil, err
		}
		return finishOpen(st, c.stats), nil
	} else if err != nil {
		return nil, err
	}
	st, err := core.Recover(dir, c.dcfg)
	if err != nil {
		return nil, err
	}
	return finishOpen(st, c.stats), nil
}

func finishOpen(st *core.Store, stats *RecoveryStats) *DurableIndex {
	if stats != nil {
		*stats = st.RecoveryStats()
	}
	return &DurableIndex{Index: newIndex(st.Index()), st: st}
}

// Insert durably adds one series: it is appended to the write-ahead log
// (synced per the configured policy) before it is applied to the index, so
// an acknowledged insert survives a crash and is replayed by the next Open.
// Returns the assigned id. Same synchronization contract as Index.Insert.
func (x *DurableIndex) Insert(series []float64) (ID, error) {
	if len(series) != x.SeriesLen() {
		return 0, fmt.Errorf("%w: series length %d, want %d", ErrBadSeriesLength, len(series), x.SeriesLen())
	}
	return x.st.Insert(series)
}

// Delete durably removes the series with the given id: the delete record is
// appended to the write-ahead log before the tombstone is applied, so an
// acknowledged delete survives a crash and is replayed by the next Open.
// Same semantics as Index.Delete (ErrNotFound, ErrTombstoned, permanent id
// retirement).
func (x *DurableIndex) Delete(id ID) error { return x.st.Delete(id) }

// Upsert durably replaces the series stored under id, keeping the id
// stable: the upsert record is appended to the write-ahead log before the
// replacement is applied. Same semantics as Index.Upsert.
func (x *DurableIndex) Upsert(id ID, series []float64) error {
	if len(series) != x.SeriesLen() {
		return fmt.Errorf("%w: series length %d, want %d", ErrBadSeriesLength, len(series), x.SeriesLen())
	}
	return x.st.Upsert(id, series)
}

// Checkpoint atomically publishes the current state as the new container
// (temp file, fsync, rename, directory fsync) and resets the write-ahead
// log. A crash at any point — before, during, or after — leaves the
// directory recoverable to exactly the acknowledged state.
func (x *DurableIndex) Checkpoint() error { return x.st.Checkpoint() }

// Sync forces the write-ahead log to stable storage regardless of the sync
// policy — the explicit durability barrier for SyncInterval/SyncNone users.
func (x *DurableIndex) Sync() error { return x.st.Sync() }

// RecoveryStats reports what the Open that produced this index found and
// did.
func (x *DurableIndex) RecoveryStats() RecoveryStats { return x.st.RecoveryStats() }

// WALBytes returns the write-ahead log's current size — a signal for
// scheduling Checkpoint (replay time on the next Open is proportional to
// it).
func (x *DurableIndex) WALBytes() int64 { return x.st.WALSize() }

// Close syncs outstanding WAL records and releases the store's file
// handles. It does not checkpoint: the next Open replays the log. The index
// must not be used after Close.
func (x *DurableIndex) Close() error { return x.st.Close() }
