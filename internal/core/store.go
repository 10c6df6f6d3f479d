package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/index"
)

// Store is the crash-safe durability layer over an Index: a directory
// holding one atomic checkpoint (the container) plus a write-ahead log of
// every mutation — Insert, Delete, Upsert — since that checkpoint. The
// invariant is that at every instant — including mid-crash — the directory
// holds exactly one valid (container, WAL-suffix) pair:
//
//   - the container is only ever replaced by atomic rename (SaveFile), so it
//     is always a complete checkpoint of some prefix of the mutation
//     history;
//   - each WAL record carries the mutation sequence number it was applied
//     under, so a log that overlaps the checkpoint (a crash landed between
//     the checkpoint's rename and the WAL truncation) replays idempotently —
//     records the checkpoint already covers are skipped by sequence number.
//
// Recovery (Recover) therefore needs no ordering metadata beyond what the
// files themselves carry. Like the mutation API itself, a Store's write
// methods are single-writer: not safe for concurrent use with each other
// (searches against Index() follow the Collection's usual read contract).
type Store struct {
	dir   string
	ix    *Index
	wal   *WAL
	cfg   DurableConfig
	stats RecoveryStats
}

// DurableConfig configures a Store's write-ahead log.
type DurableConfig struct {
	// Sync is the WAL sync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the maximum fsync spacing under the SyncInterval
	// policy (default 100ms; ignored otherwise).
	SyncInterval time.Duration
	// StrictWAL makes Recover fail on a torn or corrupt WAL tail instead of
	// recovering the valid prefix and discarding the rest. The default
	// (false) matches crash reality: a torn tail is the expected residue of
	// a crash mid-append, not an anomaly worth refusing the whole index
	// over; what was discarded is reported in RecoveryStats.
	StrictWAL bool
}

func (c DurableConfig) withDefaults() DurableConfig {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 100 * time.Millisecond
	}
	return c
}

// RecoveryStats reports what Recover found and did.
type RecoveryStats struct {
	// CheckpointVersion is the container format version of the loaded
	// checkpoint.
	CheckpointVersion int
	// CheckpointLen is the number of series the checkpoint held.
	CheckpointLen int
	// Replayed is the number of WAL records re-applied through the mutation
	// API (Insert, Delete, Upsert).
	Replayed int
	// Skipped is the number of valid WAL records already covered by the
	// checkpoint (non-zero when a crash landed between a checkpoint's
	// publication and its WAL truncation).
	Skipped int
	// DiscardedBytes is the size of the invalid WAL tail that was cut off
	// (zero for a clean log).
	DiscardedBytes int64
	// TailError classifies why the tail was discarded: it wraps
	// ErrRecoveryTruncated for a torn record (the residue of a crash
	// mid-append) or ErrWALCorrupt for bytes that fail validation, and is
	// nil when the whole log was valid. Under DurableConfig.StrictWAL this
	// error fails Recover instead.
	TailError error
}

const (
	containerFileName = "container.sofa"
	walFileName       = "wal.log"
)

// ContainerPath returns the checkpoint container's path inside dir.
func ContainerPath(dir string) string { return filepath.Join(dir, containerFileName) }

// WALPath returns the write-ahead log's path inside dir.
func WALPath(dir string) string { return filepath.Join(dir, walFileName) }

// CreateStore initializes dir as a durability directory for ix: an initial
// checkpoint is published and an empty WAL created. dir is created if
// missing; an existing container in dir is an error (use Recover to open an
// existing store — refusing here prevents two writers from silently
// clobbering one directory).
func CreateStore(dir string, ix *Index, cfg DurableConfig) (*Store, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(ContainerPath(dir)); err == nil {
		return nil, fmt.Errorf("core: durable store already exists in %s (use Recover)", dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := SaveFile(ix, ContainerPath(dir)); err != nil {
		return nil, err
	}
	w, err := createWAL(WALPath(dir), ix.SeriesLen(), ix.col.MutSeq(), cfg.Sync, cfg.SyncInterval)
	if err != nil {
		return nil, err
	}
	return &Store{
		dir: dir, ix: ix, wal: w, cfg: cfg,
		stats: RecoveryStats{CheckpointVersion: savedIndexVersion, CheckpointLen: ix.Len()},
	}, nil
}

// Recover opens the durability directory at dir: it loads the checkpoint
// container, replays the WAL suffix through the ordinary Insert path, and
// returns a Store ready for further inserts. A torn or corrupt WAL tail is
// cut off and the valid prefix recovered (never a panic, never a wrong id)
// unless cfg.StrictWAL is set; RecoveryStats on the returned Store reports
// exactly what was replayed, skipped, and discarded. A container or log in
// another format version fails with ErrUnsupportedVersion under either
// setting, and the directory is left exactly as it was.
func Recover(dir string, cfg DurableConfig) (*Store, error) {
	cfg = cfg.withDefaults()
	var lst LoadStats
	f, err := os.Open(ContainerPath(dir))
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: %w", dir, err)
	}
	ix, err := LoadWithStats(f, &lst)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: %w", dir, err)
	}
	st := &Store{
		dir: dir, ix: ix, cfg: cfg,
		stats: RecoveryStats{CheckpointVersion: lst.Version, CheckpointLen: ix.Len()},
	}
	if err := st.recoverWAL(); err != nil {
		return nil, err
	}
	return st, nil
}

// recoverWAL replays and then reopens dir's write-ahead log for appending,
// filling st.stats. A missing WAL (a crash between the initial checkpoint
// and the log's creation) and a log whose header is unusable are both
// replaced by a fresh empty log — in the latter case only after classifying
// and counting the discarded bytes.
func (st *Store) recoverWAL() error {
	path := WALPath(st.dir)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return st.freshWAL()
	}
	if err != nil {
		return fmt.Errorf("core: recover %s: %w", st.dir, err)
	}
	col := st.ix.col
	// Records are sequenced by the collection's mutation counter.
	have := col.MutSeq()
	var prev uint64
	seen := false
	validEnd, tailErr, err := scanWAL(f, st.ix.SeriesLen(), func(e walEntry) error {
		if seen && e.seq != prev+1 {
			return fmt.Errorf("core: wal record seq %d after %d (want %d): %w",
				e.seq, prev, prev+1, ErrWALCorrupt)
		}
		seen, prev = true, e.seq
		switch {
		case e.seq < have:
			// Already covered by the checkpoint: a crash landed between the
			// checkpoint's rename and the WAL truncation. Idempotent skip.
			st.stats.Skipped++
			return nil
		case e.seq > have:
			return fmt.Errorf("core: wal record seq %d skips ahead of mutation seq %d: %w",
				e.seq, have, ErrWALCorrupt)
		}
		switch e.op {
		case walOpInsert:
			id, err := st.ix.Insert(e.series)
			if err != nil {
				return fmt.Errorf("core: wal replay of insert seq %d: %w", e.seq, err)
			}
			if uint64(id) != e.id {
				// Public ids are assigned sequentially, so a mismatch means
				// the log and container disagree about history.
				return fmt.Errorf("core: wal replay: insert seq %d assigned id %d, record says %d: %w",
					e.seq, id, e.id, ErrWALCorrupt)
			}
		case walOpDelete:
			if err := st.ix.Delete(index.ID(e.id)); err != nil {
				return fmt.Errorf("core: wal replay of delete seq %d (id %d): %v: %w",
					e.seq, e.id, err, ErrWALCorrupt)
			}
		case walOpUpsert:
			if err := st.ix.Upsert(index.ID(e.id), e.series); err != nil {
				return fmt.Errorf("core: wal replay of upsert seq %d (id %d): %v: %w",
					e.seq, e.id, err, ErrWALCorrupt)
			}
		}
		st.stats.Replayed++
		have++
		return nil
	})
	if err != nil {
		f.Close()
		return fmt.Errorf("core: recover %s: %w", st.dir, err)
	}
	if tailErr != nil {
		info, serr := f.Stat()
		if serr != nil {
			f.Close()
			return fmt.Errorf("core: recover %s: %w", st.dir, serr)
		}
		st.stats.DiscardedBytes = info.Size() - validEnd
		st.stats.TailError = tailErr
		if st.cfg.StrictWAL {
			f.Close()
			return fmt.Errorf("core: recover %s: strict: %w", st.dir, tailErr)
		}
		if validEnd < walHeaderSize {
			// Not even the header is usable — replace the whole file.
			f.Close()
			return st.freshWAL()
		}
	}
	if tailErr != nil {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return fmt.Errorf("core: recover %s: %w", st.dir, err)
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("core: recover %s: %w", st.dir, err)
	}
	st.wal = &WAL{
		f: f, path: path, seriesLen: st.ix.SeriesLen(), next: col.MutSeq(),
		size: validEnd, policy: st.cfg.Sync, interval: st.cfg.SyncInterval,
		lastSync: time.Now(), dirty: st.stats.TailError != nil,
	}
	return nil
}

// freshWAL replaces the store's log with a new empty one.
func (st *Store) freshWAL() error {
	w, err := createWAL(WALPath(st.dir), st.ix.SeriesLen(), st.ix.col.MutSeq(), st.cfg.Sync, st.cfg.SyncInterval)
	if err != nil {
		return fmt.Errorf("core: recover %s: %w", st.dir, err)
	}
	st.wal = w
	return nil
}

// Index returns the underlying index for searches. The usual read contract
// applies: searches and Store writes must not run concurrently.
func (st *Store) Index() *Index { return st.ix }

// RecoveryStats reports what the Recover (or CreateStore) that produced this
// store found and did.
func (st *Store) RecoveryStats() RecoveryStats { return st.stats }

// WALSize returns the write-ahead log's current size in bytes (header
// included) — a checkpoint-scheduling signal for callers.
func (st *Store) WALSize() int64 { return st.wal.Size() }

// Insert durably adds one series: the raw series is appended to the WAL
// (synced per the configured policy) before it is applied to the index, so
// an acknowledged insert survives a crash. Returns the assigned public id.
// A failed append or sync wedges the log — the file's tail state is unknown,
// so every later write refuses with the original failure; Close and Recover
// to resume (recovery truncates whatever the failure left behind).
func (st *Store) Insert(series []float64) (index.ID, error) {
	prevSize, prevNext := st.wal.size, st.wal.next
	if err := st.wal.AppendInsert(uint64(st.ix.col.nextPubID()), series); err != nil {
		return 0, err
	}
	id, err := st.ix.Insert(series)
	if err != nil {
		return 0, st.rollback(err, prevSize, prevNext)
	}
	return id, nil
}

// Delete durably tombstones the series with the given public id: the delete
// record is appended to the WAL before the tombstone is applied, so an
// acknowledged delete survives a crash. See Collection.Delete for the
// mutation semantics (ErrNotFound, ErrTombstoned, id retirement).
func (st *Store) Delete(id index.ID) error {
	if err := st.ix.col.mutationGate(id); err != nil {
		return err
	}
	prevSize, prevNext := st.wal.size, st.wal.next
	if err := st.wal.AppendDelete(uint64(id)); err != nil {
		return err
	}
	if err := st.ix.Delete(id); err != nil {
		return st.rollback(err, prevSize, prevNext)
	}
	return nil
}

// Upsert durably replaces the series stored under id, keeping the id
// stable: the upsert record is appended to the WAL before the replacement
// is applied. See Collection.Upsert for the mutation semantics.
func (st *Store) Upsert(id index.ID, series []float64) error {
	if err := st.ix.col.mutationGate(id); err != nil {
		return err
	}
	prevSize, prevNext := st.wal.size, st.wal.next
	if err := st.wal.AppendUpsert(uint64(id), series); err != nil {
		return err
	}
	if err := st.ix.Upsert(id, series); err != nil {
		return st.rollback(err, prevSize, prevNext)
	}
	return nil
}

// rollback undoes a logged-but-unapplied record: the in-memory mutation
// failed after its record reached the WAL, so the log is rolled back to the
// prior acknowledged size — otherwise recovery would replay a mutation the
// running index never acknowledged. A rollback failure leaves the WAL ahead
// of the index; both errors surface and the caller must treat the store as
// wedged.
func (st *Store) rollback(err error, prevSize int64, prevNext uint64) error {
	if rerr := st.wal.truncateTo(prevSize, prevNext); rerr != nil {
		return errors.Join(err, rerr)
	}
	return err
}

// Sync forces the WAL to stable storage regardless of the sync policy — the
// durability barrier for SyncInterval/SyncNone callers.
func (st *Store) Sync() error { return st.wal.Sync() }

// Checkpoint publishes the current index as the new container (atomic
// rename) and truncates the WAL to empty. A crash anywhere inside leaves a
// recoverable directory: before the rename the old (container, WAL) pair is
// untouched; between the rename and the truncation the WAL's records are all
// covered by the new checkpoint and skip on replay.
func (st *Store) Checkpoint() error {
	if err := SaveFile(st.ix, ContainerPath(st.dir)); err != nil {
		return err
	}
	if err := st.wal.truncateTo(walHeaderSize, st.ix.col.MutSeq()); err != nil {
		return err
	}
	return st.wal.Sync()
}

// Close syncs outstanding WAL records and releases the store's file handle.
// It does not checkpoint; reopening replays the log.
func (st *Store) Close() error { return st.wal.Close() }
