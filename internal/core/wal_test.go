package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/distance"
)

// The durability suite: WAL encode/scan, atomic checkpointing, and recovery
// semantics that need no fault injection (manual file surgery stands in for
// the crash). The injected-crash matrix lives in wal_crash_test.go under the
// faultinject tag.

// durableIndex builds a small index for store tests, returning the build-time
// series count (Insert grows the collection, so ix.Len() moves).
func durableIndex(tb testing.TB, shards int) (*Index, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(417))
	data := mixedMatrix(rng, 300, 32)
	ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.2, Shards: shards, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return ix, data.Len()
}

// extraSeries generates deterministic raw (un-normalized) insert payloads.
func extraSeries(seed int64, count, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, count)
	for i := range out {
		s := make([]float64, n)
		v := 0.0
		for j := range s {
			v += rng.NormFloat64()
			s[j] = v
		}
		out[i] = s
	}
	return out
}

func TestWALScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := createWAL(path, 8, 5, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	series := extraSeries(1, 4, 8)
	// Mixed mutation types: inserts, a delete, an upsert.
	if err := w.AppendInsert(100, series[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDelete(42); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendUpsert(7, series[2]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(101, series[3]); err != nil {
		t.Fatal(err)
	}
	if w.NextSeq() != 9 {
		t.Fatalf("next seq %d, want 9", w.NextSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []walEntry
	validEnd, tailErr, err := scanWAL(f, 8, func(e walEntry) error {
		cp := e
		cp.series = append([]float64(nil), e.series...)
		got = append(got, cp)
		return nil
	})
	if err != nil || tailErr != nil {
		t.Fatalf("scan: err=%v tail=%v", err, tailErr)
	}
	if want := int64(walHeaderSize + 3*walRecordSize(8) + walDeleteRecordSize); validEnd != want {
		t.Fatalf("validEnd %d, want %d", validEnd, want)
	}
	if len(got) != 4 {
		t.Fatalf("%d records, want 4", len(got))
	}
	wantOps := []byte{walOpInsert, walOpDelete, walOpUpsert, walOpInsert}
	wantIDs := []uint64{100, 42, 7, 101}
	for i, e := range got {
		if e.seq != uint64(5+i) {
			t.Fatalf("record %d seq %d, want %d", i, e.seq, 5+i)
		}
		if e.op != wantOps[i] || e.id != wantIDs[i] {
			t.Fatalf("record %d op=%d id=%d, want op=%d id=%d", i, e.op, e.id, wantOps[i], wantIDs[i])
		}
		if e.op == walOpDelete {
			if e.series != nil {
				t.Fatalf("delete record %d carries a series", i)
			}
			continue
		}
		for j := range e.series {
			if e.series[j] != series[i][j] {
				t.Fatalf("record %d value %d: %v != %v", i, j, e.series[j], series[i][j])
			}
		}
	}
}

func TestWALAppendLengthMismatch(t *testing.T) {
	w, err := createWAL(filepath.Join(t.TempDir(), "wal.log"), 8, 0, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendInsert(0, make([]float64, 7)); err == nil {
		t.Fatal("append of wrong-length insert succeeded")
	}
	if err := w.AppendUpsert(0, make([]float64, 9)); err == nil {
		t.Fatal("append of wrong-length upsert succeeded")
	}
}

// TestStoreRecoverReplaysWAL is the basic durability path: inserts after the
// initial checkpoint survive Close/Recover via WAL replay, with accurate
// stats, and the recovered index answers correctly.
func TestStoreRecoverReplaysWAL(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ix, baseLen := durableIndex(t, shards)
		dir := t.TempDir()
		st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.RecoveryStats(); got.CheckpointLen != baseLen || got.CheckpointVersion != savedIndexVersion {
			t.Fatalf("S=%d create stats %+v", shards, got)
		}
		extras := extraSeries(2, 7, 32)
		for i, s := range extras {
			id, err := st.Insert(s)
			if err != nil {
				t.Fatal(err)
			}
			if int(id) != baseLen+i {
				t.Fatalf("S=%d insert %d got id %d, want %d", shards, i, id, baseLen+i)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		rec, err := Recover(dir, DurableConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		stats := rec.RecoveryStats()
		if stats.Replayed != len(extras) || stats.Skipped != 0 || stats.TailError != nil || stats.DiscardedBytes != 0 {
			t.Fatalf("S=%d recovery stats %+v, want %d replayed and a clean tail", shards, stats, len(extras))
		}
		if got, want := rec.Index().Len(), baseLen+len(extras); got != want {
			t.Fatalf("S=%d recovered %d series, want %d", shards, got, want)
		}
		// Replayed rows are the z-normalized inserts, bit for bit (replay
		// shares the Insert path, float64 end to end).
		for i, s := range extras {
			want := distance.ZNormalized(s)
			row := rec.Index().Row(baseLen + i)
			for j := range want {
				if row[j] != want[j] {
					t.Fatalf("S=%d replayed row %d diverges at %d", shards, i, j)
				}
			}
		}
		if err := rec.Index().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreCheckpointResetsWAL: a checkpoint publishes the container and
// empties the log, so the next recovery replays nothing.
func TestStoreCheckpointResetsWAL(t *testing.T) {
	ix, baseLen := durableIndex(t, 2)
	dir := t.TempDir()
	st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	extras := extraSeries(3, 5, 32)
	for _, s := range extras {
		if _, err := st.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if st.WALSize() <= walHeaderSize {
		t.Fatalf("WAL size %d after %d inserts", st.WALSize(), len(extras))
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st.WALSize() != walHeaderSize {
		t.Fatalf("WAL size %d after checkpoint, want %d", st.WALSize(), walHeaderSize)
	}
	// Inserts keep flowing after a checkpoint, with ids continuing.
	if id, err := st.Insert(extras[0]); err != nil || int(id) != baseLen+len(extras) {
		t.Fatalf("post-checkpoint insert: id=%d err=%v", id, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	stats := rec.RecoveryStats()
	if stats.CheckpointLen != baseLen+len(extras) || stats.Replayed != 1 || stats.Skipped != 0 {
		t.Fatalf("recovery stats %+v, want checkpoint %d + 1 replayed", stats, baseLen+len(extras))
	}
}

// TestStoreIdempotentReplay models the crash window between a checkpoint's
// rename and its WAL truncation: the container already covers the log's
// records, so recovery must skip them by sequence number, not re-apply them.
func TestStoreIdempotentReplay(t *testing.T) {
	ix, baseLen := durableIndex(t, 2)
	dir := t.TempDir()
	st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	extras := extraSeries(4, 6, 32)
	for _, s := range extras {
		if _, err := st.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint that "crashes" after publishing the container but before
	// truncating the WAL: publish by hand, then abandon the store.
	if err := SaveFile(st.Index(), ContainerPath(dir)); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	abandonStore(st)

	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	stats := rec.RecoveryStats()
	if stats.Skipped != len(extras) || stats.Replayed != 0 || stats.TailError != nil {
		t.Fatalf("recovery stats %+v, want all %d records skipped", stats, len(extras))
	}
	if got, want := rec.Index().Len(), baseLen+len(extras); got != want {
		t.Fatalf("recovered %d series, want %d (idempotent replay duplicated inserts?)", got, want)
	}
}

// abandonStore simulates a crash: the store's file handle is closed raw —
// no sync, no checkpoint, no truncation — and the struct dropped.
func abandonStore(st *Store) { st.wal.f.Close() }

// TestRecoverTornTail: a WAL ending mid-record (the residue of a crash
// mid-append) recovers the valid prefix, classifies the tail as truncated,
// and counts the discarded bytes; StrictWAL refuses instead. The repaired
// log accepts further inserts whose ids continue the recovered prefix.
func TestRecoverTornTail(t *testing.T) {
	ix, baseLen := durableIndex(t, 2)
	dir := t.TempDir()
	st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	extras := extraSeries(5, 5, 32)
	for _, s := range extras {
		if _, err := st.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	abandonStore(st)

	// Tear the last record: cut 11 bytes off the file.
	const cut = 11
	path := WALPath(dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-cut); err != nil {
		t.Fatal(err)
	}

	if _, err := Recover(dir, DurableConfig{StrictWAL: true}); !errors.Is(err, ErrRecoveryTruncated) {
		t.Fatalf("strict recover err = %v, want ErrRecoveryTruncated", err)
	}

	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stats := rec.RecoveryStats()
	if stats.Replayed != len(extras)-1 {
		t.Fatalf("replayed %d, want %d", stats.Replayed, len(extras)-1)
	}
	if !errors.Is(stats.TailError, ErrRecoveryTruncated) {
		t.Fatalf("tail error %v, want ErrRecoveryTruncated", stats.TailError)
	}
	if want := int64(walRecordSize(32) - cut); stats.DiscardedBytes != want {
		t.Fatalf("discarded %d bytes, want %d", stats.DiscardedBytes, want)
	}
	if got, want := rec.Index().Len(), baseLen+len(extras)-1; got != want {
		t.Fatalf("recovered %d series, want %d", got, want)
	}
	// The torn tail was cut off: new inserts land where the lost record was.
	id, err := rec.Insert(extras[len(extras)-1])
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != baseLen+len(extras)-1 {
		t.Fatalf("post-repair insert id %d, want %d", id, baseLen+len(extras)-1)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	// And the repaired log replays cleanly.
	rec2, err := Recover(dir, DurableConfig{StrictWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if got, want := rec2.Index().Len(), baseLen+len(extras); got != want {
		t.Fatalf("re-recovered %d series, want %d", got, want)
	}
}

// TestRecoverCorruptRecord: a bit flip inside a record's payload fails its
// checksum; everything before it recovers, everything from it on is
// discarded as corrupt — even records after the flip that would checksum
// fine, because nothing past a corrupt record can be trusted.
func TestRecoverCorruptRecord(t *testing.T) {
	ix, baseLen := durableIndex(t, 2)
	dir := t.TempDir()
	st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	extras := extraSeries(6, 5, 32)
	for _, s := range extras {
		if _, err := st.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	abandonStore(st)

	// Flip one bit in the middle of record 2's payload.
	path := WALPath(dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := walHeaderSize + 2*walRecordSize(32) + walRecordHeaderSize + 20
	raw[off] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Recover(dir, DurableConfig{StrictWAL: true}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("strict recover err = %v, want ErrWALCorrupt", err)
	}
	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	stats := rec.RecoveryStats()
	if stats.Replayed != 2 || !errors.Is(stats.TailError, ErrWALCorrupt) {
		t.Fatalf("recovery stats %+v, want 2 replayed and a corrupt tail", stats)
	}
	if want := int64(3 * walRecordSize(32)); stats.DiscardedBytes != want {
		t.Fatalf("discarded %d bytes, want %d (corrupt record and everything after)", stats.DiscardedBytes, want)
	}
	if got, want := rec.Index().Len(), baseLen+2; got != want {
		t.Fatalf("recovered %d series, want %d", got, want)
	}
}

// TestRecoverBadHeader: an unusable WAL header (torn or corrupt before the
// first record boundary) discards the whole log and starts a fresh one; the
// checkpoint alone survives.
func TestRecoverBadHeader(t *testing.T) {
	ix, baseLen := durableIndex(t, 2)
	dir := t.TempDir()
	st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(extraSeries(7, 1, 32)[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	abandonStore(st)

	for name, corrupt := range map[string]func([]byte) []byte{
		"short":   func(raw []byte) []byte { return raw[:walHeaderSize-3] },
		"bitflip": func(raw []byte) []byte { raw[3] ^= 0x01; return raw },
	} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(WALPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			sub := t.TempDir()
			if err := copyFileForTest(ContainerPath(dir), ContainerPath(sub)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(WALPath(sub), corrupt(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(sub, DurableConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			stats := rec.RecoveryStats()
			if stats.Replayed != 0 || stats.TailError == nil || stats.DiscardedBytes == 0 {
				t.Fatalf("recovery stats %+v, want whole log discarded", stats)
			}
			if got := rec.Index().Len(); got != baseLen {
				t.Fatalf("recovered %d series, want checkpoint's %d", got, baseLen)
			}
			// The fresh log works: insert, close, recover again.
			if _, err := rec.Insert(extraSeries(8, 1, 32)[0]); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			rec2, err := Recover(sub, DurableConfig{StrictWAL: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rec2.Close()
			if got := rec2.Index().Len(); got != baseLen+1 {
				t.Fatalf("re-recovered %d series, want %d", got, baseLen+1)
			}
		})
	}
}

// TestRecoverRefusesOtherVersions: a store directory whose log (or
// container) was written in another format version is some other build's
// data, not damage. Recover must fail with ErrUnsupportedVersion — lenient
// and strict alike, where a merely corrupt header would be repaired away —
// and leave both files byte for byte as they were.
func TestRecoverRefusesOtherVersions(t *testing.T) {
	ix, _ := durableIndex(t, 2)
	dir := t.TempDir()
	st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(extraSeries(7, 1, 32)[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	container, err := os.ReadFile(ContainerPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	oldWAL := append([]byte(nil), wal...)
	oldWAL[7] = 1 // "SOFAWAL\x01": the acknowledged insert behind it must survive
	var oldContainer bytes.Buffer
	if err := gob.NewEncoder(&oldContainer).Encode(&savedIndex{Version: 4, Count: ix.Len()}); err != nil {
		t.Fatal(err)
	}
	for name, files := range map[string][2][]byte{
		"wal":       {container, oldWAL},
		"container": {oldContainer.Bytes(), wal},
	} {
		t.Run(name, func(t *testing.T) {
			sub := t.TempDir()
			if err := os.WriteFile(ContainerPath(sub), files[0], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(WALPath(sub), files[1], 0o644); err != nil {
				t.Fatal(err)
			}
			for _, strict := range []bool{false, true} {
				if _, err := Recover(sub, DurableConfig{StrictWAL: strict}); !errors.Is(err, ErrUnsupportedVersion) {
					t.Fatalf("strict=%v: %v, want ErrUnsupportedVersion", strict, err)
				}
				requireStoreFiles(t, sub, files[0], files[1])
			}
		})
	}
}

// TestRecoverMissingWAL: a directory holding only a container (a crash
// between CreateStore's checkpoint and its WAL creation) recovers with a
// fresh empty log.
func TestRecoverMissingWAL(t *testing.T) {
	ix, baseLen := durableIndex(t, 2)
	dir := t.TempDir()
	if err := SaveFile(ix, ContainerPath(dir)); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Index().Len(); got != baseLen {
		t.Fatalf("recovered %d series, want %d", got, baseLen)
	}
	if _, err := os.Stat(WALPath(dir)); err != nil {
		t.Fatalf("fresh WAL not created: %v", err)
	}
}

// TestCreateStoreRefusesExisting: initializing over a live durability
// directory is refused — two writers must not clobber one store.
func TestCreateStoreRefusesExisting(t *testing.T) {
	ix, _ := durableIndex(t, 1)
	dir := t.TempDir()
	st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := CreateStore(dir, ix, DurableConfig{}); err == nil {
		t.Fatal("CreateStore over an existing store succeeded")
	}
}

// TestStoreRoundTripProperty: for S ∈ {1, 4}, a store that interleaves
// inserts with checkpoints and crashes (abandon, no clean shutdown) recovers
// to answer queries with the same ids and distances (1e-6 relative — the
// checkpointed prefix crosses the container's f32 round trip, the reference
// does not) as a reference index holding the identical history.
func TestStoreRoundTripProperty(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ix, baseLen := durableIndex(t, shards)
		dir := t.TempDir()
		st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		extras := extraSeries(9, 9, 32)
		for i, s := range extras {
			if _, err := st.Insert(s); err != nil {
				t.Fatal(err)
			}
			if i == 2 || i == 5 {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		abandonStore(st)

		rec, err := Recover(dir, DurableConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		stats := rec.RecoveryStats()
		if stats.Replayed != 3 || stats.CheckpointLen != baseLen+6 {
			t.Fatalf("S=%d recovery stats %+v, want 3 replayed over checkpoint %d", shards, stats, baseLen+6)
		}

		// Reference: the same history applied to a never-persisted index.
		ref, _ := durableIndex(t, shards)
		for _, s := range extras {
			if _, err := ref.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(23))
		queries := mixedMatrix(rng, 5, 32)
		rs, ss := ref.NewSearcher(), rec.Index().NewSearcher()
		for qi := 0; qi < queries.Len(); qi++ {
			want, err := rs.Search(queries.Row(qi), 10)
			if err != nil {
				t.Fatal(err)
			}
			wantCopy := append([]Result(nil), want...)
			got, err := ss.Search(queries.Row(qi), 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(wantCopy) {
				t.Fatalf("S=%d q=%d: %d results, want %d", shards, qi, len(got), len(wantCopy))
			}
			for r := range got {
				if got[r].ID != wantCopy[r].ID {
					t.Fatalf("S=%d q=%d rank %d: id %d, want %d", shards, qi, r, got[r].ID, wantCopy[r].ID)
				}
				if d := math.Abs(got[r].Dist - wantCopy[r].Dist); d > 1e-6*(1+wantCopy[r].Dist) {
					t.Fatalf("S=%d q=%d rank %d: dist %v, want %v", shards, qi, r, got[r].Dist, wantCopy[r].Dist)
				}
			}
		}
	}
}

// TestStoreSearchZeroAlloc: the WAL's presence must not cost the query path
// its zero-allocation steady state — zero allocs on a durable store, and a
// store that has absorbed inserts allocates exactly what the same inserts
// cost without any WAL (the insert path's own per-query overhead, measured
// against a WAL-free twin so a WAL regression cannot hide behind it).
func TestStoreSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool allocation counts")
	}
	searchAllocs := func(ix *Index, query []float64) float64 {
		s := ix.NewSearcher()
		for i := 0; i < 3; i++ {
			if _, err := s.Search(query, 10); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := s.Search(query, 10); err != nil {
				t.Fatal(err)
			}
		})
	}
	rng := rand.New(rand.NewSource(77))
	query := mixedMatrix(rng, 1, 32).Row(0)
	extras := extraSeries(10, 3, 32)

	// Single shard is the engine's zero-alloc serial path (multi-shard
	// Search pays a fixed goroutine fan-out, WAL or not): absolute zero.
	ix1, _ := durableIndex(t, 1)
	st1, err := CreateStore(t.TempDir(), ix1, DurableConfig{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	for _, s := range extras {
		if _, err := st1.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if avg := searchAllocs(st1.Index(), query); avg != 0 {
		t.Errorf("steady-state Search on a durable store allocates %v allocs/op, want 0", avg)
	}

	// Sharded: the WAL must cost exactly nothing on top of a WAL-free twin
	// holding the identical history.
	ix2, _ := durableIndex(t, 2)
	st2, err := CreateStore(t.TempDir(), ix2, DurableConfig{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, s := range extras {
		if _, err := st2.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	twin, _ := durableIndex(t, 2)
	for _, s := range extras {
		if _, err := twin.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	withWAL, without := searchAllocs(st2.Index(), query), searchAllocs(twin, query)
	if withWAL != without {
		t.Errorf("steady-state Search allocates %v allocs/op with the WAL vs %v without", withWAL, without)
	}
}

// TestSaveFileAtomic: SaveFile over an existing container replaces it in one
// step and leaves no temp files behind (the injected mid-save crash variant
// lives in wal_crash_test.go).
func TestSaveFileAtomic(t *testing.T) {
	ixA, baseLenA := durableIndex(t, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.sofa")
	if err := SaveFile(ixA, path); err != nil {
		t.Fatal(err)
	}
	// Grow and re-save over the same path.
	for _, s := range extraSeries(11, 4, 32) {
		if _, err := ixA.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveFile(ixA, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Len(), baseLenA+4; got != want {
		t.Fatalf("reloaded %d series, want %d", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		for _, e := range entries {
			t.Logf("left behind: %s", e.Name())
		}
		t.Fatalf("%d directory entries after SaveFile, want 1 (temp file leaked?)", len(entries))
	}
}

// copyFileForTest duplicates a file (test fixture plumbing).
func copyFileForTest(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
