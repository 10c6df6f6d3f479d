package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/distance"
)

// FuzzWALReplay throws arbitrary bytes at the recovery path as the on-disk
// WAL: truncations, bit flips, forged lengths and record types, duplicated
// and out-of-order records, replays targeting dead ids, and pure garbage.
// Recovery must either fail with an error or recover exactly the valid
// prefix — never panic, never report stats that disagree with the bytes,
// never apply a mutation that differs from what a valid record encodes. The
// oracle is refWALParse, an independent bytes-only re-implementation of the
// scan and replay rules. A log carrying another format version is the one
// input recovery must refuse outright, leaving the directory as it found it.
func FuzzWALReplay(f *testing.F) {
	const seriesLen = 32
	rng := rand.New(rand.NewSource(93))
	data := mixedMatrix(rng, 80, seriesLen)
	ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.5, Shards: 2, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	baseLen := data.Len()
	var container bytes.Buffer
	if err := Save(ix, &container); err != nil {
		f.Fatal(err)
	}
	extra := extraSeries(7, 5, seriesLen)

	// A well-formed three-insert log to seed the corpus, written through the
	// real append path. A fresh build checkpoints at mutation seq 0.
	walPath := WALPath(f.TempDir())
	w, err := createWAL(walPath, seriesLen, 0, SyncNone, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i, s := range extra[:3] {
		if err := w.AppendInsert(uint64(baseLen+i), s); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(walPath)
	if err != nil {
		f.Fatal(err)
	}
	recSize := walRecordSize(seriesLen)
	rec := func(i int) []byte {
		return valid[walHeaderSize+i*recSize : walHeaderSize+(i+1)*recSize]
	}
	mutate := func(off int, bit byte) []byte {
		m := bytes.Clone(valid)
		m[off] ^= bit
		return m
	}
	f.Add(bytes.Clone(valid))                                                                    // clean log
	f.Add(valid[:walHeaderSize])                                                                 // empty log
	f.Add(valid[:walHeaderSize-1])                                                               // short header
	f.Add(valid[:walHeaderSize+100])                                                             // torn first record
	f.Add(valid[:walHeaderSize+recSize])                                                         // one clean record
	f.Add(valid[:len(valid)-11])                                                                 // torn last record
	f.Add(mutate(3, 0x40))                                                                       // header bit flip
	f.Add(mutate(walHeaderSize+recSize+40, 0x01))                                                // payload bit flip, record 1
	f.Add(mutate(walHeaderSize+walRecordHeaderSize, 0x02))                                       // op bit flip, record 0
	f.Add(mutate(walHeaderSize+walRecordHeaderSize+1, 0x80))                                     // seq bit flip, record 0
	f.Add(mutate(walHeaderSize+walRecordHeaderSize+9, 0x04))                                     // id bit flip, record 0
	f.Add(mutate(walHeaderSize, 0xFF))                                                           // forged length, record 0
	f.Add(append(bytes.Clone(valid), rec(0)...))                                                 // duplicate record
	f.Add(append(bytes.Clone(valid[:walHeaderSize]), append(bytes.Clone(rec(1)), rec(0)...)...)) // out of order
	f.Add(append(bytes.Clone(valid[:walHeaderSize]), rec(2)...))                                 // seq skips ahead
	f.Add([]byte{})
	f.Add([]byte("not a wal at all, just some bytes that happen to be here"))

	// A mixed-op log: insert, delete of the fresh insert, upsert and delete
	// of checkpoint ids — the typed-record shapes the fuzzer mutates from.
	mixedPath := WALPath(f.TempDir())
	w2, err := createWAL(mixedPath, seriesLen, 0, SyncNone, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := w2.AppendInsert(uint64(baseLen), extra[3]); err != nil {
		f.Fatal(err)
	}
	if err := w2.AppendDelete(uint64(baseLen)); err != nil {
		f.Fatal(err)
	}
	if err := w2.AppendUpsert(5, extra[4]); err != nil {
		f.Fatal(err)
	}
	if err := w2.AppendDelete(17); err != nil {
		f.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		f.Fatal(err)
	}
	mixed, err := os.ReadFile(mixedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(mixed))
	f.Add(mixed[:len(mixed)-9]) // torn tail inside the trailing delete record

	// Another build's log: the magic prefix under a different version byte,
	// once with that version's own header checksum (what an older build
	// wrote) and once as a bare byte change.
	older := bytes.Clone(valid)
	older[7] = 1
	binary.LittleEndian.PutUint32(older[12:], crc32.Checksum(older[:12], castagnoli))
	f.Add(older)
	f.Add(mutate(7, 0x01)) // version byte 2 -> 3

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(ContainerPath(dir), container.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPath(dir), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir, DurableConfig{Sync: SyncNone})
		if foreign := len(wal) >= walHeaderSize && string(wal[:7]) == walMagic[:7] && wal[7] != walMagic[7]; foreign {
			if !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("recover of a version-%d log: %v, want ErrUnsupportedVersion", wal[7], err)
			}
			if _, err := Recover(dir, DurableConfig{StrictWAL: true}); !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("strict recover of a version-%d log: %v, want ErrUnsupportedVersion", wal[7], err)
			}
			requireStoreFiles(t, dir, container.Bytes(), wal)
			return
		}
		if err != nil {
			// Refusing the log with an error is an acceptable outcome for
			// arbitrary bytes; the fuzz engine catches the unacceptable one
			// (a panic) on its own.
			return
		}
		muts, skipped, validEnd, clean := refWALParse(wal, seriesLen, baseLen)
		stats := st.RecoveryStats()
		if stats.CheckpointLen != baseLen {
			t.Fatalf("checkpoint len %d, want %d", stats.CheckpointLen, baseLen)
		}
		if stats.Replayed != len(muts) || stats.Skipped != skipped {
			t.Fatalf("replayed %d skipped %d, oracle says %d/%d",
				stats.Replayed, stats.Skipped, len(muts), skipped)
		}
		// Replay the oracle's mutation list against a trivial model: which
		// ids are live and, for ids the log touched, the series they hold.
		known := map[uint64][]float64{}
		deleted := map[uint64]bool{}
		liveCount := baseLen
		for _, m := range muts {
			switch m.op {
			case walOpInsert:
				known[m.id] = m.series
				liveCount++
			case walOpDelete:
				delete(known, m.id)
				deleted[m.id] = true
				liveCount--
			case walOpUpsert:
				known[m.id] = m.series
			}
		}
		if got := st.Index().Len(); got != liveCount {
			t.Fatalf("recovered live count %d, want %d", got, liveCount)
		}
		if clean {
			if stats.TailError != nil || stats.DiscardedBytes != 0 {
				t.Fatalf("clean log reported tail %v, %d discarded bytes",
					stats.TailError, stats.DiscardedBytes)
			}
		} else {
			if stats.TailError == nil {
				t.Fatalf("dirty log reported no tail error")
			}
			if want := int64(len(wal)) - validEnd; stats.DiscardedBytes != want {
				t.Fatalf("discarded %d bytes, oracle says %d", stats.DiscardedBytes, want)
			}
		}
		for id, s := range known {
			got, want := st.Index().Row(int(id)), distance.ZNormalized(s)
			if got == nil {
				t.Fatalf("replayed id %d resolves to no row", id)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("replayed id %d[%d] = %v, record encodes %v", id, j, got[j], want[j])
				}
			}
		}
		for id := range deleted {
			if st.Index().Row(int(id)) != nil {
				t.Fatalf("replayed delete of id %d left it resolvable", id)
			}
		}
		if err := st.Index().CheckInvariants(); err != nil {
			t.Fatalf("invariants after recovery: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		// Lenient recovery repaired the log in place (or replaced it), so a
		// second, strict recovery of the same directory must now be clean and
		// land on the identical index.
		st2, err := Recover(dir, DurableConfig{StrictWAL: true})
		if err != nil {
			t.Fatalf("strict re-recover after repair: %v", err)
		}
		s2 := st2.RecoveryStats()
		if s2.TailError != nil || s2.DiscardedBytes != 0 {
			t.Fatalf("repaired log still dirty: tail %v, %d discarded", s2.TailError, s2.DiscardedBytes)
		}
		if got := st2.Index().Len(); got != liveCount {
			t.Fatalf("re-recovered live count %d, want %d", got, liveCount)
		}
		st2.Close()
	})
}

// refMutation is one mutation the oracle says recovery must apply.
type refMutation struct {
	op     byte
	id     uint64
	series []float64 // raw record series; nil for delete
}

// requireStoreFiles asserts dir holds exactly the given container and log
// bytes and nothing else — what a refused Recover must leave behind.
func requireStoreFiles(t *testing.T, dir string, container, wal []byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("store directory holds %d entries after a refused recover, want 2", len(entries))
	}
	for path, want := range map[string][]byte{ContainerPath(dir): container, WALPath(dir): wal} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s changed by a refused recover", path)
		}
	}
}

// refWALParse is an independent re-implementation of the WAL scan and replay
// rules, operating on raw bytes only — the differential oracle for
// FuzzWALReplay. It models the collection's mutation state (live ids, the id
// the next insert is assigned, the mutation sequence number) exactly as the
// replay does, and returns the mutations recovery must apply in order, the
// count it must skip as checkpoint-covered, the byte offset just past the
// last valid record (0 for an unusable header), and whether the log ends
// cleanly on a record boundary. The checkpoint is a fresh build:
// checkpointLen live ids 0..checkpointLen-1, mutation seq 0.
func refWALParse(b []byte, seriesLen, checkpointLen int) (muts []refMutation, skipped int, validEnd int64, clean bool) {
	var want [walHeaderSize]byte
	encodeWALHeader(want[:], seriesLen)
	if len(b) < walHeaderSize || !bytes.Equal(b[:walHeaderSize], want[:]) {
		return nil, 0, 0, false
	}
	validEnd = walHeaderSize
	off := walHeaderSize
	decodeSeries := func(p []byte) []float64 {
		s := make([]float64, seriesLen)
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		return s
	}
	nextPub := uint64(checkpointLen)
	dead := map[uint64]bool{}
	var prev uint64
	seen := false

	// Typed variable-size records sequenced by the mutation counter.
	fullPayload := 17 + 8*seriesLen
	var have uint64
	for {
		rem := len(b) - off
		if rem == 0 {
			return muts, skipped, validEnd, true
		}
		if rem < walRecordHeaderSize {
			return muts, skipped, validEnd, false
		}
		rh := b[off : off+walRecordHeaderSize]
		plen := binary.LittleEndian.Uint32(rh[0:])
		if plen != 17 && plen != uint32(fullPayload) {
			return muts, skipped, validEnd, false
		}
		if rem < walRecordHeaderSize+int(plen) {
			return muts, skipped, validEnd, false
		}
		p := b[off+walRecordHeaderSize : off+walRecordHeaderSize+int(plen)]
		if binary.LittleEndian.Uint32(rh[4:]) != crc32.Checksum(p, castagnoli) {
			return muts, skipped, validEnd, false
		}
		op := p[0]
		seq := binary.LittleEndian.Uint64(p[1:])
		id := binary.LittleEndian.Uint64(p[9:])
		switch op {
		case walOpInsert, walOpUpsert:
			if int(plen) != fullPayload {
				return muts, skipped, validEnd, false
			}
		case walOpDelete:
			if plen != 17 {
				return muts, skipped, validEnd, false
			}
		default:
			return muts, skipped, validEnd, false
		}
		if seen && seq != prev+1 {
			return muts, skipped, validEnd, false
		}
		seen, prev = true, seq
		switch {
		case seq < have:
			skipped++
		case seq > have:
			return muts, skipped, validEnd, false
		default:
			liveID := id < nextPub && !dead[id]
			switch op {
			case walOpInsert:
				if id != nextPub { // replay assigns ids sequentially
					return muts, skipped, validEnd, false
				}
				muts = append(muts, refMutation{op: op, id: id, series: decodeSeries(p[17:])})
				nextPub++
			case walOpDelete:
				if !liveID { // ErrNotFound/ErrTombstoned classify as corrupt
					return muts, skipped, validEnd, false
				}
				dead[id] = true
				muts = append(muts, refMutation{op: op, id: id})
			case walOpUpsert:
				if !liveID {
					return muts, skipped, validEnd, false
				}
				muts = append(muts, refMutation{op: op, id: id, series: decodeSeries(p[17:])})
			}
			have++
		}
		off += walRecordHeaderSize + int(plen)
		validEnd = int64(off)
	}
}
