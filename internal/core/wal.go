package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/faultinject"
)

// This file is the write-ahead log half of the durability subsystem (see
// store.go for checkpoints and recovery). The WAL makes the mutation API
// crash-safe: each Insert, Delete, and Upsert is appended to the log as one
// checksummed typed record before it is applied to the in-memory collection,
// so a process that dies between checkpoints can replay the suffix of
// acknowledged mutations on restart.
//
// On-disk format — all integers little-endian, checksums CRC-32C (the
// container's checksum discipline):
//
//	header:  magic "SOFAWAL\x02" (8) | u32 seriesLen | u32 crc(magic+seriesLen)
//	record:  u32 payloadLen | u32 crc(payload) | payload
//	payload: u8 op | u64 seq | u64 id | [f64 × seriesLen]
//
// op is 1 (insert), 2 (delete), or 3 (upsert); the series block is present
// for insert and upsert and absent for delete, so payloadLen takes exactly
// two legal values per log — anything else is a forged length and classifies
// the tail as corrupt without being trusted for an allocation. id is the
// public id the mutation targets (for insert, the id it was assigned). seq
// is the collection's mutation sequence number at apply time, which is what
// makes recovery idempotent: a record whose seq is already covered by the
// loaded checkpoint (savedIndex.MutSeq) is skipped, not re-applied, so the
// crash window between a checkpoint's rename and its WAL truncation cannot
// duplicate mutations.
//
// The magic's last byte is the format version. A log whose magic has the
// "SOFAWAL" prefix under any other version byte is some other build's log:
// recovery refuses it with ErrUnsupportedVersion and leaves it untouched,
// rather than classifying it as a corrupt header and replacing it.

// SyncPolicy selects when the WAL fsyncs appended records. See the README's
// durability table for what each policy guarantees after kill -9.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged Insert is
	// durable. The default, and the only policy under which acknowledged
	// data cannot be lost to a power failure.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per configured interval (plus at
	// checkpoint and Close): a crash loses at most the last interval's
	// acknowledged inserts.
	SyncInterval
	// SyncNone never fsyncs outside checkpoint and Close: the OS decides
	// when appended records reach the disk. A process crash (the kernel
	// survives) loses nothing; a power failure can lose everything since
	// the last checkpoint.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ErrWALCorrupt reports a write-ahead log whose bytes fail validation — a
// checksum mismatch, a forged record length, or a sequence break. Recovery
// never trusts anything at or past the first corrupt record; by default the
// valid prefix is recovered and the tail discarded (reported via
// RecoveryStats), while DurableConfig.StrictWAL surfaces it as an error.
var ErrWALCorrupt = errors.New("core: write-ahead log corrupt")

// ErrRecoveryTruncated reports a write-ahead log that ends mid-record — the
// torn tail a crash during an append leaves behind. Like ErrWALCorrupt it is
// absorbed into RecoveryStats by default and surfaced only under
// DurableConfig.StrictWAL.
var ErrRecoveryTruncated = errors.New("core: write-ahead log truncated mid-record")

const (
	walMagic            = "SOFAWAL\x02"
	walHeaderSize       = 16
	walRecordHeaderSize = 8
	// The record type codes.
	walOpInsert byte = 1
	walOpDelete byte = 2
	walOpUpsert byte = 3
	// maxWriteRetries bounds the transient-write retry budget, mirroring the
	// read path's maxReadRetries: storage hiccups clear within a few
	// attempts; anything that survives the budget surfaces.
	maxWriteRetries = 3
)

// WAL is an append-only mutation log. It is not safe for concurrent use —
// like the Store write methods, which are the only writers — and is managed
// by Store; tests exercise it directly.
type WAL struct {
	f         *os.File
	path      string
	seriesLen int
	next      uint64 // seq the next appended record will carry
	size      int64  // file offset after the last fully acknowledged write
	policy    SyncPolicy
	interval  time.Duration
	lastSync  time.Time
	dirty     bool
	buf       []byte

	// failed latches the first surfaced append/sync error. Once a write
	// failed, the file's tail state is unknown (a torn record may sit past
	// size, and the file offset with it) — appending more would splice valid
	// records behind garbage, silently un-durable. Every later Append/Sync
	// refuses with this error; the owner must close and Recover.
	failed error
}

// walRecordSize is the full on-disk size of one series-carrying record
// (insert or upsert) for the given series length — the larger of the two
// legal record sizes, and what crash tests size their tears against.
func walRecordSize(seriesLen int) int {
	return walRecordHeaderSize + 17 + 8*seriesLen
}

// walDeleteRecordSize is the full on-disk size of one delete record
// (series-free).
const walDeleteRecordSize = walRecordHeaderSize + 17

// encodeWALHeader fills a 16-byte WAL file header.
func encodeWALHeader(dst []byte, seriesLen int) {
	copy(dst[:8], walMagic)
	binary.LittleEndian.PutUint32(dst[8:], uint32(seriesLen))
	binary.LittleEndian.PutUint32(dst[12:], crc32.Checksum(dst[:12], castagnoli))
}

// createWAL writes a fresh log at path (truncating any previous file)
// whose first record will carry sequence number next. The header is synced
// before returning, so a crash right after createWAL leaves a valid empty
// log.
func createWAL(path string, seriesLen int, next uint64, policy SyncPolicy, interval time.Duration) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderSize]byte
	encodeWALHeader(hdr[:], seriesLen)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{
		f: f, path: path, seriesLen: seriesLen, next: next,
		size: walHeaderSize, policy: policy, interval: interval,
		lastSync: time.Now(),
	}, nil
}

// NextSeq returns the sequence number the next appended record will carry.
func (w *WAL) NextSeq() uint64 { return w.next }

// Size returns the log's acknowledged byte size (header included).
func (w *WAL) Size() int64 { return w.size }

// AppendInsert logs one insert: the raw (pre-normalization) series and the
// public id it was assigned.
func (w *WAL) AppendInsert(id uint64, series []float64) error {
	if len(series) != w.seriesLen {
		return fmt.Errorf("core: wal append: series length %d, want %d", len(series), w.seriesLen)
	}
	return w.append(walOpInsert, id, series)
}

// AppendDelete logs one delete of the given public id.
func (w *WAL) AppendDelete(id uint64) error {
	return w.append(walOpDelete, id, nil)
}

// AppendUpsert logs one upsert: the raw replacement series for the given
// public id.
func (w *WAL) AppendUpsert(id uint64, series []float64) error {
	if len(series) != w.seriesLen {
		return fmt.Errorf("core: wal append: series length %d, want %d", len(series), w.seriesLen)
	}
	return w.append(walOpUpsert, id, series)
}

// append logs one mutation record under the next sequence number. The record
// is fully buffered before any byte reaches the file, then written in one
// call and fsynced per the sync policy. Transient write and sync errors (the
// net-style Temporary contract, or injected transient faults in chaos
// builds) are retried under a bounded jittered backoff before surfacing.
func (w *WAL) append(op byte, id uint64, series []float64) error {
	if w.failed != nil {
		return fmt.Errorf("core: wal wedged by earlier failure: %w", w.failed)
	}
	need := walDeleteRecordSize
	if series != nil {
		need = walRecordSize(w.seriesLen)
	}
	if cap(w.buf) < need {
		w.buf = make([]byte, need)
	}
	rec := w.buf[:need]
	payload := rec[walRecordHeaderSize:]
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	payload[0] = op
	binary.LittleEndian.PutUint64(payload[1:], w.next)
	binary.LittleEndian.PutUint64(payload[9:], id)
	for i, v := range series {
		binary.LittleEndian.PutUint64(payload[17+8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))
	if err := w.write(rec); err != nil {
		return err
	}
	w.next++
	w.size += int64(need)
	w.dirty = true
	return w.maybeSync()
}

// write issues one record write with the transient-retry contract. A fatal
// injected append fault tears the record — half its bytes reach the file —
// before surfacing, modelling the torn tail a crash mid-append leaves; a
// transient one is retried without touching the file. Any surfaced error
// wedges the log (see WAL.failed).
func (w *WAL) write(rec []byte) error {
	delay := time.Millisecond
	for attempt := 0; ; attempt++ {
		if faultinject.Enabled {
			if err := faultinject.Hook(faultinject.SiteWALAppend); err != nil {
				if faultinject.IsTransient(err) && attempt < maxWriteRetries {
					sleepJittered(&delay)
					continue
				}
				w.f.Write(rec[:len(rec)/2])
				w.failed = err
				return fmt.Errorf("core: wal append: %w", err)
			}
		}
		n, err := w.f.Write(rec)
		if err == nil {
			return nil
		}
		// A partial write already tore the file; retrying would splice a
		// fresh record after garbage, corrupting the log past the tear.
		if n > 0 || !isTransientRead(err) || attempt >= maxWriteRetries {
			w.failed = err
			return fmt.Errorf("core: wal append: %w", err)
		}
		sleepJittered(&delay)
	}
}

// Sync flushes appended records to stable storage, retrying transient fsync
// errors under the same bounded jittered backoff as writes. A no-op when
// nothing was appended since the last sync.
func (w *WAL) Sync() error {
	if w.failed != nil {
		return fmt.Errorf("core: wal wedged by earlier failure: %w", w.failed)
	}
	if !w.dirty {
		return nil
	}
	delay := time.Millisecond
	for attempt := 0; ; attempt++ {
		if faultinject.Enabled {
			if err := faultinject.Hook(faultinject.SiteWALSync); err != nil {
				if faultinject.IsTransient(err) && attempt < maxWriteRetries {
					sleepJittered(&delay)
					continue
				}
				// A failed fsync poisons too: the kernel may have dropped the
				// dirty pages, so "retry the fsync later" silently lies.
				w.failed = err
				return fmt.Errorf("core: wal sync: %w", err)
			}
		}
		err := w.f.Sync()
		if err == nil {
			w.dirty = false
			w.lastSync = time.Now()
			return nil
		}
		if !isTransientRead(err) || attempt >= maxWriteRetries {
			w.failed = err
			return fmt.Errorf("core: wal sync: %w", err)
		}
		sleepJittered(&delay)
	}
}

// maybeSync applies the sync policy after an append.
func (w *WAL) maybeSync() error {
	switch w.policy {
	case SyncAlways:
		return w.Sync()
	case SyncInterval:
		if time.Since(w.lastSync) >= w.interval {
			return w.Sync()
		}
	}
	return nil
}

// truncateTo rolls the log back to a prior acknowledged size — the repair
// path when an append succeeded but the in-memory mutation behind it failed,
// which would otherwise leave a record recovery replays but the running
// index never held.
func (w *WAL) truncateTo(size int64, next uint64) error {
	if err := w.f.Truncate(size); err != nil {
		return fmt.Errorf("core: wal rollback: %w", err)
	}
	if _, err := w.f.Seek(size, io.SeekStart); err != nil {
		return fmt.Errorf("core: wal rollback: %w", err)
	}
	w.size = size
	w.next = next
	w.dirty = true
	return nil
}

// Close syncs outstanding records and closes the file.
func (w *WAL) Close() error {
	syncErr := w.Sync()
	closeErr := w.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// sleepJittered sleeps the current backoff delay plus up to 50% random
// jitter (so parallel retriers do not stampede in phase), then doubles the
// delay for the next attempt.
func sleepJittered(delay *time.Duration) {
	d := *delay
	time.Sleep(d + time.Duration(rand.Int64N(int64(d)/2+1)))
	*delay = d * 2
}

// walEntry is one decoded record during recovery.
type walEntry struct {
	op     byte
	seq    uint64
	id     uint64
	series []float64 // nil for delete records
}

// scanWAL validates and decodes the log at f front to back, invoking apply
// for every intact record. It returns the byte offset just past the last
// valid record (validEnd) and classifies how the scan ended: tailErr is nil
// for a log that ends exactly on a record boundary, wraps
// ErrRecoveryTruncated for a torn tail, and wraps ErrWALCorrupt for a
// checksum mismatch, forged length, unknown record type, bad header, or an
// apply rejection — everything from the offending record on is untrusted.
// Errors returned by apply that do not wrap ErrWALCorrupt abort the scan as
// real failures (err non-nil); I/O errors from f do the same, and so does a
// header carrying another format version (ErrUnsupportedVersion): that log
// is not damaged, it is someone else's, and must not be repaired away.
func scanWAL(f *os.File, seriesLen int, apply func(walEntry) error) (validEnd int64, tailErr, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	fileSize := info.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, nil, err
	}
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Shorter than a header: nothing in this file is usable, not
			// even the header — the whole file is the discarded tail.
			return 0, fmt.Errorf("core: wal header short (%d bytes): %w", fileSize, ErrRecoveryTruncated), nil
		}
		return 0, nil, err
	}
	var want [walHeaderSize]byte
	encodeWALHeader(want[:], seriesLen)
	if hdr != want {
		if got, want := hdr[7], want[7]; got != want && string(hdr[:7]) == walMagic[:7] {
			return 0, nil, fmt.Errorf("core: write-ahead log is version %d, this build reads only version %d "+
				"(an older log upgrades by opening its directory once with an earlier build; see README \"Persistence\"): %w",
				got, want, ErrUnsupportedVersion)
		}
		return 0, fmt.Errorf("core: wal header mismatch: %w", ErrWALCorrupt), nil
	}
	validEnd = walHeaderSize
	tailErr, err = scanRecords(f, seriesLen, &validEnd, apply)
	return validEnd, tailErr, err
}

// scanRecords decodes the typed records after the header: a fixed 8-byte
// record header declaring one of the two legal payload lengths, then the
// payload.
func scanRecords(f *os.File, seriesLen int, validEnd *int64, apply func(walEntry) error) (tailErr, err error) {
	fullPayload := 17 + 8*seriesLen
	payload := make([]byte, fullPayload)
	series := make([]float64, seriesLen)
	var rh [walRecordHeaderSize]byte
	for {
		n, rerr := io.ReadFull(f, rh[:])
		if rerr == io.EOF {
			return nil, nil
		}
		if rerr == io.ErrUnexpectedEOF {
			return fmt.Errorf("core: wal record header at offset %d short (%d of %d bytes): %w",
				*validEnd, n, walRecordHeaderSize, ErrRecoveryTruncated), nil
		}
		if rerr != nil {
			return nil, rerr
		}
		plen := binary.LittleEndian.Uint32(rh[0:])
		if plen != 17 && plen != uint32(fullPayload) {
			return fmt.Errorf("core: wal record at offset %d: forged length %d (want 17 or %d): %w",
				*validEnd, plen, fullPayload, ErrWALCorrupt), nil
		}
		p := payload[:plen]
		if n, rerr := io.ReadFull(f, p); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return fmt.Errorf("core: wal record at offset %d short (%d of %d payload bytes): %w",
					*validEnd, n, plen, ErrRecoveryTruncated), nil
			}
			return nil, rerr
		}
		if got, want := binary.LittleEndian.Uint32(rh[4:]), crc32.Checksum(p, castagnoli); got != want {
			return fmt.Errorf("core: wal record at offset %d: checksum %08x, want %08x: %w",
				*validEnd, got, want, ErrWALCorrupt), nil
		}
		e := walEntry{
			op:  p[0],
			seq: binary.LittleEndian.Uint64(p[1:]),
			id:  binary.LittleEndian.Uint64(p[9:]),
		}
		switch e.op {
		case walOpInsert, walOpUpsert:
			if int(plen) != fullPayload {
				return fmt.Errorf("core: wal record at offset %d: series-free %s record: %w",
					*validEnd, walOpName(e.op), ErrWALCorrupt), nil
			}
			for i := range series {
				series[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[17+8*i:]))
			}
			e.series = series
		case walOpDelete:
			if plen != 17 {
				return fmt.Errorf("core: wal record at offset %d: delete record carries a series: %w",
					*validEnd, ErrWALCorrupt), nil
			}
		default:
			return fmt.Errorf("core: wal record at offset %d: unknown record type %d: %w",
				*validEnd, e.op, ErrWALCorrupt), nil
		}
		if aerr := apply(e); aerr != nil {
			if errors.Is(aerr, ErrWALCorrupt) {
				return aerr, nil
			}
			return nil, aerr
		}
		*validEnd += int64(walRecordHeaderSize) + int64(plen)
	}
}

// walOpName names a record type for error messages.
func walOpName(op byte) string {
	switch op {
	case walOpInsert:
		return "insert"
	case walOpDelete:
		return "delete"
	case walOpUpsert:
		return "upsert"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}
