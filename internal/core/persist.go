package core

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/sfa"
)

// ErrUnsupportedVersion reports a container or write-ahead log written in a
// format version this build does not read. There is exactly one container
// version (savedIndexVersion) and one WAL version (walMagic); a file in any
// other version is refused before a byte of it is trusted and is never
// modified. README, "Persistence", gives each older version's upgrade path.
var ErrUnsupportedVersion = errors.New("core: unsupported format version")

// savedIndexVersion is the one container version Save writes and Load reads.
const savedIndexVersion = 6

// savedIndex is the gob-serialized container, in three parts.
//
// The header — the scalars, the collection's SFA tables and the mutable-index
// state (mutation sequence, public-id count and tables, per-shard row counts,
// tombstone bitmaps, re-learned shard quantizations) — is small and says how
// to read the rest.
//
// DataBytes is the series data as raw little-endian float32 (the paper's
// on-disk precision), shard-major: shard 0's rows then shard 1's, each in
// local id order, because compaction makes per-shard row counts diverge.
// Count is the physical row count (live + tombstoned). Rows are
// re-z-normalized on load, so the exactness guarantee holds against the
// loaded data.
//
// Each shard's payload is its finalized tree shape with the leaf refinement
// blocks, which hold the shard's only copy of its full-cardinality words, so
// Load reconstructs every tree by direct decode — no re-bucketing, no
// re-splitting. Bulk payloads are []byte because gob moves those as single
// block copies instead of per-element decodes.
//
// Two CRC-32C tiers cover the file, because gob framing only detects
// corruption that breaks its structure and a bit flip inside a payload would
// otherwise load cleanly and silently change answers: Checksum covers the
// header and DataBytes, ShardChecksums[i] shard i's payload — so a flip there
// fails the load with an error naming the shard.
type savedIndex struct {
	Version      int
	Method       Method
	WordLength   int
	Bits         int // always index.SymbolBits; a load refuses anything else
	LeafCapacity int
	SeriesLen    int
	Count        int
	SFA          *sfa.State

	Shards         int
	DataBytes      []byte
	ShardShapes    []packedShape
	Checksum       uint32
	ShardChecksums []uint32

	// MutSeq is the collection's mutation sequence at save time; recovery
	// replays only WAL records past it.
	MutSeq uint64
	// PubCount is the number of public ids ever assigned.
	PubCount int64
	// ShardCounts[i] is shard i's physical row count (the shard-major data
	// layout and per-shard streams are sized by it).
	ShardCounts []int32
	// ShardDead[i] / ShardDeadCounts[i] is shard i's tombstone bitmap and
	// its population (nil / 0 for a shard without tombstones).
	ShardDead       [][]uint64
	ShardDeadCounts []int32
	// ShardPubs[i] maps shard i's local ids to public ids; nil when every
	// shard still has the identity layout (pub = local*S + shard).
	ShardPubs [][]int32
	// ShardSFA[i] is shard i's own quantization, re-learned at a compaction.
	// A nil slice means no shard re-learned; once one has, the others are
	// stored as the zero State (gob cannot encode a nil element), which like
	// a nil entry means the shard uses the collection's: see ownSFA.
	ShardSFA []*sfa.State
}

// ownSFA returns shard i's own re-learned quantization state, or nil when
// the shard shares the collection's.
func (s *savedIndex) ownSFA(i int) *sfa.State {
	if i >= len(s.ShardSFA) || s.ShardSFA[i] == nil || s.ShardSFA[i].N == 0 {
		return nil
	}
	return s.ShardSFA[i]
}

// globalChecksum is the global CRC: the header scalars (a flipped Method or
// WordLength is as answer-corrupting as flipped data), the SFA learned
// tables, the mutable-index state and the series data, in fixed order. The
// per-shard payloads are not in it — they fail their own ShardChecksums.
func globalChecksum(s *savedIndex) uint32 {
	h := crc32.New(castagnoli)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(s.Version))
	put(uint64(s.Method))
	put(uint64(s.WordLength))
	put(uint64(s.Bits))
	put(uint64(s.LeafCapacity))
	put(uint64(s.SeriesLen))
	put(uint64(s.Count))
	put(uint64(s.Shards))
	put(0) // a flag earlier builds hashed here; always false in this version
	if s.SFA != nil {
		hashSFAState(put, s.SFA)
	}
	put(s.MutSeq)
	put(uint64(s.PubCount))
	for _, v := range s.ShardCounts {
		put(uint64(uint32(v)))
	}
	for _, dead := range s.ShardDead {
		put(uint64(len(dead)))
		for _, w := range dead {
			put(w)
		}
	}
	for _, v := range s.ShardDeadCounts {
		put(uint64(uint32(v)))
	}
	put(uint64(len(s.ShardPubs)))
	for _, pubs := range s.ShardPubs {
		put(uint64(len(pubs)))
		for _, v := range pubs {
			put(uint64(uint32(v)))
		}
	}
	put(uint64(len(s.ShardSFA)))
	for i := range s.ShardSFA {
		st := s.ownSFA(i)
		if st == nil {
			put(0)
			continue
		}
		put(1)
		hashSFAState(put, st)
	}
	h.Write(s.DataBytes)
	return h.Sum32()
}

// hashSFAState feeds one SFA quantizer state into the running header hash
// in fixed order (shared by the collection quantizer and the per-shard
// re-learned ones).
func hashSFAState(put func(uint64), st *sfa.State) {
	put(uint64(st.N))
	put(uint64(st.L))
	put(uint64(st.Bits))
	put(uint64(st.NCoeffs))
	for _, v := range st.Indices {
		put(uint64(v))
	}
	for _, v := range st.Variances {
		put(math.Float64bits(v))
	}
	for _, v := range st.Weights {
		put(math.Float64bits(v))
	}
	for _, bps := range st.Breakpoints {
		put(uint64(len(bps)))
		for _, v := range bps {
			put(math.Float64bits(v))
		}
	}
}

// shardChecksum is shard i's CRC: its packed shape streams, leaf blocks
// included, in fixed order.
func shardChecksum(p packedShape) uint32 {
	h := crc32.New(castagnoli)
	h.Write([]byte{p.RootBits})
	h.Write(p.RootKeys)
	h.Write(p.Splits)
	h.Write(p.LeafCounts)
	h.Write(p.LeafNoSplit)
	h.Write(p.IDs)
	h.Write(p.LeafBlocks)
	return h.Sum32()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// packedShape is an index.TreeShape with every stream packed into raw
// little-endian bytes. gob decodes []byte with one block copy but pays a
// per-element decode for typed slices — on a 20k-series container the
// difference is what keeps the load I/O-bound rather than gob-bound.
type packedShape struct {
	RootBits    uint8  // root fan-out width of the saved tree
	RootKeys    []byte // 8 bytes per key
	Splits      []byte // 2 bytes per node (int16)
	LeafCounts  []byte // 4 bytes per leaf (int32)
	LeafNoSplit []byte // 1 byte per leaf
	IDs         []byte // 4 bytes per series (int32)
	LeafBlocks  []byte // as in TreeShape
}

func packShape(s index.TreeShape) packedShape {
	p := packedShape{
		RootBits:    uint8(s.RootBits),
		RootKeys:    make([]byte, 8*len(s.RootKeys)),
		Splits:      make([]byte, 2*len(s.Splits)),
		LeafCounts:  make([]byte, 4*len(s.LeafCounts)),
		LeafNoSplit: make([]byte, len(s.LeafNoSplit)),
		IDs:         make([]byte, 4*len(s.IDs)),
		LeafBlocks:  s.LeafBlocks,
	}
	for i, k := range s.RootKeys {
		binary.LittleEndian.PutUint64(p.RootKeys[8*i:], k)
	}
	for i, v := range s.Splits {
		binary.LittleEndian.PutUint16(p.Splits[2*i:], uint16(v))
	}
	for i, v := range s.LeafCounts {
		binary.LittleEndian.PutUint32(p.LeafCounts[4*i:], uint32(v))
	}
	for i, b := range s.LeafNoSplit {
		if b {
			p.LeafNoSplit[i] = 1
		}
	}
	for i, v := range s.IDs {
		binary.LittleEndian.PutUint32(p.IDs[4*i:], uint32(v))
	}
	return p
}

func unpackShape(p packedShape) (index.TreeShape, error) {
	if len(p.RootKeys)%8 != 0 || len(p.Splits)%2 != 0 || len(p.LeafCounts)%4 != 0 || len(p.IDs)%4 != 0 {
		return index.TreeShape{}, fmt.Errorf("core: misaligned packed tree shape")
	}
	s := index.TreeShape{
		RootBits:    int(p.RootBits),
		RootKeys:    make([]uint64, len(p.RootKeys)/8),
		Splits:      make([]int16, len(p.Splits)/2),
		LeafCounts:  make([]int32, len(p.LeafCounts)/4),
		LeafNoSplit: make([]bool, len(p.LeafNoSplit)),
		IDs:         make([]int32, len(p.IDs)/4),
		LeafBlocks:  p.LeafBlocks,
	}
	for i := range s.RootKeys {
		s.RootKeys[i] = binary.LittleEndian.Uint64(p.RootKeys[8*i:])
	}
	for i := range s.Splits {
		s.Splits[i] = int16(binary.LittleEndian.Uint16(p.Splits[2*i:]))
	}
	for i := range s.LeafCounts {
		s.LeafCounts[i] = int32(binary.LittleEndian.Uint32(p.LeafCounts[4*i:]))
	}
	for i, b := range p.LeafNoSplit {
		s.LeafNoSplit[i] = b != 0
	}
	for i := range s.IDs {
		s.IDs[i] = int32(binary.LittleEndian.Uint32(p.IDs[4*i:]))
	}
	return s, nil
}

// Save serializes the index to w: summarization tables, series data, each
// shard's finalized tree shape and leaf blocks so Load is a direct decode,
// per-shard payload checksums so load-time corruption is attributable to
// one shard, and the mutable-index state (tombstone bitmaps, public-id
// tables, re-learned shard quantizations, mutation sequence). See savedIndex
// for the layout.
func Save(ix *Index, w io.Writer) error {
	col := ix.col
	bw := bufio.NewWriterSize(w, 1<<20)
	s := savedIndex{
		Version:        savedIndexVersion,
		Method:         col.method,
		WordLength:     col.cfg.WordLength,
		Bits:           index.SymbolBits,
		LeafCapacity:   col.cfg.LeafCapacity,
		SeriesLen:      col.SeriesLen(),
		Count:          col.PhysLen(),
		Shards:         col.Shards(),
		ShardShapes:    make([]packedShape, col.Shards()),
		ShardChecksums: make([]uint32, col.Shards()),
	}
	s.DataBytes = make([]byte, s.Count*col.SeriesLen()*4)
	base := 0
	for i := range col.states {
		st := col.state(i)
		s.ShardShapes[i] = packShape(st.tree.Shape())
		s.ShardChecksums[i] = shardChecksum(s.ShardShapes[i])
		for local := 0; local < st.tree.Len(); local++ {
			for j, v := range st.data.Row(local) {
				binary.LittleEndian.PutUint32(s.DataBytes[base+4*j:], math.Float32bits(float32(v)))
			}
			base += col.SeriesLen() * 4
		}
	}
	if col.sfaQ != nil {
		st := col.sfaQ.State()
		s.SFA = &st
	}
	col.fillSavedMutationState(&s)
	s.Checksum = globalChecksum(&s)
	if err := gob.NewEncoder(bw).Encode(&s); err != nil {
		return fmt.Errorf("core: encoding index: %w", err)
	}
	return bw.Flush()
}

// fillSavedMutationState copies the collection's mutable-index state into a
// container under the mutation lock (bitmaps and id tables alias
// live mutation state, so they are deep-copied).
func (c *Collection) fillSavedMutationState(s *savedIndex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.MutSeq = c.mutSeq.Load()
	s.PubCount = c.pubCount
	s.ShardCounts = make([]int32, len(c.states))
	s.ShardDead = make([][]uint64, len(c.states))
	s.ShardDeadCounts = make([]int32, len(c.states))
	hasPubs := false
	hasSFA := false
	for i := range c.states {
		st := c.state(i)
		s.ShardCounts[i] = int32(st.tree.Len())
		if dead, n := st.tree.Tombstones(); n > 0 {
			s.ShardDead[i] = append([]uint64(nil), dead...)
			s.ShardDeadCounts[i] = int32(n)
		}
		hasPubs = hasPubs || st.pubOf != nil
		hasSFA = hasSFA || st.relearned
	}
	if hasPubs {
		s.ShardPubs = make([][]int32, len(c.states))
		for i := range c.states {
			s.ShardPubs[i] = append([]int32(nil), c.state(i).pubOf...)
		}
	}
	if hasSFA {
		s.ShardSFA = make([]*sfa.State, len(c.states))
		for i := range c.states {
			s.ShardSFA[i] = &sfa.State{} // shares the collection's quantization
			st := c.state(i)
			if !st.relearned {
				continue
			}
			if q, ok := st.tree.Sum().(summarization); ok {
				sq := q.Quantizer.State()
				s.ShardSFA[i] = &sq
			}
		}
	}
}

// applySavedMutationState installs a container's mutation state into a
// freshly built collection: per-shard tombstone bitmaps, the public id
// tables, the mutation sequence number, and the re-learned markers. It
// validates the id tables as a bijection over the live rows before trusting
// them — a corrupted table must fail the load, not return wrong ids.
func (c *Collection) applySavedMutationState(s *savedIndex) error {
	shards := int64(len(c.states))
	dead := 0
	for i := range c.states {
		st := c.state(i)
		n := int(s.ShardDeadCounts[i])
		if n < 0 {
			return fmt.Errorf("core: shard %d tombstone count %d negative", i, n)
		}
		dead += n
		if n == 0 && s.ShardDead[i] == nil {
			continue
		}
		if err := st.tree.SetTombstones(append([]uint64(nil), s.ShardDead[i]...), n); err != nil {
			return fmt.Errorf("core: shard %d: %w", i, err)
		}
	}
	c.initMutationState(s.PubCount, dead)
	c.mutSeq.Store(s.MutSeq)

	for i := range c.states {
		if s.ownSFA(i) != nil {
			c.state(i).relearned = true
		}
	}

	if s.ShardPubs == nil {
		// Identity layout: pub = local*S + shard, which requires every public
		// id to name a physical row and vice versa.
		if s.PubCount != int64(s.Count) {
			return fmt.Errorf("core: container has %d public ids for %d rows but no id table", s.PubCount, s.Count)
		}
		return nil
	}
	pub2loc := make([]int64, s.PubCount)
	for p := range pub2loc {
		pub2loc[p] = -1
	}
	for i := range c.states {
		pubs := s.ShardPubs[i]
		if len(pubs) != int(s.ShardCounts[i]) {
			return fmt.Errorf("core: shard %d id table has %d entries for %d rows", i, len(pubs), s.ShardCounts[i])
		}
		st := c.state(i)
		for local, pub := range pubs {
			if int64(pub) < 0 || int64(pub) >= s.PubCount {
				return fmt.Errorf("core: shard %d row %d claims public id %d outside [0,%d)", i, local, pub, s.PubCount)
			}
			if st.tree != nil && st.tree.Tombstoned(int32(local)) {
				// Tombstoned rows keep their (retired or superseded) id in
				// pubOf; only live rows claim pub2loc entries.
				continue
			}
			if pub2loc[pub] != -1 {
				return fmt.Errorf("core: public id %d claimed by two live rows", pub)
			}
			pub2loc[pub] = int64(local)*shards + int64(i)
		}
		st.pubOf = append([]int32(nil), pubs...)
	}
	c.pub2loc = pub2loc
	return nil
}

// SaveFile writes the index to a file atomically: the container is written
// to a temp file in the same directory, fsynced, renamed over path, and the
// directory fsynced. A crash at any point leaves either the old file or the
// new one — never a truncated hybrid (os.Create in place, the previous
// behaviour, destroyed the last good container the moment the save began).
func SaveFile(ix *Index, path string) error {
	return atomicWriteFile(path, func(w io.Writer) error {
		return Save(ix, w)
	})
}

// atomicWriteFile publishes the output of write at path with
// temp+fsync+rename+dir-fsync crash atomicity. The temp file is created in
// path's directory (rename must not cross filesystems) and removed on any
// failure. In chaos builds the temp file's writes run through faultWriter
// (SitePersistWrite) and the commit point is guarded by SiteCheckpointRename.
func atomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	var w io.Writer = f
	if faultinject.Enabled {
		w = &faultWriter{w: f}
	}
	if err := write(w); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if faultinject.Enabled {
		if err := faultinject.Hook(faultinject.SiteCheckpointRename); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("core: atomic save of %s: %w", filepath.Base(path), err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Filesystems that refuse directory fsync (some network mounts) are
// tolerated: the rename itself is still atomic there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	d.Sync()
	return d.Close()
}

// faultWriter threads SitePersistWrite through every chunk the container
// saver writes to the temp file. A fatal injected fault tears the chunk —
// half its bytes reach the file — before surfacing, modelling a crash
// mid-save; transient faults retry under the read path's bounded backoff.
// Only chaos builds construct one.
type faultWriter struct {
	w io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	if faultinject.Enabled {
		for attempt := 0; ; attempt++ {
			err := faultinject.Hook(faultinject.SitePersistWrite)
			if err == nil {
				break
			}
			if faultinject.IsTransient(err) && attempt < maxReadRetries {
				continue
			}
			n, _ := fw.w.Write(p[:len(p)/2])
			return n, err
		}
	}
	return fw.w.Write(p)
}

// LoadStats reports where a Load spent its time.
type LoadStats struct {
	// Version is the container version of the loaded file.
	Version int
	// Bytes is the number of bytes read from the container.
	Bytes int64
	// DecodeSeconds covers gob decode, validation, and re-normalizing the
	// float32 data into the per-shard matrices.
	DecodeSeconds float64
	// TreeSeconds is the wall-clock time of the parallel per-shard tree
	// phase: decoding each shard's saved shape and re-verifying its
	// invariants, leaf blocks included.
	TreeSeconds float64
	// TotalSeconds is the whole Load call.
	TotalSeconds float64
}

// countingReader counts bytes consumed from the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// maxReadRetries bounds the retry budget of retryReader: transient storage
// hiccups clear within a few attempts; anything that survives the budget is
// a real failure and must surface.
const maxReadRetries = 3

// retryReader retries reads that fail with a transient error (the net-style
// Temporary contract, or an injected transient fault in chaos builds) under
// a bounded exponential backoff — 1ms, 2ms, 4ms — then gives up. Reads that
// return data alongside an error pass through untouched: io.Reader
// semantics deliver the bytes first and the error on the next call.
type retryReader struct {
	r io.Reader
}

func (rr *retryReader) Read(p []byte) (int, error) {
	delay := time.Millisecond
	for attempt := 0; ; attempt++ {
		if faultinject.Enabled {
			if err := faultinject.Hook(faultinject.SitePersistRead); err != nil {
				if faultinject.IsTransient(err) && attempt < maxReadRetries {
					time.Sleep(delay)
					delay *= 2
					continue
				}
				return 0, err
			}
		}
		n, err := rr.r.Read(p)
		if n > 0 || err == nil || err == io.EOF {
			return n, err
		}
		if !isTransientRead(err) || attempt >= maxReadRetries {
			return n, err
		}
		time.Sleep(delay)
		delay *= 2
	}
}

// isTransientRead reports whether a read error advertises itself as worth
// retrying.
func isTransientRead(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// Load deserializes an index previously written by Save. The returned index
// answers queries identically to the one saved (up to float32 round-trip of
// the underlying data, against which results remain exact). Shard trees are
// decoded directly from their saved shapes, in parallel across shards. A
// container in any version but the current one fails with
// ErrUnsupportedVersion, and one whose checksums fail — globally, or for one
// shard's payload, which the error names — fails the load. Transient read
// errors from r (the net-style Temporary contract) are retried under a
// bounded backoff before the load fails.
func Load(r io.Reader) (*Index, error) {
	return LoadWithStats(r, nil)
}

// LoadWithStats is Load with phase timings: when st is non-nil it is filled
// with the container version, byte count and decode/tree split.
func LoadWithStats(r io.Reader, st *LoadStats) (*Index, error) {
	start := time.Now()
	cr := &countingReader{r: r}
	br := bufio.NewReaderSize(&retryReader{r: cr}, 1<<20)
	var s savedIndex
	if err := gob.NewDecoder(br).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding index: %w", err)
	}
	// Container size = bytes pulled from r minus bufio's unread read-ahead,
	// so Bytes stays exact even when r carries trailing data (concatenated
	// containers, network streams). gob itself consumes whole length-
	// prefixed messages and reads no further.
	containerBytes := cr.n - int64(br.Buffered())
	if s.Version != savedIndexVersion {
		return nil, fmt.Errorf("core: container is version %d, this build reads only version %d "+
			"(see README \"Persistence\" for the upgrade path): %w",
			s.Version, savedIndexVersion, ErrUnsupportedVersion)
	}
	if err := s.verify(); err != nil {
		return nil, err
	}
	// Decode the float32 data (shard-major: shard 0's rows, then shard 1's,
	// local id order) straight into the per-shard matrices — an intermediate
	// full matrix would transiently double series memory, the dominant cost
	// on the memory-constrained many-shard deployments sharding targets.
	// Rows are re-z-normalized to restore exactness after the f32 round-trip.
	sdata := make([]*distance.Matrix, s.Shards)
	g := 0
	for sh := range sdata {
		sdata[sh] = distance.NewMatrix(int(s.ShardCounts[sh]), s.SeriesLen)
		for local := 0; local < sdata[sh].Len(); local++ {
			row := sdata[sh].Row(local)
			base := g * s.SeriesLen * 4
			for j := range row {
				f := float64(math.Float32frombits(binary.LittleEndian.Uint32(s.DataBytes[base+4*j:])))
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return nil, fmt.Errorf("core: non-finite data value at offset %d", g*s.SeriesLen+j)
				}
				row[j] = f
			}
			distance.ZNormalize(row)
			g++
		}
	}

	cfg := Config{
		Method: s.Method, WordLength: s.WordLength,
		LeafCapacity: s.LeafCapacity, Shards: s.Shards,
	}
	col := &Collection{method: s.Method, cfg: cfg, total: s.Count, stride: s.SeriesLen}
	var sum index.Summarization
	switch s.Method {
	case MESSI:
		var err error
		sum, _, _, err = newSummarization(sdata[0], cfg)
		if err != nil {
			return nil, err
		}
	case SOFA:
		if s.SFA == nil {
			return nil, fmt.Errorf("core: SOFA index missing SFA state")
		}
		q, err := sfa.FromState(*s.SFA)
		if err != nil {
			return nil, err
		}
		col.sfaQ = q
		sum = summarization{q}
	default:
		return nil, fmt.Errorf("core: unknown method %v in saved index", s.Method)
	}
	col.sum = sum
	decodeSeconds := time.Since(start).Seconds()

	// Per-shard tree phase, parallel across shards: decode the serialized
	// shape directly (no splitting; the decoder re-verifies every structural
	// invariant, each leaf block row against its leaf's prefixes).
	treeOpts := col.shardOptions()
	treeStart := time.Now()
	err := col.buildShardTrees(sdata, func(i int) (*index.Tree, error) {
		shape, err := unpackShape(s.ShardShapes[i])
		if err != nil {
			return nil, err
		}
		shardSum := sum
		if own := s.ownSFA(i); own != nil {
			// The shard re-learned its SFA quantization at a compaction;
			// its tree bounds only hold in the shard's own space.
			q, err := sfa.FromState(*own)
			if err != nil {
				return nil, fmt.Errorf("core: shard %d SFA state: %w", i, err)
			}
			shardSum = summarization{q}
		}
		return index.FromShape(sdata[i], shardSum, treeOpts, shape)
	})
	if err != nil {
		return nil, err
	}
	if err := col.applySavedMutationState(&s); err != nil {
		return nil, err
	}
	if st != nil {
		st.Version = s.Version
		st.Bytes = containerBytes
		st.DecodeSeconds = decodeSeconds
		st.TreeSeconds = time.Since(treeStart).Seconds()
		st.TotalSeconds = time.Since(start).Seconds()
	}
	return &Index{col: col, TreeSeconds: col.TreeSeconds}, nil
}

// verify checks a decoded container before any of it is used: table sizes
// against the shard count, both checksum tiers, then the header bounds every
// later size computation depends on, then the payload lengths.
func (s *savedIndex) verify() error {
	if s.Shards < 1 || len(s.ShardShapes) != s.Shards || len(s.ShardChecksums) != s.Shards {
		return fmt.Errorf("core: corrupt shard table (%d shards, %d tree shapes, %d checksums)",
			s.Shards, len(s.ShardShapes), len(s.ShardChecksums))
	}
	if got := globalChecksum(s); got != s.Checksum {
		return fmt.Errorf("core: payload checksum mismatch (%08x, header says %08x)", got, s.Checksum)
	}
	for i := range s.ShardChecksums {
		if shardChecksum(s.ShardShapes[i]) != s.ShardChecksums[i] {
			return fmt.Errorf("core: shard %d payload checksum mismatch", i)
		}
	}
	// Header sanity, before any size computation depends on it: each bound
	// also keeps Count*SeriesLen and Count*WordLength inside int range, so a
	// forged header cannot wrap a length check around integer overflow.
	if s.Count < 1 || s.Count > math.MaxInt32 {
		return fmt.Errorf("core: corrupt series count %d", s.Count)
	}
	if s.SeriesLen < 1 {
		return fmt.Errorf("core: corrupt series length %d", s.SeriesLen)
	}
	if int64(s.Count)*int64(s.SeriesLen) > 1<<40 {
		// Far beyond any container Save can produce in practice, yet small
		// enough that every downstream size computation (x8 for float64,
		// x4 for the packed bytes) stays inside int64.
		return fmt.Errorf("core: index dimensions %d x %d overflow", s.Count, s.SeriesLen)
	}
	if s.WordLength < 1 || s.WordLength > 64 {
		return fmt.Errorf("core: corrupt word length %d", s.WordLength)
	}
	if s.Bits != index.SymbolBits {
		return fmt.Errorf("core: corrupt symbol bits %d", s.Bits)
	}
	if s.LeafCapacity < 1 {
		return fmt.Errorf("core: corrupt leaf capacity %d", s.LeafCapacity)
	}
	if s.Shards > s.Count {
		return fmt.Errorf("core: %d shards for %d series", s.Shards, s.Count)
	}
	if len(s.ShardCounts) != s.Shards || len(s.ShardDead) != s.Shards || len(s.ShardDeadCounts) != s.Shards {
		return fmt.Errorf("core: corrupt shard tables (%d/%d/%d entries for %d shards)",
			len(s.ShardCounts), len(s.ShardDead), len(s.ShardDeadCounts), s.Shards)
	}
	if s.ShardPubs != nil && len(s.ShardPubs) != s.Shards {
		return fmt.Errorf("core: corrupt id tables (%d for %d shards)", len(s.ShardPubs), s.Shards)
	}
	if s.ShardSFA != nil && len(s.ShardSFA) != s.Shards {
		return fmt.Errorf("core: corrupt per-shard SFA tables (%d for %d shards)", len(s.ShardSFA), s.Shards)
	}
	if s.Method != SOFA && s.ShardSFA != nil {
		return fmt.Errorf("core: non-SOFA container carries per-shard SFA state")
	}
	// An SFA state transforms rows of its own length N, and FromState sizes
	// the projection basis by it: a state must describe the stored rows, in
	// the index's one symbol width.
	if s.SFA != nil && (s.SFA.N != s.SeriesLen || s.SFA.Bits != index.SymbolBits) {
		return fmt.Errorf("core: SFA state for series length %d at %d bits, container holds %d at %d",
			s.SFA.N, s.SFA.Bits, s.SeriesLen, index.SymbolBits)
	}
	for i := range s.ShardSFA {
		if own := s.ownSFA(i); own != nil && (own.N != s.SeriesLen || own.Bits != index.SymbolBits) {
			return fmt.Errorf("core: shard %d SFA state for series length %d at %d bits, container holds %d at %d",
				i, own.N, own.Bits, s.SeriesLen, index.SymbolBits)
		}
	}
	// Upserts add physical rows without assigning ids, so PubCount and
	// Count are ordered either way; only the id-table bijection
	// (applySavedMutationState) ties them together.
	if s.PubCount < 1 || s.PubCount > math.MaxInt32 {
		return fmt.Errorf("core: corrupt public id count %d", s.PubCount)
	}
	rows := 0
	for i, n := range s.ShardCounts {
		if n < 1 {
			return fmt.Errorf("core: corrupt shard %d row count %d", i, n)
		}
		rows += int(n)
	}
	if rows != s.Count {
		return fmt.Errorf("core: shard row counts sum to %d, header says %d", rows, s.Count)
	}
	if int64(len(s.DataBytes)) != int64(s.Count)*int64(s.SeriesLen)*4 {
		return fmt.Errorf("core: data length %d bytes, want %d", len(s.DataBytes), s.Count*s.SeriesLen*4)
	}
	return nil
}

// LoadFile reads an index from a file.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
