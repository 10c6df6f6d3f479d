package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/sax"
	"repro/internal/sfa"
)

// Collection is the sharded index: S independent index.Tree shards, each
// built over a disjoint round-robin slice of the series, sharing one learned
// summarization. It is the scale-out layer MESSI-style systems put in front
// of the tree — partition the collection, query every partition, merge — and
// the abstraction every core entry point (Build, Search, SearchBatch,
// Insert, Save/Load, NewStream) routes through. Shards == 1 is the same
// path with one shard.
//
// Series ids are public and stable: Insert assigns them sequentially and
// Delete/Upsert/compaction never renumber. While the collection is
// append-only the id layout is the round-robin identity (id g lives in
// shard g % S at shard-local row g / S) and shard searchers invert it
// arithmetically at offer time; the first upsert or compaction materializes
// explicit id tables (pub2loc and per-shard pubOf) that take over. Exact
// k-NN runs all shards against one shared KNNCollector whose atomic bound
// is the cross-shard best-so-far, so shards prune each other and the
// collector holds the global top-k with no post-merge.
//
// Mutation contract: Delete and Upsert join Insert behind one internal
// mutex, so writers may be concurrent with each other and with compaction;
// searches remain lock-free and require external synchronization against
// mutations (the original Insert contract). CompactShard is the exception
// on both sides: it is safe to run concurrently with searches AND with
// mutations — it rebuilds a shard off-line from a snapshot and publishes
// the result RCU-style through the shard's atomic state pointer, so
// in-flight queries keep the consistent shard they started on and never
// block on the rebuild.
type Collection struct {
	method Method
	cfg    Config // effective (defaulted) configuration; cfg.Shards == len(states)
	sum    index.Summarization
	sfaQ   *sfa.Quantizer // nil for MESSI

	// states holds one atomic pointer per shard. Searchers snapshot a
	// shard's state at query time and keep it for the whole query;
	// compaction swaps in a rebuilt state without ever touching the old one
	// (RCU). Everything a query needs from a shard — tree, data, public-id
	// table — lives in the shardState so a snapshot is always internally
	// consistent.
	states []atomic.Pointer[shardState]
	total  int // physical series across all shards (live + tombstoned)
	stride int

	// Mutation state. mu serializes Insert/Delete/Upsert and compaction's
	// snapshot/swap sections against each other; searches never take it.
	mu sync.Mutex
	// pubCount is the number of public ids ever assigned (Insert returns
	// pubCount++). pub2loc maps a public id to its physical slot packed as
	// local*S + shard, with -1 marking a deleted id; nil means the identity
	// layout still holds (pub == local*S + shard), which stays true until
	// the first upsert or compaction diverges physical from public ids.
	pubCount int64
	pub2loc  []int64
	// epochs[i] counts mutations touching shard i; compaction validates its
	// snapshot against it before an optimistic (unlocked-build) swap.
	// relearnChurn[i] counts mutations since shard i's quantization was
	// learned — the signal that decides an SFA re-learn at compaction.
	epochs       []atomic.Uint64
	relearnChurn []atomic.Int64
	// live/tomb/compactions/relearns are collection-wide counters searches
	// read lock-free into QueryMeta.
	live        atomic.Int64
	tomb        atomic.Int64
	compactions atomic.Int64
	relearns    atomic.Int64
	// mutSeq numbers every applied mutation; the WAL stamps records with it
	// and recovery resumes from the checkpointed value.
	mutSeq atomic.Uint64
	// compactingBG guards the single background compaction goroutine the
	// Auto policy may spawn after a mutation.
	compactingBG atomic.Bool

	// health tracks per-shard fault state (panic counts, quarantine); see
	// fault.go. len(health) == len(states) always. A shard may have a nil
	// tree when it was quarantined at load time (corrupt payload under
	// LoadOptions.QuarantineCorruptShards); such shards are permanently
	// quarantined and untrusted.
	health []shardHealth

	// searchers pools serial collection searchers for SearchBatch and the
	// streaming engine, so repeated batches and stream workers reuse
	// per-shard scratch instead of rebuilding it.
	searchers sync.Pool

	// Phase timings for the Fig. 7 breakdown, in seconds. Transform and tree
	// times are the wall-clock maximum across shards (shards build in
	// parallel).
	LearnSeconds     float64
	TransformSeconds float64
	TreeSeconds      float64
}

// shardState is the immutable-by-swap unit of one shard: the tree, its data
// matrix, and the local→public id table. Mutations edit the current state
// in place under the collection mutex (tombstones, appends); compaction
// never edits — it builds a replacement and swaps the pointer.
type shardState struct {
	tree *index.Tree
	data *distance.Matrix // tree's matrix; kept even when tree == nil (load quarantine)
	// pubOf maps tree-local ids to stable public ids; nil while the shard
	// still has the round-robin identity layout (pub = local*S + shard).
	pubOf []int32
	// relearned marks a shard whose quantization was re-learned from its
	// survivors at compaction; its tree carries its own summarization, so
	// certificate representations must use the tree's encoder.
	relearned bool
	// enc is the lazily created encoder mutations use to word new series
	// (guarded by the collection mutex).
	enc index.Encoder
}

// state returns shard i's current state (never nil once built/loaded).
func (c *Collection) state(i int) *shardState { return c.states[i].Load() }

// tree returns shard i's current tree (nil for load-quarantined shards).
func (c *Collection) tree(i int) *index.Tree { return c.state(i).tree }

// BuildCollection constructs a sharded index over data (which must contain
// z-normalized series, as for Build). cfg.Shards selects the shard count
// (default 1; clamped to the number of series). The summarization is learned
// once over the full collection and shared by every shard, so a sharded and
// an unsharded build answer queries identically.
func BuildCollection(data *distance.Matrix, cfg Config) (*Collection, error) {
	if data == nil || data.Len() == 0 {
		return nil, fmt.Errorf("core: cannot build over empty data")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: shard count must be >= 1, got %d", cfg.Shards)
	}
	if cfg.WordLength == 0 {
		cfg.WordLength = 16
	}
	if cfg.Bits == 0 {
		cfg.Bits = 8
	}
	if cfg.LeafCapacity == 0 {
		cfg.LeafCapacity = 1024
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > data.Len() {
		cfg.Shards = data.Len()
	}

	c := &Collection{method: cfg.Method, total: data.Len(), stride: data.Stride}
	var err error
	c.sum, c.sfaQ, c.LearnSeconds, err = newSummarization(data, cfg)
	if err != nil {
		return nil, err
	}
	c.cfg = cfg

	sdata := data.PartitionRoundRobin(cfg.Shards)
	opts := c.shardOptions()
	if err := c.buildShardTrees(sdata, func(i int) (*index.Tree, error) {
		return index.Build(sdata[i], c.sum, opts)
	}); err != nil {
		return nil, err
	}
	c.initMutationState(int64(c.total), 0)
	return c, nil
}

// initMutationState seeds the mutation counters of a freshly built or loaded
// collection: pubCount public ids assigned so far, dead tombstoned rows
// among the physical total. The identity id layout (pub == local*S + shard)
// is assumed; loaders with explicit id tables overwrite pub2loc afterwards.
func (c *Collection) initMutationState(pubCount int64, dead int) {
	c.pubCount = pubCount
	c.live.Store(int64(c.total - dead))
	c.tomb.Store(int64(dead))
}

// newSummarization creates the configured summarization: a fixed iSAX
// quantizer for MESSI, a learned SFA quantizer (with learn time) for SOFA.
func newSummarization(data *distance.Matrix, cfg Config) (index.Summarization, *sfa.Quantizer, float64, error) {
	switch cfg.Method {
	case MESSI:
		q, err := sax.NewQuantizer(data.Stride, cfg.WordLength, cfg.Bits)
		if err != nil {
			return nil, nil, 0, err
		}
		return saxSummarization{q}, nil, 0, nil
	case SOFA:
		start := time.Now()
		q, err := sfa.Learn(data, sfa.Options{
			WordLength: cfg.WordLength,
			Bits:       cfg.Bits,
			Binning:    cfg.Binning,
			Selection:  cfg.Selection,
			SampleRate: cfg.SampleRate,
			MaxCoeffs:  cfg.MaxCoeffs,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return nil, nil, 0, err
		}
		return sfaSummarization{q}, q, time.Since(start).Seconds(), nil
	default:
		return nil, nil, 0, fmt.Errorf("core: unknown method %v", cfg.Method)
	}
}

// shardOptions derives each shard tree's index.Options from the collection
// config: the configured worker budget is divided across shards so a
// collection-level query (or build) keeps total parallelism at the budget.
func (c *Collection) shardOptions() index.Options {
	workers := c.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	perShard := workers / c.cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	queues := 0
	if c.cfg.Queues > 0 {
		queues = c.cfg.Queues / c.cfg.Shards
		if queues < 1 {
			queues = 1
		}
	}
	return index.Options{
		LeafCapacity: c.cfg.LeafCapacity,
		Workers:      perShard,
		Queues:       queues,
	}
}

// buildShardTrees constructs every shard tree in parallel — one goroutine
// per shard running build(i), each tree with the per-shard worker budget —
// and folds the per-shard phase timings into the collection's (wall-clock
// maxima, since shards build concurrently). Shared by Build (full build)
// and Load (rebuild from saved words).
func (c *Collection) buildShardTrees(sdata []*distance.Matrix, build func(i int) (*index.Tree, error)) error {
	c.states = make([]atomic.Pointer[shardState], len(sdata))
	c.health = make([]shardHealth, len(sdata))
	c.epochs = make([]atomic.Uint64, len(sdata))
	c.relearnChurn = make([]atomic.Int64, len(sdata))
	trees := make([]*index.Tree, len(sdata))
	errs := make([]error, len(sdata))
	var wg sync.WaitGroup
	for i := range sdata {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trees[i], errs[i] = build(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, t := range trees {
		c.states[i].Store(&shardState{tree: t, data: sdata[i]})
		if t == nil {
			// The build callback quarantined this shard (corrupt payload
			// under LoadOptions.QuarantineCorruptShards): no tree, no
			// certificate, permanently skipped.
			c.health[i].quarantined.Store(true)
			c.health[i].untrusted.Store(true)
			continue
		}
		if t.TransformSeconds > c.TransformSeconds {
			c.TransformSeconds = t.TransformSeconds
		}
		if t.TreeSeconds > c.TreeSeconds {
			c.TreeSeconds = t.TreeSeconds
		}
	}
	return nil
}

// Method reports whether this is a SOFA or MESSI collection.
func (c *Collection) Method() Method { return c.method }

// Len returns the number of live (non-tombstoned) series. For a collection
// that was never mutated this equals the physical row count.
func (c *Collection) Len() int { return int(c.live.Load()) }

// PhysLen returns the physical row count across all shards, live plus
// tombstoned. Compaction shrinks it back toward Len.
func (c *Collection) PhysLen() int { return c.total }

// Tombstoned returns the number of tombstoned (deleted but not yet
// compacted) rows.
func (c *Collection) Tombstoned() int { return int(c.tomb.Load()) }

// MutSeq returns the number of mutations (inserts, deletes, upserts)
// applied to the collection over its lifetime; the WAL stamps records with
// this sequence.
func (c *Collection) MutSeq() uint64 { return c.mutSeq.Load() }

// Compactions and Relearns return the lifetime counts of shard compactions
// and of compactions that re-learned a shard's SFA quantization.
func (c *Collection) Compactions() int64 { return c.compactions.Load() }
func (c *Collection) Relearns() int64    { return c.relearns.Load() }

// SeriesLen returns the length of the indexed series.
func (c *Collection) SeriesLen() int { return c.stride }

// Shards returns the shard count.
func (c *Collection) Shards() int { return len(c.states) }

// Row returns the series stored under public id g (aliasing shard memory;
// do not modify), or nil when g is tombstoned. Like searches, Row must not
// run concurrently with mutations.
func (c *Collection) Row(g int) []float64 {
	s := len(c.states)
	shard, local := g%s, g/s
	if c.pub2loc != nil {
		v := c.pub2loc[g]
		if v < 0 {
			return nil
		}
		shard, local = int(v%int64(s)), int(v/int64(s))
	}
	st := c.state(shard)
	if st.tree != nil && st.tree.Tombstoned(int32(local)) {
		return nil
	}
	return st.data.Row(local)
}

// BuildSeconds returns the total build time across all phases.
func (c *Collection) BuildSeconds() float64 {
	return c.LearnSeconds + c.TransformSeconds + c.TreeSeconds
}

// SFAQuantizer returns the shared learned SFA summarization (nil for MESSI).
func (c *Collection) SFAQuantizer() *sfa.Quantizer { return c.sfaQ }

// Stats aggregates the per-shard tree statistics: sums for counts, weighted
// means for depth and leaf size, the maximum for depth.
func (c *Collection) Stats() index.Stats {
	var agg index.Stats
	var depthSum, sizeSum float64
	for i := range c.states {
		t := c.tree(i)
		if t == nil {
			continue
		}
		st := t.Stats()
		agg.Series += st.Series
		agg.Live += st.Live
		agg.Tombstoned += st.Tombstoned
		agg.Subtrees += st.Subtrees
		agg.Leaves += st.Leaves
		depthSum += st.AvgDepth * float64(st.Leaves)
		sizeSum += st.AvgLeafSize * float64(st.Leaves)
		if st.MaxDepth > agg.MaxDepth {
			agg.MaxDepth = st.MaxDepth
		}
	}
	if agg.Leaves > 0 {
		agg.AvgDepth = depthSum / float64(agg.Leaves)
		agg.AvgLeafSize = sizeSum / float64(agg.Leaves)
	}
	return agg
}

// CheckInvariants verifies every shard tree's structural invariants, then
// the collection-level id-mapping invariants (pub2loc and the per-shard
// pubOf tables are mutually consistent bijections over the live series).
// Shards quarantined at load time have no tree and are skipped: the
// collection is valid as the degraded collection it declared itself to be.
func (c *Collection) CheckInvariants() error {
	for i := range c.states {
		t := c.tree(i)
		if t == nil {
			continue
		}
		if err := t.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return c.checkMappingInvariants()
}

// checkMappingInvariants verifies the public-id layer: counters add up, and
// when the explicit tables exist they form a bijection between non-deleted
// public ids and live physical rows.
func (c *Collection) checkMappingInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	phys, dead := 0, 0
	treeless := false // load-quarantined shards hold rows no tree accounts for
	for i := range c.states {
		st := c.state(i)
		if st.tree == nil {
			treeless = true
			continue
		}
		phys += st.tree.Len()
		dead += st.tree.TombstoneCount()
		if st.pubOf != nil && len(st.pubOf) != st.tree.Len() {
			return fmt.Errorf("core: shard %d pubOf has %d entries for %d rows", i, len(st.pubOf), st.tree.Len())
		}
	}
	if treeless {
		if phys > c.total {
			return fmt.Errorf("core: physical rows %d > recorded total %d", phys, c.total)
		}
	} else if phys != c.total {
		return fmt.Errorf("core: physical rows %d != recorded total %d", phys, c.total)
	}
	if got := int(c.live.Load() + c.tomb.Load()); got != c.total {
		return fmt.Errorf("core: live %d + tombstoned %d != total %d", c.live.Load(), c.tomb.Load(), c.total)
	}
	if td := int(c.tomb.Load()); td != dead && (!treeless || td < dead) {
		return fmt.Errorf("core: tombstone counter %d != bitmap total %d", td, dead)
	}
	if c.pub2loc == nil {
		if c.pubCount != int64(c.total) {
			return fmt.Errorf("core: identity id layout with %d public ids over %d rows", c.pubCount, c.total)
		}
		return nil
	}
	if int64(len(c.pub2loc)) != c.pubCount {
		return fmt.Errorf("core: pub2loc has %d entries for %d public ids", len(c.pub2loc), c.pubCount)
	}
	liveMapped := 0
	s := int64(len(c.states))
	for pub, v := range c.pub2loc {
		if v < 0 {
			continue
		}
		liveMapped++
		shard, local := int(v%s), int32(v/s)
		st := c.state(shard)
		if st.tree == nil {
			continue
		}
		if int(local) >= st.tree.Len() {
			return fmt.Errorf("core: id %d maps past shard %d (%d >= %d)", pub, shard, local, st.tree.Len())
		}
		if st.tree.Tombstoned(local) {
			return fmt.Errorf("core: id %d maps to tombstoned row %d of shard %d", pub, local, shard)
		}
		if st.pubOf != nil && st.pubOf[local] != int32(pub) {
			return fmt.Errorf("core: id %d maps to shard %d row %d, which claims id %d", pub, shard, local, st.pubOf[local])
		}
	}
	if liveMapped != int(c.live.Load()) {
		return fmt.Errorf("core: %d mapped live ids != live counter %d", liveMapped, c.live.Load())
	}
	return nil
}

// Insert adds one series (z-normalized internally) and returns its public
// id. Ids are assigned sequentially and remain stable for the series'
// lifetime, across upserts and compactions. The series lands in the shard
// with the fewest physical rows (lowest index on ties), which reproduces
// the historical round-robin placement for append-only workloads and steers
// new series toward reclaimed space after compaction. Mutations (Insert,
// Delete, Upsert) may run concurrently with each other and with compaction,
// but not with searches.
func (c *Collection) Insert(series []float64) (index.ID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(series)
}

func (c *Collection) insertLocked(series []float64) (index.ID, error) {
	shard := c.insertTargetLocked()
	// Inserting into a quarantined shard would strand the series in a tree
	// searches skip (silent data loss); refuse instead.
	if err := c.shardGate(shard); err != nil {
		return 0, err
	}
	st := c.state(shard)
	if st.enc == nil {
		st.enc = st.tree.Encoder()
	}
	local, err := st.tree.Insert(distance.ZNormalized(series), st.enc)
	if err != nil {
		return 0, err
	}
	pub := index.ID(c.pubCount)
	if c.pub2loc != nil {
		c.pub2loc = append(c.pub2loc, int64(local)*int64(len(c.states))+int64(shard))
		st.pubOf = append(st.pubOf, int32(pub))
	}
	c.pubCount++
	c.total++
	c.live.Add(1)
	c.mutSeq.Add(1)
	c.epochs[shard].Add(1)
	return pub, nil
}

// insertGate reports whether the next Insert would be refused at the shard
// gate — the durable store preflights with it so a doomed insert never
// reaches the write-ahead log.
func (c *Collection) insertGate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardGate(c.insertTargetLocked())
}

// mutationGate reports whether a Delete or Upsert of pub would be refused —
// unknown or tombstoned id, or quarantined home shard — without applying
// anything. The durable store's WAL-before-apply discipline preflights with
// it.
func (c *Collection) mutationGate(pub index.ID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	shard, _, err := c.lookupLocked(pub)
	if err != nil {
		return err
	}
	return c.shardGate(shard)
}

// nextPubID returns the public id the next Insert will assign.
func (c *Collection) nextPubID() index.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return index.ID(c.pubCount)
}

// insertTargetLocked picks the shard for the next insert: fewest physical
// rows, lowest index on ties. For append-only histories this reproduces the
// round-robin placement exactly, preserving the identity id layout. A
// load-quarantined shard has no tree and counts zero rows, so it is always
// the pick — and the shard gate then refuses the insert, exactly like the
// historical placement refusing to skip the hole.
func (c *Collection) insertTargetLocked() int {
	best, bestLen := 0, math.MaxInt
	for i := range c.states {
		n := 0
		if t := c.tree(i); t != nil {
			n = t.Len()
		}
		if n < bestLen {
			best, bestLen = i, n
		}
	}
	return best
}

// Delete tombstones the series with public id pub: it stops appearing in
// search results immediately (refinement skips it before the collector),
// its physical row lingers until compaction reclaims it, and its id is
// never reused. Deleting an unknown id returns ErrNotFound; deleting twice
// returns ErrTombstoned.
func (c *Collection) Delete(pub index.ID) error {
	c.mu.Lock()
	err := c.deleteLocked(pub)
	c.mu.Unlock()
	if err == nil {
		c.maybeAutoCompact()
	}
	return err
}

func (c *Collection) deleteLocked(pub index.ID) error {
	shard, local, err := c.lookupLocked(pub)
	if err != nil {
		return err
	}
	if err := c.shardGate(shard); err != nil {
		return err
	}
	if faultinject.Enabled {
		if err := faultinject.Hook(faultinject.SiteTombstone); err != nil {
			return err
		}
	}
	if err := c.tree(shard).Delete(local); err != nil {
		return err
	}
	if c.pub2loc != nil {
		c.pub2loc[pub] = -1
	}
	c.live.Add(-1)
	c.tomb.Add(1)
	c.mutSeq.Add(1)
	c.epochs[shard].Add(1)
	c.relearnChurn[shard].Add(1)
	return nil
}

// Upsert replaces the series stored under pub (z-normalized internally),
// keeping the public id stable: logically a delete of the old row plus an
// insert of the new one under a single mutation. The replacement may land
// in a different shard; searches observe the id with its new series and
// never both. Upserting an unknown id returns ErrNotFound, a deleted one
// ErrTombstoned (an upsert is a replacement, not a resurrection).
func (c *Collection) Upsert(pub index.ID, series []float64) error {
	c.mu.Lock()
	err := c.upsertLocked(pub, series)
	c.mu.Unlock()
	if err == nil {
		c.maybeAutoCompact()
	}
	return err
}

func (c *Collection) upsertLocked(pub index.ID, series []float64) error {
	oldShard, oldLocal, err := c.lookupLocked(pub)
	if err != nil {
		return err
	}
	if err := c.shardGate(oldShard); err != nil {
		return err
	}
	target := c.insertTargetLocked()
	if err := c.shardGate(target); err != nil {
		return err
	}
	if faultinject.Enabled {
		if err := faultinject.Hook(faultinject.SiteTombstone); err != nil {
			return err
		}
	}
	// The replacement row's local id no longer equals pub's round-robin
	// slot, so the explicit id tables take over from the identity layout.
	c.materializeLocked()
	st := c.state(target)
	if st.enc == nil {
		st.enc = st.tree.Encoder()
	}
	local, err := st.tree.Insert(distance.ZNormalized(series), st.enc)
	if err != nil {
		return err
	}
	// Tombstone the old row only after the insert succeeded, so a failed
	// upsert leaves the previous value intact.
	if err := c.tree(oldShard).Delete(oldLocal); err != nil {
		return fmt.Errorf("core: upsert of id %d: %w", pub, err)
	}
	st.pubOf = append(st.pubOf, int32(pub))
	c.pub2loc[pub] = int64(local)*int64(len(c.states)) + int64(target)
	c.total++
	c.tomb.Add(1) // old row tombstoned, new row live: the live count is unchanged
	c.mutSeq.Add(1)
	c.epochs[oldShard].Add(1)
	c.relearnChurn[oldShard].Add(1)
	if target != oldShard {
		c.epochs[target].Add(1)
		c.relearnChurn[target].Add(1)
	}
	return nil
}

// lookupLocked resolves a public id to its physical slot.
func (c *Collection) lookupLocked(pub index.ID) (shard int, local int32, err error) {
	if pub < 0 || int64(pub) >= c.pubCount {
		return 0, 0, fmt.Errorf("core: id %d: %w", pub, ErrNotFound)
	}
	s := int64(len(c.states))
	if c.pub2loc != nil {
		v := c.pub2loc[pub]
		if v < 0 {
			return 0, 0, fmt.Errorf("core: id %d: %w", pub, ErrTombstoned)
		}
		return int(v % s), int32(v / s), nil
	}
	shard, local = int(int64(pub)%s), int32(int64(pub)/s)
	if t := c.tree(shard); t != nil && t.Tombstoned(local) {
		return 0, 0, fmt.Errorf("core: id %d: %w", pub, ErrTombstoned)
	}
	return shard, local, nil
}

// materializeLocked switches the collection from the implicit identity id
// layout to explicit tables: pub2loc for public→physical and each shard's
// pubOf for physical→public. Until the first upsert or compaction both
// directions are pure arithmetic and the tables stay nil; afterwards the
// tables are authoritative. Tombstoned rows keep their public id in pubOf
// (refinement skips them before ids matter) while pub2loc marks the id
// deleted.
func (c *Collection) materializeLocked() {
	if c.pub2loc != nil {
		return
	}
	s := int64(len(c.states))
	c.pub2loc = make([]int64, c.pubCount)
	for p := range c.pub2loc {
		c.pub2loc[p] = int64(p) // identity: pub p packs to (p/S)*S + p%S == p
	}
	for i := range c.states {
		st := c.state(i)
		if st.tree == nil {
			continue
		}
		n := st.tree.Len()
		pubOf := make([]int32, n)
		for local := 0; local < n; local++ {
			pubOf[local] = int32(local)*int32(s) + int32(i)
			if st.tree.Tombstoned(int32(local)) {
				c.pub2loc[int64(local)*s+int64(i)] = -1
			}
		}
		st.pubOf = pubOf
	}
}

// CompactionPolicy governs shard compaction: when MaybeCompact selects a
// shard for rebuilding, and when a rebuild also re-learns the shard's SFA
// quantization from its surviving series.
type CompactionPolicy struct {
	// MaxTombstoneFraction is the tombstoned fraction (dead rows / physical
	// rows) at which MaybeCompact rebuilds a shard. <= 0 disables automatic
	// selection; CompactShard always compacts regardless.
	MaxTombstoneFraction float64
	// RelearnChurnFraction is the accumulated churn (mutations since the
	// shard's quantization was learned) as a fraction of its live series at
	// which a compaction re-learns the SFA bins from the survivors instead
	// of reusing a quantization the churned distribution may have drifted
	// away from. <= 0 never re-learns. Ignored for MESSI, whose quantizer is
	// data-independent. Re-learning changes only pruning power, never
	// results: exactness comes from the lower-bounding frame, not the bins.
	RelearnChurnFraction float64
	// Auto compacts in the background: after a mutation, a single background
	// goroutine runs MaybeCompact if none is already running. Queries never
	// block on it (the swap is RCU), and mutations only contend on the
	// mutation lock during snapshot and swap.
	Auto bool
}

// compactRetries is how many optimistic (build outside the lock) compaction
// attempts are made before the final attempt holds the mutation lock across
// the rebuild to guarantee progress.
const compactRetries = 2

// CompactShard rebuilds shard i from its surviving (non-tombstoned) series
// and atomically swaps the rebuilt shard in, reclaiming tombstone space.
// In-flight queries keep the state they started with (RCU: the old tree is
// never modified, only unpublished); mutations serialize against the
// snapshot and swap sections only, not the rebuild, which runs outside the
// lock and revalidates the shard's mutation epoch before swapping —
// retrying if writers raced it, and holding the lock for the final attempt.
//
// On a SOFA collection whose shard churn has reached
// CompactionPolicy.RelearnChurnFraction, the rebuild re-learns the shard's
// SFA quantization from the survivors; the shard then carries its own
// summarization and queries adapt transparently.
func (c *Collection) CompactShard(i int) error {
	if i < 0 || i >= len(c.states) {
		return fmt.Errorf("core: shard %d out of range [0,%d)", i, len(c.states))
	}
	for attempt := 0; ; attempt++ {
		done, err := c.compactOnce(i, attempt >= compactRetries)
		if done {
			return err
		}
	}
}

// compactOnce runs one compaction attempt on shard i: snapshot under the
// lock, build (outside the lock unless final), revalidate the epoch, swap.
// done == false requests an optimistic retry after losing a race with
// writers.
func (c *Collection) compactOnce(i int, final bool) (done bool, err error) {
	c.mu.Lock()
	st := c.state(i)
	if st.tree == nil {
		c.mu.Unlock()
		return true, &ShardError{Shard: i, Err: ErrShardQuarantined}
	}
	tree := st.tree
	n := tree.Len()
	deadCount := tree.TombstoneCount()
	if deadCount == 0 {
		c.mu.Unlock()
		return true, nil // nothing to reclaim
	}
	live := n - deadCount
	if live == 0 {
		// An index cannot be built over zero series; keep the fully
		// tombstoned shard as is (refinement already skips every row) until
		// inserts repopulate it.
		c.mu.Unlock()
		return true, nil
	}
	epoch := c.epochs[i].Load()
	churn := c.relearnChurn[i].Load()
	s := int32(len(c.states))
	data := distance.NewMatrix(live, c.stride)
	pubs := make([]int32, live)
	j := 0
	for local := int32(0); int(local) < n; local++ {
		if tree.Tombstoned(local) {
			continue
		}
		copy(data.Row(j), st.data.Row(int(local)))
		if st.pubOf != nil {
			pubs[j] = st.pubOf[local]
		} else {
			pubs[j] = local*s + int32(i)
		}
		j++
	}
	relearn := c.method == SOFA && c.cfg.Compaction.RelearnChurnFraction > 0 &&
		float64(churn) >= c.cfg.Compaction.RelearnChurnFraction*float64(live)
	if !final {
		c.mu.Unlock()
	}

	// The rebuild: survivors only, dense local ids, fresh tree. A shard that
	// was already re-learned keeps its own summarization unless this
	// compaction re-learns again.
	sum := tree.Sum()
	if relearn {
		q, lerr := sfa.Learn(data, sfa.Options{
			WordLength: c.cfg.WordLength,
			Bits:       c.cfg.Bits,
			Binning:    c.cfg.Binning,
			Selection:  c.cfg.Selection,
			SampleRate: c.cfg.SampleRate,
			MaxCoeffs:  c.cfg.MaxCoeffs,
			Seed:       c.cfg.Seed,
		})
		if lerr != nil {
			if final {
				c.mu.Unlock()
			}
			return true, fmt.Errorf("core: compaction re-learn of shard %d: %w", i, lerr)
		}
		sum = sfaSummarization{q}
	}
	newTree, berr := index.Build(data, sum, c.shardOptions())
	if berr != nil {
		if final {
			c.mu.Unlock()
		}
		return true, fmt.Errorf("core: compaction rebuild of shard %d: %w", i, berr)
	}

	if !final {
		c.mu.Lock()
		if c.epochs[i].Load() != epoch {
			c.mu.Unlock()
			return false, nil // writers raced the rebuild; retry with a fresh snapshot
		}
	}
	if faultinject.Enabled {
		if ferr := faultinject.Hook(faultinject.SiteCompactSwap); ferr != nil {
			c.mu.Unlock()
			return true, ferr // fault before the swap: the old state stands untouched
		}
	}
	c.materializeLocked()
	c.states[i].Store(&shardState{
		tree:      newTree,
		data:      data,
		pubOf:     pubs,
		relearned: relearn || st.relearned,
	})
	for jj, pub := range pubs {
		c.pub2loc[pub] = int64(jj)*int64(s) + int64(i)
	}
	c.total -= deadCount
	c.tomb.Add(int64(-deadCount))
	c.compactions.Add(1)
	c.epochs[i].Add(1) // invalidate any concurrent compaction's snapshot of this shard
	if relearn {
		c.relearns.Add(1)
		// The epoch held from snapshot to swap, so no churn accrued since.
		c.relearnChurn[i].Store(0)
	}
	c.mu.Unlock()
	return true, nil
}

// MaybeCompact compacts every shard whose tombstoned fraction has reached
// CompactionPolicy.MaxTombstoneFraction — the policy-driven entry point the
// Auto mode runs in the background and callers can invoke directly after a
// deletion burst. Returns the first compaction error.
func (c *Collection) MaybeCompact() error {
	p := c.cfg.Compaction
	if p.MaxTombstoneFraction <= 0 {
		return nil
	}
	for i := range c.states {
		c.mu.Lock()
		t := c.tree(i)
		due := t != nil && t.Len() > 0 &&
			float64(t.TombstoneCount()) >= p.MaxTombstoneFraction*float64(t.Len())
		c.mu.Unlock()
		if !due {
			continue
		}
		if err := c.CompactShard(i); err != nil {
			return err
		}
	}
	return nil
}

// maybeAutoCompact spawns the single background MaybeCompact pass the Auto
// policy allows, if none is already running.
func (c *Collection) maybeAutoCompact() {
	if !c.cfg.Compaction.Auto {
		return
	}
	if !c.compactingBG.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.compactingBG.Store(false)
		// Best-effort background pass: an error leaves the tombstones in
		// place and the next mutation retriggers the policy.
		_ = c.MaybeCompact()
	}()
}
