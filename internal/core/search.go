package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distance"
	"repro/internal/faultinject"
	"repro/internal/index"
)

// This file is the collection's query half. There is one executor: every
// entry point — Search, Search1, SearchApproximate, SearchEpsilon,
// SearchPlan, SearchBatch/SearchBatchPlan and the streaming engine — lowers
// its query to a Plan and runs it through Searcher.run, which seeds every
// shard into one shared collector and then finishes every shard against it.
// A single-shard collection is that same path with one shard.

// Searcher answers similarity queries against the collection. Create one
// per querying goroutine. Result slices returned by Search and its variants
// are owned by the Searcher and reused by its next call — copy them if they
// must survive.
type Searcher struct {
	c  *Collection
	ss []*index.Searcher

	// states pins each shard's state for the duration of a query (RCU read
	// side): refreshShards adopts the current pointers at query start, and
	// recreates a shard's tree searcher only when compaction swapped the
	// shard since the last query.
	states []*shardState

	// kn is the shared cross-shard collector every shard offers into.
	kn     index.KNNCollector
	resBuf []index.Result
	errs   []error // per-shard outcome of the current query: errs[i] != nil when shard i is out

	// meta describes the last query's collection state (see LastMeta).
	meta QueryMeta

	// serial runs the shards sequentially on the calling goroutine (each
	// shard searcher is single-threaded too); used by SearchBatch workers
	// and the streaming engine so inter-query parallelism is not multiplied
	// by intra-query parallelism.
	serial bool
}

// NewSearcher creates a searcher over the collection; a single Search call
// fans out across shards and, within each shard, across the tree's
// configured workers.
func (c *Collection) NewSearcher() *Searcher { return c.newSearcher(false) }

// newSearcher creates a collection searcher; serial makes it fully
// single-threaded.
func (c *Collection) newSearcher(serial bool) *Searcher {
	s := &Searcher{
		c:      c,
		ss:     make([]*index.Searcher, len(c.states)),
		states: make([]*shardState, len(c.states)),
		errs:   make([]error, len(c.states)),
		serial: serial,
	}
	s.refreshShards()
	return s
}

// refreshShards adopts each shard's current state at query start, creating
// a fresh tree searcher only for shards compaction swapped since this
// searcher's previous query. The steady state without compaction is one
// pointer compare per shard — no allocation on the query hot path.
func (s *Searcher) refreshShards() {
	for i := range s.ss {
		if cur := s.c.state(i); cur != s.states[i] {
			s.adoptShard(i, cur)
		}
	}
}

// adoptShard pins shard i to state cur with a fresh tree searcher. It is
// also how a shard searcher is replaced after a panic: the old one's scratch
// (queues, collector registration, tables) is in an undefined state, so it
// is discarded rather than reused — the price of a fault, not of the steady
// state.
func (s *Searcher) adoptShard(i int, cur *shardState) {
	s.states[i] = cur
	if s.serial {
		s.ss[i] = cur.tree.NewSerialSearcher()
	} else {
		s.ss[i] = cur.tree.NewSearcher()
	}
}

// serialSearcher checks a serial searcher out of the collection's pool.
func (c *Collection) serialSearcher() *Searcher {
	if s, ok := c.searchers.Get().(*Searcher); ok {
		return s
	}
	return c.newSearcher(true)
}

// shardQuery builds shard i's ShardQuery for the current collector. The
// public-id table of the pinned shard state (nil while the identity layout
// holds) rides along, so offers map tree-local ids to stable public ids
// against exactly the tree snapshot being searched.
func (s *Searcher) shardQuery(i int, epsilon float64) index.ShardQuery {
	return index.ShardQuery{
		KN:      &s.kn,
		PubIDs:  s.states[i].pubOf,
		IDMul:   index.ID(len(s.ss)),
		IDAdd:   index.ID(i),
		Epsilon: epsilon,
	}
}

// baseMeta seeds a query's meta with the collection-wide mutation counters.
func (s *Searcher) baseMeta() QueryMeta {
	return QueryMeta{
		Live:                 int(s.c.live.Load()),
		Tombstoned:           int(s.c.tomb.Load()),
		Compactions:          s.c.compactions.Load(),
		Relearns:             s.c.relearns.Load(),
		RelearnChurnFraction: s.c.cfg.Compaction.RelearnChurnFraction,
	}
}

// Plan describes one query's execution for the unified, context-aware query
// path: exact (the zero value apart from K), ε-approximate, or best-leaf
// approximate, with an optional per-query deadline. It is the single
// internal representation every public query variant lowers to.
type Plan struct {
	// K is the number of neighbors to return (required, >= 1).
	K int
	// Epsilon relaxes pruning for (1+Epsilon)-approximate answers; 0 is
	// exact. Ignored when Approximate is set.
	Epsilon float64
	// Approximate answers from each shard's best-matching leaf only (the
	// classical iSAX approximate probe; stage 1 of the exact engine).
	Approximate bool
	// Deadline, when nonzero, aborts the query with context.DeadlineExceeded
	// once passed. Checked at shard granularity, so an expired query stops
	// between shard stages instead of running to completion.
	Deadline time.Time
}

// queryErr reports why in-flight query work must stop: context cancellation
// (or context deadline) first, then plan-deadline expiry. The ctx.Err check
// is skipped for non-cancellable contexts (Done() == nil), keeping the
// common Background case free.
func queryErr(ctx context.Context, deadline time.Time) error {
	if ctx != nil && ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// SearchPlan is the unified query entry point: it executes p against all
// shards, honoring ctx cancellation and p.Deadline at shard granularity, and
// appends the answers (ascending distance) to dst, returning the extended
// slice. Ownership of the result memory is therefore the caller's: passing a
// reused buffer gives an allocation-free steady state, passing nil returns a
// fresh slice. Exact, ε-approximate and best-leaf-approximate search are all
// the same path here, selected by the plan.
func (s *Searcher) SearchPlan(ctx context.Context, query []float64, p Plan, dst []index.Result) ([]index.Result, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", p.K)
	}
	if p.Epsilon < 0 {
		return nil, fmt.Errorf("core: epsilon must be >= 0, got %v", p.Epsilon)
	}
	if len(query) != s.c.stride {
		return nil, fmt.Errorf("core: query length %d, want %d", len(query), s.c.stride)
	}
	if err := queryErr(ctx, p.Deadline); err != nil {
		return nil, err
	}
	if p.Approximate {
		p.Epsilon = 0
	}
	if err := s.run(ctx, query, p); err != nil {
		return nil, err
	}
	return s.kn.ResultsAppend(dst), nil
}

// run is the one executor: a seeding phase first (every shard's approximate
// stage feeds the shared collector, so each shard's exact stage starts from
// the best bound any shard established), then — unless the plan is
// approximate — the exact phase, then firstErr.
//
// Faults are contained at shard granularity: a panic or engine error inside
// one shard's stage is recorded in s.errs[i] without touching the other
// shards, the shard takes no further part in the query, and the query fails
// with the recorded error (see fault.go).
func (s *Searcher) run(ctx context.Context, query []float64, p Plan) error {
	s.kn.Reset(p.K)
	s.refreshShards()
	s.meta = s.baseMeta()
	clear(s.errs)
	s.phase(ctx, query, p, false)
	if !p.Approximate {
		s.phase(ctx, query, p, true)
	}
	return s.firstErr()
}

// phase runs one stage — seeding, or the exact stage when finish is set —
// on every shard still in the query. With serial searchers (or one shard)
// the stages run inline on the calling goroutine; otherwise shards run
// concurrently, and within each shard the tree applies its own worker
// fan-out.
func (s *Searcher) phase(ctx context.Context, query []float64, p Plan, finish bool) {
	if s.serial || len(s.ss) == 1 {
		for i := range s.ss {
			if s.errs[i] == nil {
				s.stage(ctx, query, p, i, finish)
			}
		}
		return
	}
	// Declared after the inline return: the goroutines capture wg by
	// reference, which moves it to the heap where it is declared, and the
	// inline path must stay allocation-free.
	var wg sync.WaitGroup
	for i := range s.ss {
		if s.errs[i] != nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.stage(ctx, query, p, i, finish)
		}(i)
	}
	wg.Wait()
}

// stage runs one stage of shard i and records its outcome in s.errs[i].
// Cancellation (ctx or plan deadline) is checked first, so a cancelled
// query does no further shard work: every remaining stage records the
// cancellation instead of running, and firstErr returns it.
func (s *Searcher) stage(ctx context.Context, query []float64, p Plan, i int, finish bool) {
	if err := queryErr(ctx, p.Deadline); err != nil {
		s.errs[i] = err
		return
	}
	if finish {
		s.errs[i] = s.finishShardSafe(i)
	} else {
		s.errs[i] = s.seedShardSafe(i, query, p.K, p.Epsilon)
	}
}

// seedShardSafe runs shard i's seeding stage with panic containment: a
// panic in the engine (or one of its internal worker goroutines, which
// forward theirs) comes back as a *PanicError and costs this searcher's
// shard-i searcher (respawned fresh — its scratch is unsafe to reuse).
// Engine errors are attributed to the shard. The deferred recover is
// open-coded by the compiler, preserving the allocation-free healthy path.
func (s *Searcher) seedShardSafe(i int, query []float64, k int, epsilon float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = shardPanic(i, r)
			s.adoptShard(i, s.c.state(i))
		}
	}()
	if err := s.ss[i].SeedShard(query, k, s.shardQuery(i, epsilon)); err != nil {
		return &ShardError{Shard: i, Err: err}
	}
	return nil
}

// finishShardSafe runs shard i's exact stage under the same containment
// contract as seedShardSafe.
func (s *Searcher) finishShardSafe(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = shardPanic(i, r)
			s.adoptShard(i, s.c.state(i))
		}
	}()
	if err := s.ss[i].FinishShard(); err != nil {
		return &ShardError{Shard: i, Err: err}
	}
	return nil
}

// firstErr settles the query from the per-shard outcomes recorded by run:
// a cancellation error aborts it unchanged, otherwise the first shard fault
// fails it, and with no error at all the collector holds the complete
// answer.
func (s *Searcher) firstErr() error {
	var firstFault error
	for _, err := range s.errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if firstFault == nil {
			firstFault = err
		}
	}
	return firstFault
}

// searchOwned executes p into the searcher-owned result buffer: the
// returned slice is valid until this searcher's next query.
func (s *Searcher) searchOwned(ctx context.Context, query []float64, p Plan) ([]index.Result, error) {
	res, err := s.SearchPlan(ctx, query, p, s.resBuf[:0])
	if err == nil {
		s.resBuf = res
	}
	return res, err
}

// Search returns the exact k nearest neighbors of query (any scale; it is
// z-normalized internally) under squared z-normalized Euclidean distance,
// in ascending order. The shards share one collector and prune against each
// other's best-so-far; on the inline path (one shard, or a serial searcher)
// a steady-state call performs no allocations.
func (s *Searcher) Search(query []float64, k int) ([]index.Result, error) {
	return s.searchOwned(context.Background(), query, Plan{K: k})
}

// Search1 returns the exact nearest neighbor.
func (s *Searcher) Search1(query []float64) (index.Result, error) {
	res, err := s.Search(query, 1)
	if err != nil {
		return index.Result{}, err
	}
	return res[0], nil
}

// SearchApproximate returns up to k approximate nearest neighbors by probing
// only the best-matching leaf of every shard — the classical iSAX-family
// approximate search, run per shard and merged. The returned distances
// upper-bound the true k-NN distances.
func (s *Searcher) SearchApproximate(query []float64, k int) ([]index.Result, error) {
	return s.searchOwned(context.Background(), query, Plan{K: k, Approximate: true})
}

// SearchEpsilon returns k neighbors guaranteed within a (1+epsilon) factor
// of the exact k-NN distances. epsilon = 0 is exact search.
func (s *Searcher) SearchEpsilon(query []float64, k int, epsilon float64) ([]index.Result, error) {
	return s.searchOwned(context.Background(), query, Plan{K: k, Epsilon: epsilon})
}

// LastStats sums the pruning counters of the most recent Search call across
// shards.
func (s *Searcher) LastStats() index.SearchStats {
	var agg index.SearchStats
	for _, sub := range s.ss {
		st := sub.LastStats()
		agg.NodesVisited += st.NodesVisited
		agg.LeavesRefined += st.LeavesRefined
		agg.SeriesLBD += st.SeriesLBD
		agg.SeriesED += st.SeriesED
	}
	return agg
}

// SearchBatch answers a batch of queries with inter-query parallelism: up to
// workers queries run concurrently, each handled end-to-end (all shards) by
// a pooled serial searcher. workers <= 0 selects GOMAXPROCS. Results are in
// query order and safe to retain — which is why the output is freshly
// allocated per call; sustained traffic that wants allocation-free
// steady state should use NewStream (callback-scoped results).
//
// SearchBatch is the fixed-k convenience over SearchBatchPlan, the unified
// context-aware batch path.
func (c *Collection) SearchBatch(queries *distance.Matrix, k, workers int) ([][]index.Result, error) {
	if queries == nil || queries.Len() == 0 {
		return nil, fmt.Errorf("core: empty query batch")
	}
	if queries.Stride != c.stride {
		return nil, fmt.Errorf("core: query length %d, want %d", queries.Stride, c.stride)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	qs := make([]PlanQuery, queries.Len())
	for i := range qs {
		qs[i] = PlanQuery{Series: queries.Row(i), Plan: Plan{K: k}}
	}
	return c.SearchBatchPlan(context.Background(), qs, workers)
}

// PlanQuery pairs one query series with its execution plan for the batch
// path, so a single batch can mix k values, approximation modes and
// per-query deadlines.
type PlanQuery struct {
	Series []float64
	Plan   Plan
}

// SearchBatchPlan answers a heterogeneous batch of planned queries with
// inter-query parallelism: up to workers queries run concurrently, each
// handled end-to-end (all shards) by a pooled serial searcher. workers <= 0
// selects GOMAXPROCS; a single worker runs inline on the calling goroutine.
// Results are in query order and caller-owned (freshly allocated per
// query). Per-query validation (length, k, epsilon) happens when each query
// executes, via SearchPlan.
//
// Cancellation is checked at batch granularity (before every query is
// started) and, through SearchPlan, at shard granularity inside each query,
// so cancelling ctx stops a large batch mid-flight. Any error — a ctx
// error, an invalid query, an individual query's expired plan deadline, or
// a recovered panic (*PanicError) — aborts the whole batch: every worker
// stops before its next query, and one of the observed errors is returned.
func (c *Collection) SearchBatchPlan(ctx context.Context, qs []PlanQuery, workers int) ([][]index.Result, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("core: empty query batch")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	out := make([][]index.Result, len(qs))
	errs := make([]error, workers)
	var abort atomic.Bool // any worker's error stops the whole batch
	var cursor atomic.Int64
	work := func(w int) {
		s := c.serialSearcher()
		for errs[w] == nil {
			i := int(cursor.Add(1) - 1)
			if i >= len(qs) || abort.Load() {
				break
			}
			if out[i], errs[w] = c.batchQuery(ctx, &s, qs[i]); errs[w] != nil {
				abort.Store(true)
			}
		}
		if s != nil {
			c.searchers.Put(s)
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchQuery answers one query of a batch on the worker's pooled searcher
// with panic containment: shard-level faults are already contained inside
// SearchPlan, and anything that still escapes — a fault outside any shard
// stage (collector, result copy) — comes back as a *PanicError instead of
// killing the process. The searcher such a panic unwound through has
// undefined scratch, so *s is cleared and never returns to the pool.
func (c *Collection) batchQuery(ctx context.Context, s **Searcher, q PlanQuery) (res []index.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			*s = nil
			res, err = nil, &PanicError{Shard: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := queryErr(ctx, time.Time{}); err != nil {
		return nil, err
	}
	if faultinject.Enabled {
		if err := faultinject.Hook(faultinject.SiteBatchWorker); err != nil {
			return nil, outsideShard(err)
		}
	}
	return (*s).SearchPlan(ctx, q.Series, q.Plan, nil)
}
