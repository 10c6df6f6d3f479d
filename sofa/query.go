package sofa

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// Query is one similarity question: the series to match and how many
// neighbors to return. The zero value of the remaining behavior — exact
// search, no deadline — is the common case; attach options with With:
//
//	q := sofa.Query{Series: s, K: 10}.With(sofa.Epsilon(0.1), sofa.Deadline(t))
//
// One Query value drives every execution engine — Search, SearchInto,
// SearchBatch and Stream.Submit — so per-query k, approximation mode and
// deadline travel with the query rather than with the engine.
type Query struct {
	// Series is the query series (any scale; it is z-normalized internally
	// and not modified). Its length must equal Index.SeriesLen.
	Series []float64
	// K is the number of nearest neighbors to return (>= 1).
	K int

	opts queryOpts
}

// queryOpts is the per-query execution plan accumulated by With.
type queryOpts struct {
	approximate bool
	epsilon     float64
	deadline    time.Time
	stats       *SearchStats
	qstats      *QueryStats
}

// QueryOption adjusts how one Query executes.
type QueryOption func(*queryOpts)

// With returns a copy of q with the options applied.
func (q Query) With(opts ...QueryOption) Query {
	for _, opt := range opts {
		opt(&q.opts)
	}
	return q
}

// Approximate answers from each shard's best-matching leaf only — the
// classical iSAX-family approximate probe (stage 1 of the exact engine):
// no guarantee, empirically high recall at a tiny fraction of the exact
// cost. The returned distances upper-bound the true k-NN distances.
// Approximate overrides Epsilon: when both options are set, the query runs
// as the guarantee-free best-leaf probe.
func Approximate() QueryOption {
	return func(o *queryOpts) { o.approximate = true }
}

// Epsilon makes the search (1+e)-approximate: every returned distance is
// guaranteed within a factor (1+e) of the corresponding exact k-NN
// distance. e = 0 is exact; larger values prune more and run faster. The
// guarantee does not survive combining with Approximate, which overrides
// this option.
func Epsilon(e float64) QueryOption {
	return func(o *queryOpts) { o.epsilon = e }
}

// Deadline aborts the query with context.DeadlineExceeded once t has
// passed — checked between shard stages, so an expired query stops doing
// work instead of running to completion. In a stream, a query whose
// deadline expires while queued is answered with the error without ever
// being executed.
func Deadline(t time.Time) QueryOption {
	return func(o *queryOpts) { o.deadline = t }
}

// WithStats records the query's work counters (nodes visited, leaves
// refined, lower bounds and real distances computed) into dst after a
// successful Search or SearchInto. Batch and stream execution ignore it.
func WithStats(dst *SearchStats) QueryOption {
	return func(o *queryOpts) { o.stats = dst }
}

// QueryStats describes how one successful Search or SearchInto call
// executed: the pruning-power work counters plus the index state the query
// ran against. A query that returns an answer searched every shard — a
// shard that cannot contribute fails the query with ErrDegraded instead —
// so there is no partial outcome to report.
type QueryStats struct {
	SearchStats
	// Live and Tombstoned snapshot the index's mutation state as the query
	// started: live series searched, and deleted-but-unreclaimed rows the
	// refinement stage skipped over.
	Live       int
	Tombstoned int
	// Compactions and Relearns are the index's lifetime counts of shard
	// compactions and of compactions that re-learned a shard's SFA
	// quantization; RelearnChurnFraction echoes the configured re-learn
	// threshold (0 when disabled), so a query's answer records the
	// adaptation policy it ran under.
	Compactions          int64
	Relearns             int64
	RelearnChurnFraction float64
}

// WithQueryStats records the query's work counters and the index's mutation
// state (live and tombstoned rows, compaction and re-learn counts) into dst
// after a successful Search or SearchInto. Batch and stream execution
// ignore it.
func WithQueryStats(dst *QueryStats) QueryOption {
	return func(o *queryOpts) { o.qstats = dst }
}

// plan validates q against the index and lowers it to the internal
// execution plan. All validation failures are sentinel errors.
func (x *Index) plan(q Query) (core.Plan, error) {
	if len(q.Series) != x.SeriesLen() {
		return core.Plan{}, fmt.Errorf("%w: query length %d, want %d", ErrBadSeriesLength, len(q.Series), x.SeriesLen())
	}
	if q.K < 1 {
		return core.Plan{}, fmt.Errorf("%w: got %d", ErrBadK, q.K)
	}
	if q.opts.epsilon < 0 {
		return core.Plan{}, fmt.Errorf("%w: got %v", ErrBadEpsilon, q.opts.epsilon)
	}
	return core.Plan{
		K:           q.K,
		Epsilon:     q.opts.epsilon,
		Approximate: q.opts.approximate,
		Deadline:    q.opts.deadline,
	}, nil
}

// Search answers q, returning its neighbors in ascending distance order.
// The returned slice is caller-owned: it is freshly allocated, never
// aliases index-internal scratch, and remains valid forever. Use SearchInto
// to avoid the per-call allocation in steady-state loops.
//
// ctx cancellation (and q's Deadline option) abort the query between shard
// stages with the context error. Search is safe to call concurrently from
// any number of goroutines; each call internally uses the index's
// configured worker parallelism (the paper's one-query-at-a-time protocol).
func (x *Index) Search(ctx context.Context, q Query) ([]Result, error) {
	return x.searchInto(ctx, q, nil)
}

// SearchInto is Search with caller-provided result memory: answers are
// appended into buf[:0] and the extended slice is returned, so a loop that
// passes the previous result back in performs zero allocations in steady
// state. The returned slice shares buf's backing array (never
// index-internal scratch) — results are overwritten by the next SearchInto
// call with the same buf, exactly like append.
//
// On error the returned slice is buf[:0], not nil, so the steady-state
// pattern `buf, err = ix.SearchInto(ctx, q, buf)` keeps its warm buffer
// across expected failures (expired deadlines, cancellations).
func (x *Index) SearchInto(ctx context.Context, q Query, buf []Result) ([]Result, error) {
	return x.searchInto(ctx, q, buf[:0])
}

// searchInto runs one query on a pooled parallel searcher, appending the
// answers to dst. On error it returns dst unmodified (preserving the
// caller's buffer capacity) alongside the error.
func (x *Index) searchInto(ctx context.Context, q Query, dst []Result) ([]Result, error) {
	p, err := x.plan(q)
	if err != nil {
		return dst, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := x.searchers.Get().(*core.Searcher)
	res, err := s.SearchPlan(ctx, q.Series, p, dst)
	if err != nil {
		x.searchers.Put(s)
		return dst, err
	}
	if q.opts.stats != nil {
		*q.opts.stats = s.LastStats()
	}
	if q.opts.qstats != nil {
		m := s.LastMeta()
		*q.opts.qstats = QueryStats{
			SearchStats:          s.LastStats(),
			Live:                 m.Live,
			Tombstoned:           m.Tombstoned,
			Compactions:          m.Compactions,
			Relearns:             m.Relearns,
			RelearnChurnFraction: m.RelearnChurnFraction,
		}
	}
	x.searchers.Put(s)
	return res, nil
}

// SearchBatch answers a batch of queries with inter-query parallelism: up
// to workers queries run concurrently (workers <= 0 selects GOMAXPROCS),
// each handled end-to-end by a pooled single-threaded engine — the FAISS
// mini-batch protocol from the paper's Section V. Queries may mix k values,
// approximation modes and deadlines. Results are in query order and
// caller-owned.
//
// ctx is checked before every query starts and between shard stages inside
// each query, so cancellation stops a large batch mid-flight. The first
// error — a context error or one query's expired deadline — aborts the
// whole batch; per-query error isolation is what streams are for.
func (x *Index) SearchBatch(ctx context.Context, qs []Query, workers int) ([][]Result, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("%w: empty query batch", ErrEmptyData)
	}
	pqs := make([]core.PlanQuery, len(qs))
	for i, q := range qs {
		p, err := x.plan(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		pqs[i] = core.PlanQuery{Series: q.Series, Plan: p}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return x.ix.Collection().SearchBatchPlan(ctx, pqs, workers)
}
