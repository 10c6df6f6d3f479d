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

	"repro/internal/faultinject"
	"repro/internal/index"
)

// ErrStreamClosed is returned by Submit variants after Close. It is a
// sentinel so layered APIs (the public sofa package) can translate it with
// errors.Is instead of string matching.
var ErrStreamClosed = errors.New("core: stream is closed")

// Stream is the sustained-traffic query engine: a fixed pool of worker
// goroutines, each owning a pooled serial searcher, consuming queries from a
// bounded channel and delivering answers through a result callback. Unlike
// SearchBatch — which rebuilds its fan-out and output scaffolding per call —
// a Stream is created once and re-used for the life of the workload: the
// goroutines, searchers, query buffers and result buffers all persist, so
// steady-state traffic performs no per-query setup allocations.
//
// Every submission carries its own Plan (SubmitPlan), so in-flight queries
// may mix k values, approximation modes and deadlines; Submit is the
// fixed-k convenience over the stream's default k. A query whose deadline
// has passed by the time a worker picks it up (or between its shard stages)
// is answered with context.DeadlineExceeded instead of doing the work.
//
// Lifecycle: NewStream starts the workers; Submit/SubmitPlan enqueue queries
// (blocking for backpressure when the channel is full); Close drains
// in-flight queries and stops the workers. Submitting is safe from many
// goroutines at once.
type Stream struct {
	c      *Collection
	k      int
	handle func(qid uint64, res []index.Result, err error)

	jobs chan streamJob
	wg   sync.WaitGroup

	// bufs pools query copies so Submit's handoff to the workers is
	// allocation-free in steady state.
	bufs sync.Pool

	nextID atomic.Uint64

	// watchdog bounds how long a Submit may wait on a full channel before
	// concluding the workers are stuck (nanoseconds; 0 blocks forever). See
	// SetWatchdog.
	watchdog atomic.Int64

	// mu guards the closed transition: Submit holds it shared while sending
	// so Close cannot close the channel under an in-flight send.
	mu     sync.RWMutex
	closed bool
}

// defaultWatchdog is the submit-side stall deadline streams start with:
// long enough that no healthy query path ever trips it, short enough that a
// deadlocked worker pool surfaces as ErrStreamStalled rather than a hung
// submitter.
const defaultWatchdog = 30 * time.Second

// SetWatchdog sets how long Submit/SubmitPlan may wait for a worker to
// accept a query once the bounded channel is full before failing with
// ErrStreamStalled. d = 0 disables the watchdog (block indefinitely — the
// pre-fault-isolation behaviour). Safe to call concurrently with submits;
// in-flight waits keep the deadline they started with.
func (st *Stream) SetWatchdog(d time.Duration) {
	if d < 0 {
		d = 0
	}
	st.watchdog.Store(int64(d))
}

// streamJob is one enqueued query: the id returned by Submit, a pooled copy
// of the query values, and the query's execution plan. The pool pointer
// itself travels in the job so the worker returns the identical cell —
// re-boxing the slice header on either side would allocate per query.
type streamJob struct {
	id   uint64
	q    *[]float64
	plan Plan
}

// NewStream starts a streaming query engine over the collection. Every
// submitted query is answered by one of `workers` persistent worker
// goroutines (workers <= 0 selects GOMAXPROCS); the bounded submit channel
// holds up to two queries per worker, so submitters are backpressured
// instead of queueing unboundedly. k is the default plan for Submit;
// SubmitPlan overrides it per query.
//
// handle is invoked once per submitted query, possibly concurrently from
// different workers and in completion (not submission) order. The res slice
// is owned by the worker and reused for its next query: it is valid only
// for the duration of the callback — copy it to retain. Callbacks must not
// call Submit or Close on the same stream (Submit may block on a full
// channel that only the callback's worker can drain).
func (c *Collection) NewStream(k, workers int, handle func(qid uint64, res []index.Result, err error)) (*Stream, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if handle == nil {
		return nil, fmt.Errorf("core: stream handler must not be nil")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := &Stream{
		c:      c,
		k:      k,
		handle: handle,
		jobs:   make(chan streamJob, 2*workers),
	}
	st.watchdog.Store(int64(defaultWatchdog))
	st.bufs.New = func() any {
		buf := make([]float64, c.stride)
		return &buf
	}
	st.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go st.worker()
	}
	return st, nil
}

// worker consumes queries until the stream closes, answering each on a
// pooled serial searcher shared with SearchBatch. Results are appended into
// the searcher's own buffer, so the callback-scoped slice costs no per-query
// allocation in steady state.
func (st *Stream) worker() {
	defer st.wg.Done()
	s := st.c.serialSearcher()
	// Deferred closure rather than a direct Put: answer replaces s after a
	// recovered panic, and the pool must receive the replacement, never the
	// searcher whose scratch the panic corrupted.
	defer func() { st.c.searchers.Put(s) }()
	for job := range st.jobs {
		res, err := st.answer(&s, job)
		st.handle(job.id, res, err)
		st.bufs.Put(job.q)
	}
}

// answer executes one stream job with panic containment: shard-level faults
// are already absorbed inside SearchPlan, and anything that still escapes —
// a fault outside any shard stage — is converted to a *PanicError delivered
// through the stream's normal error callback, with the worker's searcher
// respawned fresh. The worker itself never dies: a panicking query costs
// that query, not the stream. Panics in the user's handle callback are
// outside this contract and remain fatal (they are caller bugs, and
// swallowing them would hide them).
func (st *Stream) answer(s **Searcher, job streamJob) (res []index.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &PanicError{Shard: -1, Value: r, Stack: debug.Stack()}
			*s = st.c.newSearcher(true)
		}
	}()
	if faultinject.Enabled {
		if err := faultinject.Hook(faultinject.SiteStreamWorker); err != nil {
			return nil, err
		}
	}
	return (*s).searchOwned(context.Background(), *job.q, job.plan)
}

// Submit enqueues one query under the stream's default k. The query is
// copied before Submit returns, so the caller may reuse its slice
// immediately. Submit blocks while the bounded channel is full — that
// backpressure is the flow control of the engine.
func (st *Stream) Submit(query []float64) (uint64, error) {
	return st.SubmitPlan(query, Plan{K: st.k})
}

// SubmitPlan enqueues one query with its own execution plan (k, epsilon or
// approximate mode, deadline), returning the id later passed to the handler.
// Like Submit, the query values are copied before SubmitPlan returns and
// the call blocks for backpressure while the bounded channel is full.
func (st *Stream) SubmitPlan(query []float64, p Plan) (uint64, error) {
	if len(query) != st.c.stride {
		return 0, fmt.Errorf("core: query length %d, want %d", len(query), st.c.stride)
	}
	if p.K < 1 {
		return 0, fmt.Errorf("core: k must be >= 1, got %d", p.K)
	}
	if p.Epsilon < 0 {
		return 0, fmt.Errorf("core: epsilon must be >= 0, got %v", p.Epsilon)
	}
	if faultinject.Enabled {
		if err := faultinject.Hook(faultinject.SiteStreamSubmit); err != nil {
			return 0, err
		}
	}
	buf := st.bufs.Get().(*[]float64)
	copy(*buf, query)
	id := st.nextID.Add(1) - 1

	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed {
		st.bufs.Put(buf)
		return 0, ErrStreamClosed
	}
	job := streamJob{id: id, q: buf, plan: p}
	// Fast path: channel has room — no timer, no allocations, nothing new on
	// the steady-state submit path.
	select {
	case st.jobs <- job:
		return id, nil
	default:
	}
	wd := time.Duration(st.watchdog.Load())
	if wd == 0 {
		st.jobs <- job
		return id, nil
	}
	// Slow path: the channel is full, meaning every worker is busy and the
	// backlog is at capacity. Healthy backpressure clears in the time of one
	// query; a stalled worker pool (hung shard, livelocked callback) never
	// clears, and without a deadline the stall would propagate to the
	// submitter. The timer costs an allocation only on this path.
	timer := time.NewTimer(wd)
	defer timer.Stop()
	select {
	case st.jobs <- job:
		return id, nil
	case <-timer.C:
		st.bufs.Put(buf)
		return 0, ErrStreamStalled
	}
}

// Close stops accepting submissions, waits for every in-flight query's
// callback to complete, and releases the workers. Close is idempotent;
// Submit calls racing with Close either enqueue (and are answered) or
// return ErrStreamClosed.
func (st *Stream) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	close(st.jobs)
	st.mu.Unlock()
	st.wg.Wait()
}
