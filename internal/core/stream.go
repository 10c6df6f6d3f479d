package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

	// mu guards the closed transition: Submit holds it shared while sending
	// so Close cannot close the channel under an in-flight send.
	mu     sync.RWMutex
	closed bool
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

// worker consumes queries until the stream closes, answering each through
// the collection's per-query step (Collection.answer) on a pooled serial
// searcher shared with SearchBatch. Results are appended into the worker's
// own buffer, so the callback-scoped slice costs no per-query allocation in
// steady state. A query's fault — a recovered panic included — reaches the
// handler as that query's error; the worker lives on. Panics in the handler
// itself are outside this contract and remain fatal (they are caller bugs,
// and swallowing them would hide them).
func (st *Stream) worker() {
	defer st.wg.Done()
	s := st.c.serialSearcher()
	// Deferred closure rather than a direct Put: answer replaces s after a
	// recovered panic, and the pool must receive the replacement, never the
	// searcher whose scratch the panic corrupted.
	defer func() { st.c.searchers.Put(s) }()
	var buf []index.Result
	for job := range st.jobs {
		res, err := st.c.answer(context.Background(), &s, *job.q, job.plan, buf[:0])
		if err == nil {
			buf = res
		}
		st.handle(job.id, res, err)
		st.bufs.Put(job.q)
	}
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
	if err := p.check(query, st.c); err != nil {
		return 0, err
	}
	if faultinject.Enabled {
		if err := submitFault(); err != nil {
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
	st.jobs <- streamJob{id: id, q: buf, plan: p}
	return id, nil
}

// submitFault runs SubmitPlan's injection site under a query's
// containment: an injected panic comes back as a *PanicError (shard -1), an
// injected error wrapped as a fault outside any shard.
func submitFault() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = shardPanic(-1, r)
		}
	}()
	if faultinject.Enabled {
		if err := faultinject.Hook(faultinject.SiteStreamSubmit); err != nil {
			return outsideShard(err)
		}
	}
	return nil
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
