package sofa

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Stream is the sustained-traffic query engine: a fixed pool of persistent
// worker goroutines consuming submitted queries from a bounded channel and
// delivering answers through a callback. Created once and reused for the
// life of a workload, it performs no per-query setup allocations — the
// engine for serving steady traffic, where SearchBatch's per-call
// scaffolding and Search's per-call latency focus both fit poorly.
//
// Each submission carries its own Query, so in-flight queries may mix k
// values, approximation modes and deadlines.
type Stream struct {
	x  *Index
	st *core.Stream
}

// NewStream starts a streaming engine over the index with the given number
// of worker goroutines (workers <= 0 selects GOMAXPROCS). The bounded
// submit channel holds up to two queries per worker; when it is full,
// Submit blocks — that backpressure is the engine's flow control.
//
// handle is invoked once per submitted query, possibly concurrently from
// different workers and in completion (not submission) order. Unlike
// Search, the res slice is CALLBACK-SCOPED: it is owned by the worker and
// reused for its next query, so it is valid only for the duration of the
// callback — copy it (append([]sofa.Result(nil), res...)) to retain.
// Callbacks must not call Submit or Close on the same stream.
func (x *Index) NewStream(workers int, handle func(qid uint64, res []Result, err error)) (*Stream, error) {
	if handle == nil {
		return nil, fmt.Errorf("%w: stream handler must not be nil", ErrBadConfig)
	}
	// The core default k is irrelevant: every public submission goes through
	// SubmitPlan with its own validated plan.
	st, err := x.ix.Collection().NewStream(1, workers, handle)
	if err != nil {
		// Both %w: errors.Is finds the sentinel and the engine's cause.
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	return &Stream{x: x, st: st}, nil
}

// Submit enqueues one query and returns the id later passed to the handler.
// The query series is copied before Submit returns, so the caller may reuse
// its slice immediately. Submit blocks while the bounded channel is full,
// and returns ErrStreamClosed after Close. Safe to call from many
// goroutines at once.
//
// A query with a Deadline option whose deadline passes while it waits in
// the queue is answered with context.DeadlineExceeded instead of being
// executed — expired work is shed, not served late.
func (st *Stream) Submit(q Query) (uint64, error) {
	p, err := st.x.plan(q)
	if err != nil {
		return 0, err
	}
	id, err := st.st.SubmitPlan(q.Series, p)
	if err != nil {
		if errors.Is(err, core.ErrStreamClosed) {
			return 0, ErrStreamClosed
		}
		return 0, err
	}
	return id, nil
}

// Close stops accepting submissions, waits for every in-flight query's
// callback to complete, and releases the workers. Close is idempotent.
func (st *Stream) Close() { st.st.Close() }
