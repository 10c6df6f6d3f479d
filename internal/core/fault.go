package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/index"
)

// This file is the collection's fault-isolation layer: the error taxonomy of
// failed queries. The contract is fail-fast: the index answers completely or
// returns an error. An answer missing a shard is not the exact answer the
// lower-bounding frame guarantees, so no query returns one.
//
// A shard fault — a panic inside one shard's search, or a non-cancellation
// error from its engine — fails the query with an error wrapping ErrDegraded
// that identifies the shard, never the process and never a later query: the
// shard searcher the panic unwound through is discarded and respawned fresh,
// so the next query on the same Searcher answers exactly again.
//
// Cancellation (ctx or plan deadline) is never a shard fault: the caller
// asked the query to stop, so it stops with the context's error.

// ErrDegraded reports that one or more shards did not contribute to a
// query, so the query failed rather than answer incompletely. Every
// shard-fault error and every recovered query panic wraps it.
var ErrDegraded = errors.New("core: degraded: one or more shards unavailable")

// ErrNotFound reports a mutation against a public id that was never
// assigned by Insert.
var ErrNotFound = errors.New("core: id not found")

// ErrTombstoned reports a mutation against a public id that has been
// deleted: the id is permanently retired — deletion is not reversible and
// upsert does not resurrect.
var ErrTombstoned = errors.New("core: id tombstoned")

// PanicError is a recovered query panic converted to an error: the original
// panic value plus the stack of the panicking goroutine. Shard is the shard
// whose search panicked, or -1 when the panic was outside any shard: in the
// per-query step that batch and stream workers share (Collection.answer,
// which then respawns the worker's searcher), or in Stream.SubmitPlan. It
// wraps ErrDegraded.
type PanicError struct {
	Shard int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Shard < 0 {
		return fmt.Sprintf("core: recovered panic: %v", e.Value)
	}
	return fmt.Sprintf("core: recovered panic in shard %d: %v", e.Shard, e.Value)
}

func (e *PanicError) Unwrap() error { return ErrDegraded }

// outsideShard wraps an error raised outside any shard — in the per-query
// step of a batch or stream worker, or in Stream.SubmitPlan — so that it
// fails the query the way a shard fault does: errors.Is finds ErrDegraded,
// errors.As the cause.
func outsideShard(err error) error {
	return fmt.Errorf("%w: %w", ErrDegraded, err)
}

// ShardError attributes a fault to one shard. It wraps both ErrDegraded and
// the underlying cause, so errors.Is works against the sentinel and
// errors.As against the cause.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("core: shard %d: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() []error { return []error{ErrDegraded, e.Err} }

// QueryMeta describes the collection state the most recent query on a
// Searcher ran against.
type QueryMeta struct {
	// Live and Tombstoned snapshot the collection's mutation state as the
	// query started: live series searched and deleted-but-unreclaimed rows
	// the refinement stage skipped over.
	Live       int
	Tombstoned int
	// Compactions and Relearns are the collection's lifetime counts of shard
	// compactions and of compactions that re-learned a shard's SFA
	// quantization; RelearnChurnFraction echoes the configured re-learn
	// threshold (0 when re-learning is disabled), so a query's answer
	// records the adaptation policy it ran under.
	Compactions          int64
	Relearns             int64
	RelearnChurnFraction float64
}

// shardPanic converts a recovered panic in shard i's search (i = -1:
// outside any shard) into a *PanicError, keeping the original stack when a
// tree worker goroutine forwarded it.
func shardPanic(i int, r any) error {
	if wp, ok := r.(index.WorkerPanic); ok {
		return &PanicError{Shard: i, Value: wp.Value, Stack: wp.Stack}
	}
	return &PanicError{Shard: i, Value: r, Stack: debug.Stack()}
}

// LastMeta returns the metadata of the most recent SearchPlan (or Search*
// wrapper) call on this searcher.
func (s *Searcher) LastMeta() QueryMeta { return s.meta }
