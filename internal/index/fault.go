package index

import (
	"runtime/debug"
	"sync/atomic"
)

// This file is the tree's fault-containment layer. The query engine fans out
// across goroutines in finishShard's traversal/drain workers, and a panic in
// any of them would kill the whole process: Go panics do not cross goroutine
// boundaries, so a recover in the caller alone is not enough. Worker
// goroutines therefore trap their own panics and forward them to the
// goroutine that owns the query, which re-panics; its caller — the
// collection layer — converts the panic to a typed error that fails the
// query.
//
// A searcher that panicked mid-query has undefined scratch state (queues,
// collector, partially built tables), so it is never reused: the recovery
// path discards it and respawns a fresh searcher in its place.

// WorkerPanic is the value finishShard re-panics with when one of its
// internal worker goroutines panicked: the original panic value plus the
// worker's stack, so the recovery layer above (which is on a different
// goroutine than the fault) can still report where the panic happened.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// recoveredPanic normalizes a recover() value into (value, stack),
// unwrapping a forwarded WorkerPanic so the original fault's stack is kept.
func recoveredPanic(r any) (any, []byte) {
	if wp, ok := r.(WorkerPanic); ok {
		return wp.Value, wp.Stack
	}
	return r, debug.Stack()
}

// trapPanic is the deferred guard worker goroutines run: it captures the
// first panic among the workers (value + stack) for the owning goroutine to
// rethrow. Later panics are dropped — one fault is enough to fail the query,
// and the first is the one whose stack matters.
func trapPanic(dst *atomic.Pointer[WorkerPanic]) {
	if r := recover(); r != nil {
		v, stack := recoveredPanic(r)
		dst.CompareAndSwap(nil, &WorkerPanic{Value: v, Stack: stack})
	}
}

// rethrow re-panics a forwarded worker panic on the owning goroutine, after
// all workers have been joined.
func rethrow(p *atomic.Pointer[WorkerPanic]) {
	if wp := p.Load(); wp != nil {
		panic(*wp)
	}
}
