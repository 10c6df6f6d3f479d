package index

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/distance"
)

// This file is the tree's fault-containment layer. The query engine fans out
// across goroutines in finishShard's traversal/drain workers, and a panic in
// any of them would kill the whole process: Go panics do not cross goroutine
// boundaries, so a recover in the caller alone is not enough. Worker
// goroutines therefore trap their own panics and forward them to the
// goroutine that owns the query, which re-panics; its caller — the
// collection layer — converts the panic to a typed error and quarantines the
// shard.
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

// MinRootBound returns the smallest summarization lower bound any series in
// this tree can have against the query representation qr — the min of the
// root children's node bounds. It is the certificate a degraded collection
// query uses for a shard whose search did not complete: every unexamined
// series in the shard has true squared distance >= MinRootBound, so the
// best-so-far over the surviving shards is quantifiably close to the true
// answer (see core's partial-result semantics). An empty tree returns +Inf
// (it constrains nothing).
func (t *Tree) MinRootBound(qr []float64) float64 {
	best := math.Inf(1)
	for _, rk := range t.rootKeys {
		n := t.root[rk]
		if n.count == 0 {
			continue
		}
		if d := nodeMinDist(t.sum, qr, n.word, n.cards); d < best {
			best = d
		}
	}
	return best
}

// QueryRepr computes the real-valued query representation of query (which
// is z-normalized into scratch first) into dst, using enc. It is the
// collection layer's certificate helper: computing the representation with
// independent scratch keeps the certificate valid even when the shard
// searcher that would normally own these buffers died mid-query.
func QueryRepr(enc Encoder, query, scratch, dst []float64) error {
	if len(scratch) != len(query) {
		return fmt.Errorf("index: scratch length %d, want %d", len(scratch), len(query))
	}
	copy(scratch, query)
	distance.ZNormalize(scratch)
	_, err := enc.QueryRepr(scratch, dst)
	return err
}
