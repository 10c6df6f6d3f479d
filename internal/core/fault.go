package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/index"
)

// This file is the collection's fault-isolation layer: the error taxonomy of
// degraded queries, per-shard health tracking with quarantine, and the live
// ε certificate partial results carry.
//
// The failure model is shard-granular. A shard fault — a panic inside one
// shard's search, or a non-cancellation error from its engine — costs that
// shard's contribution to the current query, never the process and never the
// other shards. What happens next depends on the plan:
//
//   - Fail-fast (the default): the query returns an error wrapping
//     ErrDegraded identifying the first failed shard.
//   - Plan.AllowPartial: the query returns the merged results of the
//     surviving shards with nil error, and LastMeta reports how many shards
//     failed plus an ε certificate bounding how far the partial answer can
//     be from the complete one.
//
// Cancellation (ctx or plan deadline) is never a shard fault: the caller
// asked the query to stop, so it stops with the context's error exactly as
// before, partial or not.
//
// Health: every shard carries a consecutive-panic counter. A panic triggers
// an immediate invariant check of the shard tree — structural corruption
// quarantines the shard on the spot (and marks it untrusted, voiding its
// certificate contribution); repeated panics on an intact tree quarantine it
// after Config.QuarantineAfter strikes (a fault that recurs per-query is a
// deterministic bug, and retrying it on every query just fails every query).
// Quarantined shards are skipped by searches, counted as failed in the meta,
// and refused by Insert; Reinstate clears the state after an operator fixed
// the cause.

// ErrDegraded reports that one or more shards did not contribute to a query
// (or, at load time, to a collection). Every shard-fault error wraps it, so
// errors.Is(err, ErrDegraded) identifies any partial-failure condition.
var ErrDegraded = errors.New("core: degraded: one or more shards unavailable")

// ErrShardQuarantined reports an operation against a quarantined shard. It
// wraps ErrDegraded: quarantine is one cause of degradation.
var ErrShardQuarantined = fmt.Errorf("shard quarantined: %w", ErrDegraded)

// ErrStreamStalled is returned by Stream.SubmitPlan when every worker has
// been stuck past the stream's watchdog deadline — the failure mode where a
// hung shard would otherwise hang the submitter too.
var ErrStreamStalled = errors.New("core: stream stalled: no worker accepted the query within the watchdog deadline")

// ErrNotFound reports a mutation against a public id that was never
// assigned by Insert.
var ErrNotFound = errors.New("core: id not found")

// ErrTombstoned reports a mutation against a public id that has been
// deleted: the id is permanently retired — deletion is not reversible and
// upsert does not resurrect.
var ErrTombstoned = errors.New("core: id tombstoned")

// PanicError is a recovered query panic converted to an error: the original
// panic value plus the stack of the panicking goroutine. Shard is the shard
// whose search panicked, or -1 when the panic was outside any shard (e.g. in
// a stream worker before shard dispatch). It wraps ErrDegraded.
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

// QueryMeta describes how the most recent query on a Searcher executed —
// the partial-result contract's observable half.
type QueryMeta struct {
	// ShardsSearched and ShardsFailed partition the collection's shards for
	// the last query. ShardsFailed counts quarantined (skipped) shards as
	// well as shards that faulted mid-query.
	ShardsSearched int
	ShardsFailed   int
	// EpsilonBound is the live certificate of a degraded answer: the
	// returned distances are each within a (1+EpsilonBound) factor of what
	// the complete search (relative to the plan's own guarantee) would have
	// returned. 0 when the partial answer is provably identical to the
	// complete one — including every non-degraded query — and +Inf when the
	// failed shards cannot be bounded (no usable tree, or fewer than k
	// results survived) or the query returned an error, which certifies
	// nothing. It is computed from the surviving best-so-far and the failed
	// shards' root lower bounds, so it is query-specific, not a static worst
	// case.
	EpsilonBound float64
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

// shardHealth is one shard's fault-tracking state. All fields are atomics:
// searchers on different goroutines observe and update health concurrently.
type shardHealth struct {
	// panics counts consecutive panicking queries; any fully successful
	// search of the shard resets it.
	panics atomic.Int32
	// quarantined shards are skipped by searches and refused by Insert.
	quarantined atomic.Bool
	// untrusted marks a shard whose tree failed its invariant check (or was
	// never built, for load-time quarantine): its root bounds are
	// meaningless, so it contributes +Inf degradation to certificates.
	untrusted atomic.Bool
}

// defaultQuarantineAfter is how many consecutive panicking queries
// quarantine a shard when Config.QuarantineAfter is zero.
const defaultQuarantineAfter = 3

func (c *Collection) quarantineAfter() int32 {
	if c.cfg.QuarantineAfter > 0 {
		return int32(c.cfg.QuarantineAfter)
	}
	return defaultQuarantineAfter
}

// shardUsable reports whether shard i should participate in queries.
func (c *Collection) shardUsable(i int) bool {
	return c.tree(i) != nil && !c.health[i].quarantined.Load()
}

// shardGate returns the error a direct operation against shard i must fail
// with, or nil when the shard is usable.
func (c *Collection) shardGate(i int) error {
	if c.shardUsable(i) {
		return nil
	}
	return &ShardError{Shard: i, Err: ErrShardQuarantined}
}

// Quarantine manually quarantines shard i: subsequent searches skip it (and
// degrade accordingly) and Insert refuses it. It is the operational handle
// behind the automatic policy, and what the chaos suite and the sofa
// examples use to create deterministic degradation.
func (c *Collection) Quarantine(i int) error {
	if i < 0 || i >= len(c.states) {
		return fmt.Errorf("core: shard %d out of range [0,%d)", i, len(c.states))
	}
	c.health[i].quarantined.Store(true)
	return nil
}

// Reinstate clears shard i's quarantine and panic history. Reinstating a
// shard that has no tree (it was quarantined at load time) fails: there is
// nothing to reinstate.
func (c *Collection) Reinstate(i int) error {
	if i < 0 || i >= len(c.states) {
		return fmt.Errorf("core: shard %d out of range [0,%d)", i, len(c.states))
	}
	if c.tree(i) == nil {
		return fmt.Errorf("core: shard %d has no tree (quarantined at load); rebuild the collection to restore it", i)
	}
	c.health[i].quarantined.Store(false)
	c.health[i].untrusted.Store(false)
	c.health[i].panics.Store(0)
	return nil
}

// Quarantined returns the indices of the currently quarantined shards, in
// ascending order (nil when the collection is fully healthy).
func (c *Collection) Quarantined() []int {
	var out []int
	for i := range c.health {
		if !c.shardUsable(i) {
			out = append(out, i)
		}
	}
	return out
}

// recordShardPanic converts a recovered panic in shard i's search into a
// *PanicError and applies the health policy: an invariant check of the tree
// right now (corruption quarantines immediately and voids the shard's
// certificate), otherwise quarantine after quarantineAfter consecutive
// panicking queries.
func (c *Collection) recordShardPanic(i int, r any) error {
	var pe *PanicError
	if wp, ok := r.(index.WorkerPanic); ok {
		pe = &PanicError{Shard: i, Value: wp.Value, Stack: wp.Stack}
	} else {
		pe = &PanicError{Shard: i, Value: r, Stack: debug.Stack()}
	}
	h := &c.health[i]
	n := h.panics.Add(1)
	if t := c.tree(i); t != nil {
		if err := t.CheckInvariants(); err != nil {
			h.untrusted.Store(true)
			h.quarantined.Store(true)
			return pe
		}
	}
	if n >= c.quarantineAfter() {
		h.quarantined.Store(true)
	}
	return pe
}

// certificate computes the degraded query's ε bound. The argument: every
// series in a failed shard has true squared distance >= that shard's
// MinRootBound against this query (the GEMINI lower-bound framework's node
// bound, evaluated at the root). With d_k the k-th best squared distance
// among the survivors and L the minimum bound over the failed shards, any
// answer the failed shards could have contributed at rank <= k has distance
// >= sqrt(L), so each reported distance is within sqrt(d_k/L) = 1+ε of the
// complete answer's. d_k <= L certifies the partial answer exact (ε = 0);
// an unusable tree (L = 0) or fewer than k survivors (d_k = +Inf) yields
// +Inf. The certificate is relative to the plan's own guarantee: an
// ε-approximate or best-leaf-approximate plan bounds its degradation against
// the non-degraded run of that same plan.
//
// The query representation is recomputed here with searcher-owned scratch
// (lazily allocated on the first degraded query) rather than borrowed from a
// shard searcher: the searcher that faulted owns the scratch a panic may
// have corrupted.
func (s *Searcher) certificate(query []float64) float64 {
	if s.certEnc == nil {
		s.certEnc = s.c.sum.NewIndexEncoder()
		s.certBuf = make([]float64, s.c.stride)
		s.certQR = make([]float64, s.c.sum.Segments())
	}
	if err := index.QueryRepr(s.certEnc, query, s.certBuf, s.certQR); err != nil {
		return math.Inf(1)
	}
	minLB := math.Inf(1)
	for i := range s.ss {
		if s.errs[i] == nil {
			continue
		}
		lb := 0.0
		if st := s.states[i]; st != nil && st.tree != nil && !s.c.health[i].untrusted.Load() {
			if st.relearned {
				// The shard's quantization diverged from the collection's at
				// a re-learning compaction, so its root bound needs a query
				// representation in the shard's own space. Allocating here is
				// fine: this is the degraded path, not the steady state.
				sum := st.tree.Sum()
				qr := make([]float64, sum.Segments())
				if err := index.QueryRepr(sum.NewIndexEncoder(), query, s.certBuf, qr); err == nil {
					lb = st.tree.MinRootBound(qr)
				}
			} else {
				lb = st.tree.MinRootBound(s.certQR)
			}
		}
		if lb < minLB {
			minLB = lb
		}
	}
	dk := s.kn.Bound()
	switch {
	case dk <= minLB:
		return 0
	case minLB <= 0 || math.IsInf(dk, 1):
		return math.Inf(1)
	default:
		// Distances are squared throughout the engine; the certificate is
		// quoted in the true (unsquared) domain, like Plan.Epsilon.
		return math.Sqrt(dk/minLB) - 1
	}
}

// LastMeta returns the execution metadata of the most recent SearchPlan (or
// Search* wrapper) call on this searcher: shard participation and, for
// degraded answers, the ε certificate.
func (s *Searcher) LastMeta() QueryMeta { return s.meta }
