//go:build faultinject

package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
)

// The chaos suite: deterministic fault injection (panics, errors, transient
// read failures) against the collection's containment layer. Build with
// -tags faultinject; the CI chaos job runs it under -race as well.

// chaosIndex builds a small sharded index and a disjoint query set.
func chaosIndex(tb testing.TB, shards int) (*Index, [][]float64) {
	tb.Helper()
	faultinject.Reset()
	rng := rand.New(rand.NewSource(831))
	data := mixedMatrix(rng, 600, 48)
	ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.2, Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	qm := mixedMatrix(rng, 4, 48)
	queries := make([][]float64, qm.Len())
	for i := range queries {
		queries[i] = qm.Row(i)
	}
	return ix, queries
}

// TestChaosKillOneShardMidQuery is the acceptance matrix: for S ∈ {2,4,8}
// and every instrumented query-path site, killing one shard mid-query with
// an injected panic yields — under AllowPartial — non-empty results, an
// accurate failed-shard count, a sound ε certificate, and never a process
// panic; after the fault clears, the respawned searcher answers the complete
// query bit-identically again.
func TestChaosKillOneShardMidQuery(t *testing.T) {
	const k = 5
	for _, shards := range []int{2, 4, 8} {
		ix, queries := chaosIndex(t, shards)
		s := ix.NewSearcher()
		full := make([][]Result, len(queries))
		for qi, q := range queries {
			res, err := s.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			full[qi] = append([]Result(nil), res...)
		}
		for _, site := range []string{
			faultinject.SiteShardSeed,
			faultinject.SiteShardFinish,
			faultinject.SiteKernel,
		} {
			faultinject.Arm(site, faultinject.Trigger{Mode: faultinject.ModePanic, OnCall: 1})
			res, err := s.SearchPlan(context.Background(), queries[0], Plan{K: k, AllowPartial: true}, nil)
			if err != nil {
				t.Fatalf("S=%d site=%s: partial query failed: %v", shards, site, err)
			}
			if len(res) == 0 {
				t.Fatalf("S=%d site=%s: partial query returned nothing", shards, site)
			}
			m := s.LastMeta()
			if m.ShardsFailed != 1 || m.ShardsSearched != shards-1 {
				t.Fatalf("S=%d site=%s: meta %+v, want exactly one failed shard", shards, site, m)
			}
			if m.EpsilonBound < 0 {
				t.Fatalf("S=%d site=%s: negative ε %v", shards, site, m.EpsilonBound)
			}
			if !math.IsInf(m.EpsilonBound, 1) {
				for r := range res {
					got, want := math.Sqrt(res[r].Dist), math.Sqrt(full[0][r].Dist)
					if got > (1+m.EpsilonBound)*want*(1+1e-9) {
						t.Fatalf("S=%d site=%s rank %d: %v exceeds (1+%v)·%v — certificate unsound",
							shards, site, r, got, m.EpsilonBound, want)
					}
				}
			}
			if fired := faultinject.Fired(site); fired != 1 {
				t.Fatalf("S=%d site=%s: %d faults fired, want 1", shards, site, fired)
			}
			faultinject.Disarm(site)
			// One panic never quarantines; the respawned shard searcher
			// answers the complete query again, bit for bit.
			if got := ix.Collection().Quarantined(); got != nil {
				t.Fatalf("S=%d site=%s: quarantined %v after a single panic", shards, site, got)
			}
			for qi, q := range queries {
				res, err := s.Search(q, k)
				if err != nil {
					t.Fatalf("S=%d site=%s: post-fault query: %v", shards, site, err)
				}
				for r := range res {
					if res[r] != full[qi][r] {
						t.Fatalf("S=%d site=%s q=%d rank %d: post-fault %+v != %+v",
							shards, site, qi, r, res[r], full[qi][r])
					}
				}
			}
		}
	}
}

// TestChaosFailFastDefault: without AllowPartial an injected shard panic
// fails the query with an error chain exposing both the sentinel and the
// recovered panic.
func TestChaosFailFastDefault(t *testing.T) {
	ix, queries := chaosIndex(t, 4)
	defer faultinject.Reset()
	s := ix.NewSearcher()
	faultinject.Arm(faultinject.SiteShardFinish, faultinject.Trigger{Mode: faultinject.ModePanic, OnCall: 1})
	_, err := s.Search(queries[0], 5)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("fail-fast err = %v, want ErrDegraded", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("fail-fast err = %v, want *PanicError in the chain", err)
	}
	if _, ok := pe.Value.(faultinject.Panic); !ok {
		t.Fatalf("recovered panic value %T, want faultinject.Panic", pe.Value)
	}
	if pe.Shard < 0 || pe.Shard >= 4 {
		t.Fatalf("panic attributed to shard %d", pe.Shard)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("recovered panic carries no stack")
	}
}

// TestChaosErrorModeShardFault: injected (non-panic) engine errors are shard
// faults too — attributed, degradable, and visible through errors.Is/As.
func TestChaosErrorModeShardFault(t *testing.T) {
	ix, queries := chaosIndex(t, 4)
	defer faultinject.Reset()
	s := ix.NewSearcher()
	faultinject.Arm(faultinject.SiteShardSeed, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
	_, err := s.Search(queries[0], 5)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
	if !faultinject.IsInjected(se.Err) {
		t.Fatalf("shard error cause %v is not the injected error", se.Err)
	}
	faultinject.Reset()
	faultinject.Arm(faultinject.SiteShardSeed, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
	res, err := s.SearchPlan(context.Background(), queries[0], Plan{K: 5, AllowPartial: true}, nil)
	if err != nil || len(res) == 0 {
		t.Fatalf("partial with injected error: %v (%d results)", err, len(res))
	}
	if m := s.LastMeta(); m.ShardsFailed != 1 {
		t.Fatalf("meta %+v", m)
	}
}

// TestChaosQuarantineAfterConsecutivePanics drives one shard to the
// quarantine threshold with a deterministic schedule: on a serial searcher
// over 2 shards, an every-2nd-call seed panic hits shard 1 on every query
// until the third strike quarantines it, after which the hook is no longer
// reached and the degraded answers keep flowing.
func TestChaosQuarantineAfterConsecutivePanics(t *testing.T) {
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	col := ix.Collection()
	s := col.newSearcher(true)
	faultinject.Arm(faultinject.SiteShardSeed, faultinject.Trigger{Mode: faultinject.ModePanic, EveryN: 2})
	for strike := 1; strike <= 3; strike++ {
		res, err := s.SearchPlan(context.Background(), queries[0], Plan{K: 5, AllowPartial: true}, nil)
		if err != nil || len(res) == 0 {
			t.Fatalf("strike %d: %v (%d results)", strike, err, len(res))
		}
		if m := s.LastMeta(); m.ShardsFailed != 1 {
			t.Fatalf("strike %d: meta %+v", strike, m)
		}
		want := []int(nil)
		if strike >= 3 {
			want = []int{1}
		}
		got := col.Quarantined()
		if len(got) != len(want) || (len(got) == 1 && got[0] != want[0]) {
			t.Fatalf("strike %d: quarantined %v, want %v", strike, got, want)
		}
	}
	// The quarantined shard is gated before its hook site: the armed trigger
	// stops firing, and queries stay degraded-but-answered.
	calls := faultinject.Calls(faultinject.SiteShardSeed)
	res, err := s.SearchPlan(context.Background(), queries[1], Plan{K: 5, AllowPartial: true}, nil)
	if err != nil || len(res) == 0 {
		t.Fatalf("post-quarantine query: %v", err)
	}
	if got := faultinject.Calls(faultinject.SiteShardSeed); got != calls+1 {
		t.Fatalf("seed hook reached %d times post-quarantine, want %d (healthy shard only)", got-calls, 1)
	}
	// Reinstate + disarm restores complete answers.
	faultinject.Reset()
	if err := col.Reinstate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SearchPlan(context.Background(), queries[0], Plan{K: 5}, nil); err != nil {
		t.Fatalf("post-reinstate: %v", err)
	}
	if m := s.LastMeta(); m.ShardsFailed != 0 || m.ShardsSearched != 2 {
		t.Fatalf("post-reinstate meta %+v", m)
	}
}

// TestChaosPanicCounterResetsOnSuccess: the quarantine policy counts
// consecutive faulting queries — a fully successful search of the shard
// resets its strike count, so intermittent faults never accumulate to
// quarantine.
func TestChaosPanicCounterResetsOnSuccess(t *testing.T) {
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	col := ix.Collection()
	s := col.newSearcher(true)
	for round := 0; round < 4; round++ {
		faultinject.Arm(faultinject.SiteShardSeed, faultinject.Trigger{Mode: faultinject.ModePanic, OnCall: 1})
		if _, err := s.SearchPlan(context.Background(), queries[0], Plan{K: 5, AllowPartial: true}, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		faultinject.Disarm(faultinject.SiteShardSeed)
		// A clean query in between resets every shard's strikes.
		if _, err := s.SearchPlan(context.Background(), queries[1], Plan{K: 5}, nil); err != nil {
			t.Fatalf("round %d healthy query: %v", round, err)
		}
	}
	if got := col.Quarantined(); got != nil {
		t.Fatalf("intermittent faults quarantined %v", got)
	}
	for i := range col.health {
		if n := col.health[i].panics.Load(); n != 0 {
			t.Fatalf("shard %d strike count %d after healthy query", i, n)
		}
	}
}

// TestChaosStreamWorkerPanic: an injected panic in a stream worker costs that
// query (answered with a *PanicError) and nothing else — the worker survives,
// respawns its searcher, and answers the next query exactly.
func TestChaosStreamWorkerPanic(t *testing.T) {
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	want, err := ix.NewSearcher().Search(queries[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	wantCopy := append([]Result(nil), want...)

	type answer struct {
		res []Result
		err error
	}
	got := make(chan answer, 2)
	st, err := ix.NewStream(5, 1, func(qid uint64, res []Result, err error) {
		got <- answer{append([]Result(nil), res...), err}
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.SiteStreamWorker, faultinject.Trigger{Mode: faultinject.ModePanic, OnCall: 1})
	if _, err := st.Submit(queries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(queries[1]); err != nil {
		t.Fatal(err)
	}
	a1, a2 := <-got, <-got
	var pe *PanicError
	if !errors.As(a1.err, &pe) || pe.Shard != -1 {
		t.Fatalf("injected worker panic answered with %v, want *PanicError (shard -1)", a1.err)
	}
	if a2.err != nil {
		t.Fatalf("query after worker panic: %v", a2.err)
	}
	if len(a2.res) != len(wantCopy) {
		t.Fatalf("%d results after respawn, want %d", len(a2.res), len(wantCopy))
	}
	for i := range wantCopy {
		if a2.res[i] != wantCopy[i] {
			t.Fatalf("rank %d after respawn: %+v != %+v", i, a2.res[i], wantCopy[i])
		}
	}
	st.Close()
}

// TestChaosBatchWorkerPanic: an injected panic inside a SearchBatchPlan
// worker — outside any shard's containment — fails that batch with a
// *PanicError (shard -1) instead of killing the process, keeps the searcher
// it unwound through out of the pool, and the next batch answers exactly.
func TestChaosBatchWorkerPanic(t *testing.T) {
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	col := ix.Collection()
	qs := make([]PlanQuery, len(queries))
	for i, q := range queries {
		qs[i] = PlanQuery{Series: q, Plan: Plan{K: 5}}
	}
	want, err := col.SearchBatchPlan(context.Background(), qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		faultinject.Arm(faultinject.SiteBatchWorker, faultinject.Trigger{Mode: faultinject.ModePanic, OnCall: 2})
		_, err := col.SearchBatchPlan(context.Background(), qs, workers)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Shard != -1 {
			t.Fatalf("workers=%d: batch err = %v, want *PanicError (shard -1)", workers, err)
		}
		if _, ok := pe.Value.(faultinject.Panic); !ok {
			t.Fatalf("workers=%d: recovered value %T, want faultinject.Panic", workers, pe.Value)
		}
		faultinject.Disarm(faultinject.SiteBatchWorker)
		got, err := col.SearchBatchPlan(context.Background(), qs, workers)
		if err != nil {
			t.Fatalf("workers=%d: batch after fault: %v", workers, err)
		}
		for qi := range want {
			for r := range want[qi] {
				if got[qi][r] != want[qi][r] {
					t.Fatalf("workers=%d q=%d rank %d: %+v != %+v after fault", workers, qi, r, got[qi][r], want[qi][r])
				}
			}
		}
	}
}

// TestChaosBatchWorkerError: error-mode injection fails the batch with the
// injected error itself (no panic machinery involved).
func TestChaosBatchWorkerError(t *testing.T) {
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	qs := []PlanQuery{{Series: queries[0], Plan: Plan{K: 5}}, {Series: queries[1], Plan: Plan{K: 5}}}
	faultinject.Arm(faultinject.SiteBatchWorker, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
	if _, err := ix.Collection().SearchBatchPlan(context.Background(), qs, 2); !faultinject.IsInjected(err) {
		t.Fatalf("batch err = %v, want injected", err)
	}
}

// TestChaosStreamSubmitError: injected submit-side faults surface to the
// submitter, not the handler, and do not poison the stream.
func TestChaosStreamSubmitError(t *testing.T) {
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	got := make(chan error, 1)
	st, err := ix.NewStream(5, 1, func(qid uint64, res []Result, err error) { got <- err })
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.SiteStreamSubmit, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
	if _, err := st.Submit(queries[0]); !faultinject.IsInjected(err) {
		t.Fatalf("submit err = %v, want injected", err)
	}
	if _, err := st.Submit(queries[0]); err != nil {
		t.Fatalf("submit after injected fault: %v", err)
	}
	if err := <-got; err != nil {
		t.Fatalf("handler err: %v", err)
	}
	st.Close()
}

// TestChaosPersistReadFaults covers the loader's retry ladder: a bounded
// transient fault is retried through; a persistent transient fault exhausts
// the budget and fails; a hard fault fails immediately.
func TestChaosPersistReadFaults(t *testing.T) {
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	var buf bytes.Buffer
	if err := Save(ix, &buf); err != nil {
		t.Fatal(err)
	}
	want, err := ix.NewSearcher().Search(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	wantCopy := append([]Result(nil), want...)

	// One transient fault mid-stream: the retry clears it and the load
	// succeeds, answering identically (f32 round trip aside, the loaded
	// index matches a clean load, which matches the build within tolerance —
	// compare against a clean load for exactness).
	faultinject.Arm(faultinject.SitePersistRead, faultinject.Trigger{Mode: faultinject.ModeTransient, OnCall: 1, Count: 1})
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load with one transient read fault: %v", err)
	}
	if fired := faultinject.Fired(faultinject.SitePersistRead); fired != 1 {
		t.Fatalf("%d transient faults fired, want 1", fired)
	}
	faultinject.Reset()
	res, err := loaded.NewSearcher().Search(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(wantCopy) {
		t.Fatalf("loaded index answered %d results, want %d", len(res), len(wantCopy))
	}

	// Persistent transient faults exhaust the bounded retry budget.
	faultinject.Arm(faultinject.SitePersistRead, faultinject.Trigger{Mode: faultinject.ModeTransient, EveryN: 1})
	if _, err := Load(bytes.NewReader(buf.Bytes())); !faultinject.IsTransient(err) {
		t.Fatalf("persistent transient load err = %v, want exhausted injected transient", err)
	}
	faultinject.Reset()

	// Hard faults are not retried.
	faultinject.Arm(faultinject.SitePersistRead, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
	if _, err := Load(bytes.NewReader(buf.Bytes())); !faultinject.IsInjected(err) {
		t.Fatalf("hard read fault load err = %v, want injected", err)
	}
	if calls := faultinject.Calls(faultinject.SitePersistRead); calls != 1 {
		t.Fatalf("hard fault retried: %d hook calls, want 1", calls)
	}
}

// TestChaosDisarmedIsClean: with the harness compiled in but nothing armed,
// queries are bit-identical to the armed-then-disarmed state — the hooks
// observe, never perturb.
func TestChaosDisarmedIsClean(t *testing.T) {
	ix, queries := chaosIndex(t, 4)
	defer faultinject.Reset()
	s := ix.NewSearcher()
	base := make([][]Result, len(queries))
	for qi, q := range queries {
		res, err := s.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		base[qi] = append([]Result(nil), res...)
	}
	faultinject.Arm(faultinject.SiteShardFinish, faultinject.Trigger{Mode: faultinject.ModePanic, OnCall: 1})
	if _, err := s.SearchPlan(context.Background(), queries[0], Plan{K: 5, AllowPartial: true}, nil); err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	for qi, q := range queries {
		res, err := s.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for r := range res {
			if res[r] != base[qi][r] {
				t.Fatalf("q=%d rank %d: %+v != %+v after disarm", qi, r, res[r], base[qi][r])
			}
		}
	}
}

// TestChaosMutationFaults covers the two mutation-path injection sites: a
// fault at SiteTombstone fails Delete/Upsert cleanly with the row still
// live and search results untouched, and a fault at SiteCompactSwap fails
// CompactShard with the old state standing — tombstones unreclaimed,
// results unchanged — until a clean retry reclaims them.
func TestChaosMutationFaults(t *testing.T) {
	const k = 5
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	s := ix.NewSearcher()
	res, err := s.Search(queries[0], k)
	if err != nil {
		t.Fatal(err)
	}
	baseline := append([]Result(nil), res...)
	victim := baseline[0].ID

	check := func(stage string, want []Result, wantTomb int) {
		t.Helper()
		if got := ix.Collection().Tombstoned(); got != wantTomb {
			t.Fatalf("%s: %d tombstoned rows, want %d", stage, got, wantTomb)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants: %v", stage, err)
		}
		res, err := s.Search(queries[0], k)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for r := range res {
			if res[r] != want[r] {
				t.Fatalf("%s rank %d: %+v != %+v", stage, r, res[r], want[r])
			}
		}
	}

	// A faulted delete surfaces the injected error and changes nothing.
	faultinject.Arm(faultinject.SiteTombstone, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
	var inj *faultinject.InjectedError
	if err := ix.Delete(victim); !errors.As(err, &inj) {
		t.Fatalf("faulted delete: %v, want injected error", err)
	}
	check("after faulted delete", baseline, 0)

	// A faulted upsert fires the same site and keeps the old value.
	faultinject.Arm(faultinject.SiteTombstone, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
	if err := ix.Upsert(victim, queries[1]); !errors.As(err, &inj) {
		t.Fatalf("faulted upsert: %v, want injected error", err)
	}
	check("after faulted upsert", baseline, 0)

	// Disarmed, the delete goes through; the victim leaves the results.
	faultinject.Disarm(faultinject.SiteTombstone)
	if err := ix.Delete(victim); err != nil {
		t.Fatal(err)
	}
	res, err = s.Search(queries[0], k)
	if err != nil {
		t.Fatal(err)
	}
	deleted := append([]Result(nil), res...)
	for _, r := range deleted {
		if r.ID == victim {
			t.Fatalf("deleted id %d still in results", victim)
		}
	}

	// A faulted compaction swap leaves the tombstone unreclaimed and the
	// answers unchanged (the rebuilt shard is discarded, never published).
	shard := int(victim) % ix.Shards()
	faultinject.Arm(faultinject.SiteCompactSwap, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
	if err := ix.CompactShard(shard); !errors.As(err, &inj) {
		t.Fatalf("faulted compaction: %v, want injected error", err)
	}
	check("after faulted compaction", deleted, 1)

	// A clean retry reclaims the row and answers identically.
	faultinject.Disarm(faultinject.SiteCompactSwap)
	if err := ix.CompactShard(shard); err != nil {
		t.Fatal(err)
	}
	check("after clean compaction", deleted, 0)
}
