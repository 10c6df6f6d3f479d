//go:build faultinject

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/index"
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

// baselineAnswers answers every query on a fault-free searcher: the
// complete answers every later query must reproduce bit for bit.
func baselineAnswers(tb testing.TB, ix *Index, queries [][]float64, k int) [][]Result {
	tb.Helper()
	s := ix.NewSearcher()
	out := make([][]Result, len(queries))
	for qi, q := range queries {
		res, err := s.Search(q, k)
		if err != nil {
			tb.Fatal(err)
		}
		out[qi] = append([]Result(nil), res...)
	}
	return out
}

// sameAnswers fails the test unless got equals want bit for bit.
func sameAnswers(tb testing.TB, what string, got, want []Result) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for r := range got {
		if got[r] != want[r] {
			tb.Fatalf("%s rank %d: %+v != %+v", what, r, got[r], want[r])
		}
	}
}

// TestChaosKillOneShardMidQuery is the acceptance matrix: for S ∈ {2,4,8},
// every instrumented shard-stage site and every shard, killing that shard
// mid-query with an injected panic fails the query with that shard's
// *PanicError (wrapping ErrDegraded) and never a process panic, replaces
// that shard's searcher (its scratch is unsafe to reuse) and no other — and
// the same searcher's next queries equal the baseline bit for bit. A serial
// searcher reaches each site once per shard in shard order, so the nth call
// pins the victim; the parallel searcher's first call lands on whichever
// shard gets there first.
func TestChaosKillOneShardMidQuery(t *testing.T) {
	defer faultinject.Reset()
	const k = 5
	sites := []string{faultinject.SiteShardSeed, faultinject.SiteShardFinish, faultinject.SiteKernel}
	for _, shards := range []int{2, 4, 8} {
		ix, queries := chaosIndex(t, shards)
		full := baselineAnswers(t, ix, queries, k)
		kill := func(s *Searcher, site string, onCall uint64, victim int) {
			t.Helper()
			prev := append([]*index.Searcher(nil), s.ss...)
			faultinject.Arm(site, faultinject.Trigger{Mode: faultinject.ModePanic, OnCall: onCall})
			_, err := s.Search(queries[0], k)
			var pe *PanicError
			if !errors.Is(err, ErrDegraded) || !errors.As(err, &pe) {
				t.Fatalf("S=%d site=%s: err = %v, want a *PanicError wrapping ErrDegraded", shards, site, err)
			}
			if p, ok := pe.Value.(faultinject.Panic); !ok || p.Site != site {
				t.Fatalf("S=%d site=%s: recovered value %#v, want the injected panic", shards, site, pe.Value)
			}
			if (victim >= 0 && pe.Shard != victim) || pe.Shard < 0 || pe.Shard >= shards {
				t.Fatalf("S=%d site=%s: panic attributed to shard %d, want %d", shards, site, pe.Shard, victim)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("S=%d site=%s: recovered panic carries no stack", shards, site)
			}
			for i := range prev {
				if respawned := s.ss[i] != prev[i]; respawned != (i == pe.Shard) {
					t.Fatalf("S=%d site=%s: shard %d searcher respawned=%v after a panic in shard %d", shards, site, i, respawned, pe.Shard)
				}
			}
			if fired := faultinject.Fired(site); fired != 1 {
				t.Fatalf("S=%d site=%s: %d faults fired, want 1", shards, site, fired)
			}
			faultinject.Disarm(site)
			for qi, q := range queries {
				res, err := s.Search(q, k)
				if err != nil {
					t.Fatalf("S=%d site=%s: query after the fault: %v", shards, site, err)
				}
				sameAnswers(t, fmt.Sprintf("S=%d site=%s shard %d q=%d after the fault", shards, site, pe.Shard, qi), res, full[qi])
			}
		}
		serial := ix.Collection().newSearcher(true)
		parallel := ix.NewSearcher()
		for _, site := range sites {
			for victim := 0; victim < shards; victim++ {
				kill(serial, site, uint64(victim+1), victim)
			}
			kill(parallel, site, 1, -1)
		}
	}
}

// TestChaosErrorModeShardFault: injected (non-panic) engine errors at every
// shard-stage site are shard faults too — they fail the query with a
// *ShardError wrapping both ErrDegraded and the injected cause, and the
// next query answers the baseline bit for bit.
func TestChaosErrorModeShardFault(t *testing.T) {
	ix, queries := chaosIndex(t, 4)
	defer faultinject.Reset()
	full := baselineAnswers(t, ix, queries, 5)
	s := ix.NewSearcher()
	for _, site := range []string{faultinject.SiteShardSeed, faultinject.SiteShardFinish, faultinject.SiteKernel} {
		faultinject.Arm(site, faultinject.Trigger{Mode: faultinject.ModeError, OnCall: 1})
		_, err := s.Search(queries[0], 5)
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("site=%s: err = %v, want ErrDegraded", site, err)
		}
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("site=%s: err = %v, want *ShardError", site, err)
		}
		if !faultinject.IsInjected(se.Err) {
			t.Fatalf("site=%s: shard error cause %v is not the injected error", site, se.Err)
		}
		faultinject.Disarm(site)
		res, err := s.Search(queries[0], 5)
		if err != nil {
			t.Fatalf("site=%s: query after the fault: %v", site, err)
		}
		sameAnswers(t, "site="+site+" after the fault", res, full[0])
	}
}

// TestChaosStreamSubmitError: injected submit-side faults surface to the
// submitter, not the handler, and do not poison the stream: the next query
// is answered exactly.
func TestChaosStreamSubmitError(t *testing.T) {
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	full := baselineAnswers(t, ix, queries, 5)
	type answer struct {
		res []Result
		err error
	}
	got := make(chan answer, 1)
	st, err := ix.NewStream(5, 1, func(qid uint64, res []Result, err error) {
		got <- answer{append([]Result(nil), res...), err}
	})
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
	a := <-got
	if a.err != nil {
		t.Fatalf("handler err: %v", a.err)
	}
	sameAnswers(t, "after the submit fault", a.res, full[0])
	st.Close()
}

// TestChaosOutsideShardSites is the fail-fast table of the sites outside
// any shard — query/worker, the per-query step that batch and stream
// workers share, and stream/submit — on every engine that reaches them
// (a batch at 1 and 4 workers, a one-worker stream), under both fault
// modes. The fault fires on the second query: an injected error comes back
// wrapping ErrDegraded and the injected error, an injected panic as a
// *PanicError (shard -1, also wrapping ErrDegraded) carrying the injected
// value, never a crash. The next batch at the same worker count, or the
// next stream queries, then answer every query bit-identically: the worker
// that met the fault respawned its searcher and lives on.
func TestChaosOutsideShardSites(t *testing.T) {
	ix, queries := chaosIndex(t, 2)
	defer faultinject.Reset()
	full := baselineAnswers(t, ix, queries, 5)
	col := ix.Collection()
	qs := make([]PlanQuery, len(queries))
	for i, q := range queries {
		qs[i] = PlanQuery{Series: q, Plan: Plan{K: 5}}
	}

	// An engine answers every query, or stops at the first fault it meets.
	type engine func() ([][]Result, error)
	batch := func(workers int) engine {
		return func() ([][]Result, error) { return col.SearchBatchPlan(context.Background(), qs, workers) }
	}
	type answer struct {
		res []Result
		err error
	}
	got := make(chan answer, 1)
	st, err := ix.NewStream(5, 1, func(qid uint64, res []Result, err error) {
		got <- answer{append([]Result(nil), res...), err}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stream := func() ([][]Result, error) {
		out := make([][]Result, len(queries))
		for qi, q := range queries {
			if _, err := st.Submit(q); err != nil {
				return nil, err
			}
			a := <-got
			if a.err != nil {
				return nil, a.err
			}
			out[qi] = a.res
		}
		return out, nil
	}

	for _, c := range []struct {
		engine string
		site   string
		run    engine
	}{
		{"batch-w1", faultinject.SiteQueryWorker, batch(1)},
		{"batch-w4", faultinject.SiteQueryWorker, batch(4)},
		{"stream", faultinject.SiteQueryWorker, stream},
		{"stream", faultinject.SiteStreamSubmit, stream},
	} {
		for _, mode := range []faultinject.Mode{faultinject.ModeError, faultinject.ModePanic} {
			t.Run(fmt.Sprintf("%s/%s/%v", c.engine, c.site, mode), func(t *testing.T) {
				faultinject.Arm(c.site, faultinject.Trigger{Mode: mode, OnCall: 2})
				_, err := c.run()
				faultinject.Disarm(c.site)
				if !errors.Is(err, ErrDegraded) {
					t.Fatalf("err = %v, want one wrapping ErrDegraded", err)
				}
				var pe *PanicError
				switch {
				case mode == faultinject.ModeError && !faultinject.IsInjected(err):
					t.Fatalf("err = %v, want the injected error", err)
				case mode == faultinject.ModePanic && (!errors.As(err, &pe) || pe.Shard != -1):
					t.Fatalf("err = %v, want a *PanicError (shard -1)", err)
				case mode == faultinject.ModePanic:
					if _, ok := pe.Value.(faultinject.Panic); !ok {
						t.Fatalf("recovered value %T, want faultinject.Panic", pe.Value)
					}
				}
				next, err := c.run()
				if err != nil {
					t.Fatalf("queries after the fault: %v", err)
				}
				for qi := range full {
					sameAnswers(t, fmt.Sprintf("query %d after the fault", qi), next[qi], full[qi])
				}
			})
		}
	}
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
	if _, err := s.Search(queries[0], 5); !errors.Is(err, ErrDegraded) {
		t.Fatalf("armed query: %v, want ErrDegraded", err)
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
