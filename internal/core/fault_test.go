package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The quarantine/partial-result contract without fault injection: shards are
// degraded through the public Quarantine handle, so these tests run in every
// build (the chaos suite under -tags faultinject exercises the same paths
// with injected panics and errors).

// TestQuarantinePartialResults is the degradation matrix: for S ∈ {2,4,8},
// quarantine each shard in turn and verify fail-fast queries error with
// ErrDegraded while AllowPartial queries return the survivors' answer with
// accurate meta and a sound ε certificate.
func TestQuarantinePartialResults(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	data := mixedMatrix(rng, 800, 64)
	queries := mixedMatrix(rng, 6, 64)
	const k = 10
	for _, shards := range []int{2, 4, 8} {
		ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		col := ix.Collection()
		// Baseline: the complete answers, and healthy-query meta.
		full := make([][]Result, queries.Len())
		ref := ix.NewSearcher()
		for qi := range full {
			res, err := ref.Search(queries.Row(qi), k)
			if err != nil {
				t.Fatal(err)
			}
			full[qi] = append([]Result(nil), res...)
			if m := ref.LastMeta(); m.ShardsSearched != shards || m.ShardsFailed != 0 || m.EpsilonBound != 0 {
				t.Fatalf("S=%d: healthy meta %+v", shards, m)
			}
		}
		for fail := 0; fail < shards; fail++ {
			if err := col.Quarantine(fail); err != nil {
				t.Fatal(err)
			}
			s := ix.NewSearcher()
			// Fail-fast (the default): the query errors, identifying the
			// degradation and the quarantine.
			if _, err := s.Search(queries.Row(0), k); !errors.Is(err, ErrDegraded) {
				t.Fatalf("S=%d fail=%d: fail-fast err = %v, want ErrDegraded", shards, fail, err)
			} else if !errors.Is(err, ErrShardQuarantined) {
				t.Fatalf("S=%d fail=%d: fail-fast err = %v, want ErrShardQuarantined", shards, fail, err)
			}
			// A failed query certifies nothing: its bound is unbounded, never
			// the 0 that means "provably identical".
			if m := s.LastMeta(); m.ShardsFailed != 1 || m.ShardsSearched != shards-1 || !math.IsInf(m.EpsilonBound, 1) {
				t.Fatalf("S=%d fail=%d: fail-fast meta %+v", shards, fail, m)
			}
			// AllowPartial: survivors answer, meta counts, certificate bounds.
			for qi := 0; qi < queries.Len(); qi++ {
				res, err := s.SearchPlan(context.Background(), queries.Row(qi), Plan{K: k, AllowPartial: true}, nil)
				if err != nil {
					t.Fatalf("S=%d fail=%d q=%d: partial query failed: %v", shards, fail, qi, err)
				}
				if len(res) == 0 {
					t.Fatalf("S=%d fail=%d q=%d: partial query returned nothing", shards, fail, qi)
				}
				for _, r := range res {
					if int(r.ID)%shards == fail {
						t.Fatalf("S=%d fail=%d q=%d: result id %d belongs to the quarantined shard", shards, fail, qi, r.ID)
					}
				}
				m := s.LastMeta()
				if m.ShardsFailed != 1 || m.ShardsSearched != shards-1 {
					t.Fatalf("S=%d fail=%d q=%d: partial meta %+v", shards, fail, qi, m)
				}
				if m.EpsilonBound < 0 {
					t.Fatalf("S=%d fail=%d q=%d: negative ε %v", shards, fail, qi, m.EpsilonBound)
				}
				// Soundness: every reported distance is within (1+ε) of the
				// complete answer's at the same rank (unsquared domain).
				if !math.IsInf(m.EpsilonBound, 1) {
					for r := range res {
						got := math.Sqrt(res[r].Dist)
						want := math.Sqrt(full[qi][r].Dist)
						if got > (1+m.EpsilonBound)*want*(1+1e-9) {
							t.Fatalf("S=%d fail=%d q=%d rank %d: distance %v exceeds (1+%v)·%v — certificate unsound",
								shards, fail, qi, r, got, m.EpsilonBound, want)
						}
					}
				}
				// ε = 0 certifies the partial answer identical to the complete
				// one.
				if m.EpsilonBound == 0 {
					for r := range res {
						if res[r] != full[qi][r] {
							t.Fatalf("S=%d fail=%d q=%d rank %d: ε=0 but %+v != %+v",
								shards, fail, qi, r, res[r], full[qi][r])
						}
					}
				}
			}
			if got := col.Quarantined(); len(got) != 1 || got[0] != fail {
				t.Fatalf("S=%d fail=%d: Quarantined() = %v", shards, fail, got)
			}
			// Reinstate restores the complete answer.
			if err := col.Reinstate(fail); err != nil {
				t.Fatal(err)
			}
			res, err := s.Search(queries.Row(0), k)
			if err != nil {
				t.Fatalf("S=%d fail=%d: post-reinstate search: %v", shards, fail, err)
			}
			for r := range res {
				if res[r] != full[0][r] {
					t.Fatalf("S=%d fail=%d rank %d: post-reinstate %+v != %+v", shards, fail, r, res[r], full[0][r])
				}
			}
			if m := s.LastMeta(); m.ShardsFailed != 0 || m.ShardsSearched != shards {
				t.Fatalf("S=%d fail=%d: post-reinstate meta %+v", shards, fail, m)
			}
		}
	}
}

// TestQuarantineSingleShard pins the one-shard case of the shared path: with
// no surviving shards a fault is an error even under AllowPartial, and the
// failed query's meta carries an unbounded ε.
func TestQuarantineSingleShard(t *testing.T) {
	rng := rand.New(rand.NewSource(812))
	ix, err := Build(mixedMatrix(rng, 200, 32), Config{Method: MESSI, LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Collection().Quarantine(0); err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher()
	q := mixedMatrix(rng, 1, 32).Row(0)
	if _, err := s.Search(q, 3); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("Search on quarantined single shard: %v", err)
	}
	if m := s.LastMeta(); m.ShardsFailed != 1 || !math.IsInf(m.EpsilonBound, 1) {
		t.Fatalf("meta %+v", m)
	}
	if _, err := s.SearchPlan(context.Background(), q, Plan{K: 3, AllowPartial: true}, nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("AllowPartial with zero survivors: %v, want ErrDegraded", err)
	}
	// The other wrappers lower to the same plan path and hit the same gate.
	if _, err := s.SearchApproximate(q, 3); !errors.Is(err, ErrDegraded) {
		t.Fatalf("SearchApproximate: %v", err)
	}
	if _, err := s.SearchEpsilon(q, 3, 0.5); !errors.Is(err, ErrDegraded) {
		t.Fatalf("SearchEpsilon: %v", err)
	}
}

// TestQuarantineAllShardsFails: a degraded query that would return zero
// results fails even with AllowPartial — an empty answer certifies nothing.
func TestQuarantineAllShardsFails(t *testing.T) {
	rng := rand.New(rand.NewSource(813))
	ix, err := Build(mixedMatrix(rng, 200, 32), Config{Method: MESSI, LeafCapacity: 16, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	col := ix.Collection()
	for i := 0; i < 3; i++ {
		if err := col.Quarantine(i); err != nil {
			t.Fatal(err)
		}
	}
	s := ix.NewSearcher()
	q := mixedMatrix(rng, 1, 32).Row(0)
	if _, err := s.SearchPlan(context.Background(), q, Plan{K: 3, AllowPartial: true}, nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("all-quarantined AllowPartial: %v, want ErrDegraded", err)
	}
	if got := col.Quarantined(); len(got) != 3 {
		t.Fatalf("Quarantined() = %v", got)
	}
}

// TestQuarantineValidation covers the operational handle's edges: range
// checks and reinstating shards that never lost their tree.
func TestQuarantineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(814))
	ix, err := Build(mixedMatrix(rng, 100, 32), Config{Method: MESSI, LeafCapacity: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	col := ix.Collection()
	if err := col.Quarantine(-1); err == nil {
		t.Error("Quarantine(-1) accepted")
	}
	if err := col.Quarantine(2); err == nil {
		t.Error("Quarantine(2) accepted on a 2-shard collection")
	}
	if err := col.Reinstate(5); err == nil {
		t.Error("Reinstate(5) accepted")
	}
	if got := col.Quarantined(); got != nil {
		t.Errorf("healthy collection reports quarantined shards %v", got)
	}
	// Reinstate on a healthy shard is a no-op, not an error.
	if err := col.Reinstate(0); err != nil {
		t.Errorf("Reinstate on healthy shard: %v", err)
	}
}

// TestInsertRefusesQuarantinedShard: inserting into a quarantined shard would
// strand the series in a tree searches skip, so the round-robin target being
// quarantined refuses the insert.
func TestInsertRefusesQuarantinedShard(t *testing.T) {
	rng := rand.New(rand.NewSource(815))
	ix, err := Build(mixedMatrix(rng, 100, 32), Config{Method: MESSI, LeafCapacity: 16, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	col := ix.Collection()
	target := ix.Len() % 4
	if err := col.Quarantine(target); err != nil {
		t.Fatal(err)
	}
	series := mixedMatrix(rng, 1, 32).Row(0)
	if _, err := ix.Insert(series); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("Insert into quarantined shard: %v, want ErrShardQuarantined", err)
	}
	// The id mapping did not advance: reinstating makes the same insert land
	// in the same shard successfully.
	if err := col.Reinstate(target); err != nil {
		t.Fatal(err)
	}
	id, err := ix.Insert(series)
	if err != nil {
		t.Fatal(err)
	}
	if int(id)%4 != target {
		t.Fatalf("insert landed in shard %d, want %d", int(id)%4, target)
	}
}

// TestPartialBatchAndStream: AllowPartial flows through the batch and stream
// engines — a quarantined shard degrades every query without failing any.
func TestPartialBatchAndStream(t *testing.T) {
	rng := rand.New(rand.NewSource(816))
	data := mixedMatrix(rng, 400, 48)
	ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Collection().Quarantine(2); err != nil {
		t.Fatal(err)
	}
	queries := mixedMatrix(rng, 8, 48)
	qs := make([]PlanQuery, queries.Len())
	for i := range qs {
		qs[i] = PlanQuery{Series: queries.Row(i), Plan: Plan{K: 5, AllowPartial: true}}
	}
	out, err := ix.Collection().SearchBatchPlan(context.Background(), qs, 3)
	if err != nil {
		t.Fatalf("partial batch: %v", err)
	}
	for i, res := range out {
		if len(res) == 0 {
			t.Fatalf("batch query %d returned nothing", i)
		}
		for _, r := range res {
			if int(r.ID)%4 == 2 {
				t.Fatalf("batch query %d returned id %d from the quarantined shard", i, r.ID)
			}
		}
	}
	// Without AllowPartial the same batch fails.
	for i := range qs {
		qs[i].Plan.AllowPartial = false
	}
	if _, err := ix.Collection().SearchBatchPlan(context.Background(), qs, 3); !errors.Is(err, ErrDegraded) {
		t.Fatalf("fail-fast batch: %v, want ErrDegraded", err)
	}

	// Stream: partial plans are answered, fail-fast plans error through the
	// callback.
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
	if _, err := st.SubmitPlan(queries.Row(0), Plan{K: 5, AllowPartial: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SubmitPlan(queries.Row(0), Plan{K: 5}); err != nil {
		t.Fatal(err)
	}
	a1, a2 := <-got, <-got
	// Stream answers arrive in completion order; with one worker that is
	// submission order.
	if a1.err != nil || len(a1.res) == 0 {
		t.Fatalf("partial stream answer: %v (%d results)", a1.err, len(a1.res))
	}
	if !errors.Is(a2.err, ErrDegraded) {
		t.Fatalf("fail-fast stream answer: %v, want ErrDegraded", a2.err)
	}
	st.Close()
}
