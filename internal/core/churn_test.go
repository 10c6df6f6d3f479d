package core

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"repro/internal/distance"
	"repro/internal/index"
)

// The churn property suite: randomized interleaves of Insert, Delete, Upsert,
// and Search are differentially checked against a brute-force oracle over the
// set of surviving series, across compaction (which must not change a single
// result bit — public ids are stable and exact search refines with true
// distances) and across crash-and-recover points that replay the typed WAL
// records. Run with -race to additionally prove the mutation/compaction
// concurrency contract.

// churnModel mirrors the collection's visible state: the stored (normalized)
// series of every live public id, plus every id ever retired by Delete.
type churnModel struct {
	live    map[index.ID][]float64
	ids     []index.ID // live ids in arbitrary but deterministic order
	pos     map[index.ID]int
	retired []index.ID
}

func newChurnModel(data *distance.Matrix) *churnModel {
	m := &churnModel{live: map[index.ID][]float64{}, pos: map[index.ID]int{}}
	for i := 0; i < data.Len(); i++ {
		m.add(index.ID(i), append([]float64(nil), data.Row(i)...))
	}
	return m
}

func (m *churnModel) add(id index.ID, stored []float64) {
	m.live[id] = stored
	m.pos[id] = len(m.ids)
	m.ids = append(m.ids, id)
}

func (m *churnModel) delete(id index.ID) {
	p := m.pos[id]
	last := len(m.ids) - 1
	m.ids[p] = m.ids[last]
	m.pos[m.ids[p]] = p
	m.ids = m.ids[:last]
	delete(m.pos, id)
	delete(m.live, id)
	m.retired = append(m.retired, id)
}

func (m *churnModel) pick(rng *rand.Rand) index.ID { return m.ids[rng.Intn(len(m.ids))] }

// modelKNN is the brute-force oracle: exact k-NN over the model's live
// series, sorted by (distance, id).
func (m *churnModel) modelKNN(query []float64, k int) []index.Result {
	q := distance.ZNormalized(query)
	res := make([]index.Result, 0, len(m.ids))
	for _, id := range m.ids {
		res = append(res, index.Result{ID: id, Dist: distance.SquaredED(m.live[id], q)})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Dist != res[j].Dist {
			return res[i].Dist < res[j].Dist
		}
		return res[i].ID < res[j].ID
	})
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

// checkAgainstModel compares one search against the oracle: the distance at
// every rank within kernel tolerance, and the returned id set exactly the
// oracle's (both sides sort ascending; ties are broken arbitrarily but the
// fixed seeds make any divergence deterministic).
func checkAgainstModel(t *testing.T, m *churnModel, got []index.Result, query []float64, k int) {
	t.Helper()
	want := m.modelKNN(query, k)
	if len(got) != len(want) {
		t.Fatalf("%d results, oracle has %d", len(got), len(want))
	}
	gotIDs := map[index.ID]bool{}
	for r := range got {
		if d := math.Abs(got[r].Dist - want[r].Dist); d > 1e-7*(1+want[r].Dist) {
			t.Fatalf("rank %d: dist %v, oracle %v", r, got[r].Dist, want[r].Dist)
		}
		gotIDs[got[r].ID] = true
	}
	for _, w := range want {
		if !gotIDs[w.ID] {
			t.Fatalf("oracle id %d missing from results %v", w.ID, got)
		}
	}
}

func churnSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := 0.0
	for j := range s {
		v += rng.NormFloat64()
		s[j] = v
	}
	return s
}

// churnStep applies one random mutation to ix and the model in lockstep,
// including the negative paths: mutations against retired ids must fail with
// ErrTombstoned, mutations against never-assigned ids with ErrNotFound.
func churnStep(t *testing.T, rng *rand.Rand, ix *Index, m *churnModel, n int) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 4: // insert
		raw := churnSeries(rng, n)
		id, err := ix.Insert(raw)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		if _, dup := m.live[id]; dup {
			t.Fatalf("insert reused live id %d", id)
		}
		m.add(id, distance.ZNormalized(raw))
	case op < 7: // delete
		if len(m.ids) < 8 {
			return
		}
		id := m.pick(rng)
		if err := ix.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		m.delete(id)
	case op < 9: // upsert
		if len(m.ids) < 8 {
			return
		}
		id := m.pick(rng)
		raw := churnSeries(rng, n)
		if err := ix.Upsert(id, raw); err != nil {
			t.Fatalf("upsert %d: %v", id, err)
		}
		m.live[id] = distance.ZNormalized(raw)
	default: // negative paths
		if len(m.retired) > 0 {
			id := m.retired[rng.Intn(len(m.retired))]
			if err := ix.Delete(id); !errors.Is(err, ErrTombstoned) {
				t.Fatalf("delete of retired id %d: %v, want ErrTombstoned", id, err)
			}
			if err := ix.Upsert(id, churnSeries(rng, n)); !errors.Is(err, ErrTombstoned) {
				t.Fatalf("upsert of retired id %d: %v, want ErrTombstoned", id, err)
			}
		}
		bogus := index.ID(1 << 40)
		if err := ix.Delete(bogus); !errors.Is(err, ErrNotFound) {
			t.Fatalf("delete of unassigned id: %v, want ErrNotFound", err)
		}
	}
}

func checkChurnCounters(t *testing.T, ix *Index, m *churnModel) {
	t.Helper()
	if got := ix.Len(); got != len(m.ids) {
		t.Fatalf("Len() = %d, model has %d live", got, len(m.ids))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChurnOracle is the central differential property test: a long
// randomized mutation history, searches checked against the brute-force
// oracle throughout, then compaction of every shard (bit-identical results
// required) and a from-scratch rebuild of the surviving series (bit-identical
// distance profile required).
func TestChurnOracle(t *testing.T) {
	const n, k = 48, 7
	rng := rand.New(rand.NewSource(4101))
	data := mixedMatrix(rng, 240, n)
	ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.25, Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := newChurnModel(data)
	s := ix.NewSearcher()

	for step := 0; step < 400; step++ {
		churnStep(t, rng, ix, m, n)
		if step%40 == 13 {
			checkChurnCounters(t, ix, m)
			for qi := 0; qi < 3; qi++ {
				q := churnSeries(rng, n)
				res, err := s.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstModel(t, m, res, q, k)
			}
		}
	}
	checkChurnCounters(t, ix, m)

	// Snapshot a query panel, compact every shard, and require the exact
	// same bits: compaction reclaims tombstoned rows and renumbers physical
	// slots, but public ids and true distances are untouchable.
	queries := make([][]float64, 10)
	before := make([][]index.Result, len(queries))
	for qi := range queries {
		queries[qi] = churnSeries(rng, n)
		res, err := s.Search(queries[qi], k)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstModel(t, m, res, queries[qi], k)
		before[qi] = append([]index.Result(nil), res...)
	}
	tombBefore := ix.Collection().Tombstoned()
	if tombBefore == 0 {
		t.Fatal("churn script produced no tombstones — the test lost its subject")
	}
	for i := 0; i < ix.Shards(); i++ {
		if err := ix.CompactShard(i); err != nil {
			t.Fatalf("compact shard %d: %v", i, err)
		}
	}
	if got := ix.Collection().Tombstoned(); got >= tombBefore {
		t.Fatalf("compaction left %d tombstones of %d", got, tombBefore)
	}
	if got := ix.Collection().Compactions(); got == 0 {
		t.Fatal("compaction counter did not advance")
	}
	checkChurnCounters(t, ix, m)
	for qi, q := range queries {
		res, err := s.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for r := range res {
			if res[r] != before[qi][r] {
				t.Fatalf("q=%d rank %d: post-compaction %+v, pre-compaction %+v", qi, r, res[r], before[qi][r])
			}
		}
	}

	// From-scratch rebuild of exactly the surviving series (the churned
	// collection's own stored rows, so both hold bit-identical data): the
	// distance profile of every query must match bit for bit, and each
	// result id must name the same series.
	liveIDs := append([]index.ID(nil), m.ids...)
	sort.Slice(liveIDs, func(i, j int) bool { return liveIDs[i] < liveIDs[j] })
	rebuilt := distance.NewMatrix(len(liveIDs), n)
	for j, id := range liveIDs {
		row := ix.Collection().Row(int(id))
		if row == nil {
			t.Fatalf("live id %d has no row", id)
		}
		copy(rebuilt.Row(j), row)
	}
	rix, err := Build(rebuilt, Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.25, Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs := rix.NewSearcher()
	for qi, q := range queries {
		res, err := rs.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(before[qi]) {
			t.Fatalf("q=%d: rebuild returned %d results, churned %d", qi, len(res), len(before[qi]))
		}
		for r := range res {
			if math.Float64bits(res[r].Dist) != math.Float64bits(before[qi][r].Dist) {
				t.Fatalf("q=%d rank %d: rebuild dist %v, churned %v", qi, r, res[r].Dist, before[qi][r].Dist)
			}
			if mapped := liveIDs[res[r].ID]; mapped != before[qi][r].ID {
				t.Fatalf("q=%d rank %d: rebuild id %d maps to %d, churned %d",
					qi, r, res[r].ID, mapped, before[qi][r].ID)
			}
		}
	}
}

// TestChurnDurable drives the same randomized interleave through a durable
// Store, closing and recovering at several points — each reopen replays the
// typed insert/delete/upsert records — plus a checkpoint and a torn garbage
// tail. After every recovery the index must agree with the model exactly.
func TestChurnDurable(t *testing.T) {
	const n, k = 32, 5
	rng := rand.New(rand.NewSource(4102))
	data := mixedMatrix(rng, 120, n)
	ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.5, Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := newChurnModel(data)
	dir := t.TempDir()
	st, err := CreateStore(dir, ix, DurableConfig{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}

	reopen := func() {
		t.Helper()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = Recover(dir, DurableConfig{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
	}
	verify := func() {
		t.Helper()
		checkChurnCounters(t, st.Index(), m)
		s := st.Index().NewSearcher()
		for qi := 0; qi < 3; qi++ {
			q := churnSeries(rng, n)
			res, err := s.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstModel(t, m, res, q, k)
		}
	}

	mutate := func(steps int) {
		for i := 0; i < steps; i++ {
			switch op := rng.Intn(10); {
			case op < 4:
				raw := churnSeries(rng, n)
				id, err := st.Insert(raw)
				if err != nil {
					t.Fatalf("insert: %v", err)
				}
				m.add(id, distance.ZNormalized(raw))
			case op < 7:
				if len(m.ids) < 8 {
					continue
				}
				id := m.pick(rng)
				if err := st.Delete(id); err != nil {
					t.Fatalf("delete %d: %v", id, err)
				}
				m.delete(id)
			default:
				if len(m.ids) < 8 {
					continue
				}
				id := m.pick(rng)
				raw := churnSeries(rng, n)
				if err := st.Upsert(id, raw); err != nil {
					t.Fatalf("upsert %d: %v", id, err)
				}
				m.live[id] = distance.ZNormalized(raw)
			}
		}
	}

	mutate(40)
	reopen() // replay from the initial checkpoint
	if got := st.RecoveryStats(); got.Replayed == 0 || got.TailError != nil {
		t.Fatalf("first recovery stats %+v: want replayed records, clean tail", got)
	}
	verify()

	mutate(40)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutate(20)
	reopen() // checkpoint plus a short replay suffix
	verify()

	// A torn tail of garbage after the acknowledged records: lenient
	// recovery discards exactly the garbage and keeps every mutation.
	mutate(20)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(WALPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Recover(dir, DurableConfig{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RecoveryStats(); got.TailError == nil || got.DiscardedBytes != 6 {
		t.Fatalf("garbage-tail recovery stats %+v: want a 6-byte discarded tail", got)
	}
	verify()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChurnConcurrentCompaction exercises the concurrency contract —
// mutations may run concurrently with background compaction — under the race
// detector, then checks the surviving state against the oracle.
func TestChurnConcurrentCompaction(t *testing.T) {
	const n, k = 32, 5
	rng := rand.New(rand.NewSource(4103))
	data := mixedMatrix(rng, 160, n)
	ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 16, SampleRate: 0.5, Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := newChurnModel(data)

	done := make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		var firstErr error
		for i := 0; ; i++ {
			select {
			case <-done:
				compacted <- firstErr
				return
			default:
			}
			if err := ix.CompactShard(i % 2); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}()
	for step := 0; step < 300; step++ {
		churnStep(t, rng, ix, m, n)
	}
	close(done)
	if err := <-compacted; err != nil {
		t.Fatalf("concurrent compaction: %v", err)
	}
	checkChurnCounters(t, ix, m)
	s := ix.NewSearcher()
	for qi := 0; qi < 10; qi++ {
		q := churnSeries(rng, n)
		res, err := s.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstModel(t, m, res, q, k)
	}
}

// TestSearchZeroAllocTombstones: the tombstone skip is fused into the block
// kernel's survivor pass, so a collection carrying deletes and upserts keeps
// the steady-state search at zero allocations on the executor's inline path:
// a single shard, and four shards under a serial searcher.
func TestSearchZeroAllocTombstones(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool allocation counts")
	}
	const n = 32
	for _, shards := range []int{1, 4} {
		rng := rand.New(rand.NewSource(4104))
		data := mixedMatrix(rng, 400, n)
		ix, err := Build(data, Config{Method: SOFA, LeafCapacity: 32, SampleRate: 0.5, Shards: shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			if err := ix.Delete(index.ID(rng.Intn(400))); err != nil && !errors.Is(err, ErrTombstoned) {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ { // materialize the explicit id tables too
			id := index.ID(rng.Intn(400))
			if err := ix.Upsert(id, churnSeries(rng, n)); err != nil && !errors.Is(err, ErrTombstoned) {
				t.Fatal(err)
			}
		}
		if ix.Collection().Tombstoned() == 0 {
			t.Fatal("no tombstones — the test lost its subject")
		}
		query := churnSeries(rng, n)
		s := ix.Collection().newSearcher(shards > 1)
		for i := 0; i < 3; i++ {
			if _, err := s.Search(query, 10); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := s.Search(query, 10); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("S=%d: steady-state Search with tombstones allocates %v allocs/op, want 0", shards, avg)
		}
	}
}
