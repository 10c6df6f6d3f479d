package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/index"
	"repro/sofa"
)

// The durable lifecycle: a seeded script of searches and mutations against a
// sofa.Open store, with the stated flush policy (WAL SyncNone, explicit
// Sync() every syncEvery mutations), Compact() and Checkpoint() at fixed op
// counts, a truncated-WAL durability check, and timed reopens. It is
// churn-durable's protocol; the read workloads never write.

// model is the brute-force twin of the store's live set.
type model struct {
	ids  []index.ID
	rows [][]float64
	pos  map[index.ID]int
}

func newModel(base *distance.Matrix) *model {
	m := &model{pos: make(map[index.ID]int, base.Len())}
	for i := 0; i < base.Len(); i++ {
		m.put(index.ID(i), base.Row(i))
	}
	return m
}

func (m *model) put(id index.ID, row []float64) {
	if i, ok := m.pos[id]; ok {
		m.rows[i] = row
		return
	}
	m.pos[id] = len(m.ids)
	m.ids = append(m.ids, id)
	m.rows = append(m.rows, row)
}

func (m *model) remove(id index.ID) {
	i, last := m.pos[id], len(m.ids)-1
	m.ids[i], m.rows[i] = m.ids[last], m.rows[last]
	m.pos[m.ids[i]] = i
	m.ids, m.rows = m.ids[:last], m.rows[:last]
	delete(m.pos, id)
}

func (m *model) apply(mu mutation) {
	if mu.row == nil {
		m.remove(mu.id)
	} else {
		m.put(mu.id, mu.row)
	}
}

// matrix copies the live rows out for the scan oracle.
func (m *model) matrix(stride int) (*distance.Matrix, []index.ID) {
	out := distance.NewMatrix(len(m.rows), stride)
	for i, r := range m.rows {
		copy(out.Row(i), r)
	}
	return out, m.ids
}

// mutation is one acknowledged write; a nil row is a delete.
type mutation struct {
	id  index.ID
	row []float64
}

// lifeResult is what one lifecycle measured.
type lifeResult struct {
	searches    []sample // every search of the script: which query, how long
	writeUs     []float64
	scriptS     float64 // script wall time, every Sync, Compact and Checkpoint included; the harness's own oracle checks and forced collections are not
	checkpointS []float64
	recoverS    []float64
	diskBytes   int64
	live        int

	mutations      int
	walBytes       int64     // bytes appended to the WAL by the script
	compactShardMs []float64 // one sample per compacted shard
	compactions    int64
	relearns       int64
	replayed       int   // WAL records every reopen replayed
	containerBytes int64 // checkpoint size at close
}

func lifeOpenOptions(stats *sofa.RecoveryStats) []sofa.OpenOption {
	return []sofa.OpenOption{sofa.WithSync(sofa.SyncNone), sofa.WithRecoveryStats(stats)}
}

// createStore builds a durable index over base in dir with the lifecycle's
// compaction policy.
func createStore(dir string, base *distance.Matrix, w workload) (*sofa.DurableIndex, error) {
	return sofa.Open(dir, sofa.CreateFrom(base,
		sofa.Shards(w.Shards), sofa.Workers(workersOf(w)),
		sofa.CompactionPolicy(sofa.Compaction{
			MaxTombstoneFraction: maxTombstoneFraction,
			RelearnChurnFraction: relearnChurnFraction,
		})), sofa.WithSync(sofa.SyncNone))
}

func workersOf(w workload) int {
	if w.Workers == 0 {
		return nproc
	}
	return w.Workers
}

// runLifecycle drives the script against x, a store freshly created in dir
// from the workload's series, and leaves the store closed. Spans hang under
// parent. The checkpoints cut the script into rounds; aside, if not nil, runs
// before each round, on the harness's time.
func runLifecycle(in *inputs, x *sofa.DurableIndex, dir string, tr *tracer, parent int, t *tally, aside func() error) (*lifeResult, error) {
	var (
		base     = head(in.data, in.w.N)
		ctx      = context.Background()
		rng      = rand.New(rand.NewSource(in.seed ^ 0x11FE))
		mod      = newModel(base)
		res      = &lifeResult{}
		log      []mutation
		buf      []sofa.Result
		qstats   sofa.QueryStats
		nextRow  int
		syncedAt int   // mutations covered by the last Sync or Checkpoint
		syncedSz int64 // WAL size at that point
		ckptAt   int   // mutations covered by the last Checkpoint
		// harnessS is wall time that is the harness's, not the script's: oracle
		// checks and forced collections.
		harnessS float64
	)
	syncedSz = x.WALBytes()
	freshRow := func() []float64 {
		row := in.payload.Row(nextRow % in.payload.Len())
		nextRow++
		return row
	}
	victim := func() index.ID { return mod.ids[rng.Intn(len(mod.ids))] }
	// collect starts a timed phase from a collected heap. Checkpoints and
	// reopens allocate buffers the size of the store; whether those come from
	// freed spans or from fresh, page-faulting memory would otherwise depend
	// on where the collector's cycle happens to stand.
	collect := func() {
		start := time.Now()
		runtime.GC()
		harnessS += time.Since(start).Seconds()
	}
	checkModel := func(y *sofa.DurableIndex, m *model, tol float64, what string) error {
		start := time.Now()
		data, ids := m.matrix(base.Stride)
		t.ok(y.Len() == len(ids), "%s: index holds %d live series, model %d", what, y.Len(), len(ids))
		err := checkAgainstScan(t, data, in.queries, ids, lifeOracleQ, tol, func(_ int, q []float64) ([]index.Result, error) {
			return y.Search(ctx, sofa.Query{Series: q, K: kNN})
		})
		harnessS += time.Since(start).Seconds()
		return err
	}

	search := func(i int) {
		q := rng.Intn(in.queries.Len())
		id, t0 := tr.begin("sofa.search", parent, i)
		var err error
		buf, err = x.SearchInto(ctx, sofa.Query{Series: in.queries.Row(q), K: kNN}, buf)
		res.searches = append(res.searches, sample{q, tr.end(id, t0).Seconds() * 1e3})
		t.ok(err == nil && len(buf) == kNN, "op %d search: %d results, err %v", i, len(buf), err)
	}
	// mutate times one write, the Sync it may owe included.
	mutate := func(i int, name string, mu mutation) {
		before := x.WALBytes()
		id, t0 := tr.begin(name, parent, i)
		var err error
		switch name {
		case "sofa.insert":
			mu.id, err = x.Insert(mu.row)
		case "sofa.delete":
			err = x.Delete(mu.id)
		default:
			err = x.Upsert(mu.id, mu.row)
		}
		res.walBytes += x.WALBytes() - before
		if err == nil {
			log = append(log, mu)
			mod.apply(mu)
			if len(log)%syncEvery == 0 {
				sid, st0 := tr.begin("sofa.sync", id, i)
				err = x.Sync()
				tr.end(sid, st0)
				syncedAt, syncedSz = len(log), x.WALBytes()
			}
		}
		res.writeUs = append(res.writeUs, tr.end(id, t0).Seconds()*1e6)
		t.err(err, fmt.Sprintf("op %d %s id %d", i, name, mu.id))
	}

	// Writes are 50% inserts, 20% deletes, 30% upserts: with half the ops
	// searches, the issue's 50/25/10/15 mix.
	const writes = 1 - searchShare
	newRound := func() error {
		if aside == nil {
			return nil
		}
		start := time.Now()
		err := aside()
		harnessS += time.Since(start).Seconds()
		return err
	}
	start := time.Now()
	if err := newRound(); err != nil {
		return nil, err
	}
	for i := 0; i < in.ops; i++ {
		r := rng.Float64()
		if len(mod.ids) <= 2*kNN {
			r = searchShare // never shrink the live set below k: insert instead
		}
		switch {
		case r < searchShare:
			search(i)
		case r < searchShare+0.5*writes:
			mutate(i, "sofa.insert", mutation{row: freshRow()})
		case r < searchShare+0.7*writes:
			mutate(i, "sofa.delete", mutation{id: victim()})
		default:
			mutate(i, "sofa.upsert", mutation{id: victim(), row: freshRow()})
		}

		if (i+1)%max(1, in.ops/compactPerRun) == 0 {
			id, t0 := tr.begin("sofa.compact", parent, i)
			err := x.Compact()
			ms := tr.end(id, t0).Seconds() * 1e3
			t.err(err, "compact")
			// A best-leaf probe is the public way to read the lifetime counters.
			_, err = x.Search(ctx, sofa.Query{Series: in.queries.Row(0), K: 1}.With(sofa.Approximate(), sofa.WithQueryStats(&qstats)))
			t.err(err, "counter probe")
			shards := qstats.Compactions - res.compactions
			for n := shards; n > 0; n-- {
				res.compactShardMs = append(res.compactShardMs, ms/float64(shards))
			}
			res.compactions, res.relearns = qstats.Compactions, qstats.Relearns
		}
		if n := len(res.checkpointS); n < checkpointCount && i+1 == (n+1)*in.ops/(checkpointCount+1) {
			collect()
			id, t0 := tr.begin("sofa.checkpoint", parent, i)
			err := x.Checkpoint()
			res.checkpointS = append(res.checkpointS, tr.end(id, t0).Seconds())
			t.err(err, "checkpoint")
			syncedAt, syncedSz, ckptAt = len(log), x.WALBytes(), len(log)
			if err := checkModel(x, mod, tolExact, fmt.Sprintf("checkpoint %d", n)); err != nil {
				return nil, err
			}
			if err := newRound(); err != nil {
				return nil, err
			}
		}
	}
	res.scriptS = time.Since(start).Seconds() - harnessS
	res.mutations = len(log)
	res.live = len(mod.ids)

	// Durability: only what a Sync covered is promised to survive. Killing
	// the process would keep the OS cache, so the check itself discards the
	// unflushed tail: copy the directory, cut wal.log at the last synced
	// size, and require exactly the mutations acknowledged before that sync.
	cut := newModel(base)
	for _, mu := range log[:syncedAt] {
		cut.apply(mu)
	}
	cutDir := dir + "-cut"
	defer os.RemoveAll(cutDir)
	if err := copyStore(dir, cutDir, syncedSz); err != nil {
		return nil, err
	}
	var rs sofa.RecoveryStats
	y, err := sofa.Open(cutDir, lifeOpenOptions(&rs)...)
	t.err(err, "open of the truncated copy")
	if err == nil {
		t.ok(rs.TailError == nil && rs.Replayed == syncedAt-ckptAt,
			"truncated copy replayed %d records (tail error %v), want %d", rs.Replayed, rs.TailError, syncedAt-ckptAt)
		if err := checkModel(y, cut, tolFloat32Store, "truncated copy"); err != nil {
			return nil, err
		}
		t.err(y.Close(), "close of the truncated copy")
	}

	t.err(x.Close(), "close")
	for _, p := range []string{core.ContainerPath(dir), core.WALPath(dir)} {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		res.diskBytes += fi.Size()
		if p == core.ContainerPath(dir) {
			res.containerBytes = fi.Size()
		}
	}
	for r := 0; r < reopenCount; r++ {
		collect()
		id, t0 := tr.begin("sofa.open", parent, in.ops+r)
		y, err := sofa.Open(dir, lifeOpenOptions(&rs)...)
		d := tr.end(id, t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("reopen %d: %w", r, err)
		}
		res.recoverS = append(res.recoverS, d)
		t.ok(rs.TailError == nil && rs.Replayed == len(log)-ckptAt, "reopen %d replayed %d records (tail error %v), want %d", r, rs.Replayed, rs.TailError, len(log)-ckptAt)
		res.replayed = rs.Replayed
		if r == reopenCount-1 {
			if err := checkModel(y, mod, tolFloat32Store, "last reopen"); err != nil {
				return nil, err
			}
		}
		t.err(y.Close(), "close after reopen")
	}
	return res, nil
}

// copyStore copies a store directory, keeping only the first walSize bytes of
// its write-ahead log.
func copyStore(src, dst string, walSize int64) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, p := range []struct {
		path  string
		limit int64
	}{{core.ContainerPath(src), -1}, {core.WALPath(src), walSize}} {
		if err := copyFile(p.path, filepath.Join(dst, filepath.Base(p.path)), p.limit); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string, limit int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if limit >= 0 {
		r = io.LimitReader(in, limit)
	}
	if _, err := io.Copy(out, r); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
