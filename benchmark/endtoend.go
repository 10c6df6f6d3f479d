package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/index"
	"repro/sofa"
)

// values maps metric names to measurements.
type values map[string]float64

// options are the run parameters every phase sees.
type options struct {
	seed    int64
	seconds float64
	scale   float64
	tmpRoot string // parent of the store directories; removed entries only
	outDir  string // where span files go
}

// mainIndex is a workload's index as its users hold it: in memory, or a
// durable store in dir.
type mainIndex struct {
	*sofa.Index
	durable *sofa.DurableIndex
	dir     string
}

// release closes and deletes whatever the index holds on disk.
func (m *mainIndex) release() {
	if m.durable != nil {
		m.durable.Close()
	}
	if m.dir != "" {
		os.RemoveAll(m.dir)
	}
}

func buildMain(in *inputs, o options) (*mainIndex, error) {
	w := in.w
	if w.OpsPerSec == 0 {
		ix, err := sofa.Build(in.data, sofa.Shards(w.Shards), sofa.Workers(workersOf(w)))
		return &mainIndex{Index: ix}, err
	}
	dir, err := os.MkdirTemp(o.tmpRoot, "store-")
	if err != nil {
		return nil, err
	}
	d, err := createStore(dir, head(in.data, w.N), w)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &mainIndex{Index: d.Index, durable: d, dir: dir}, nil
}

// builds records every build of a run: wall time, the engine's own build
// time (learn + transform + tree) and the heap the index retains.
type builds struct {
	wallS, engineS, heapB []float64
}

// build builds the workload's index once, from a collected heap (collected
// twice: what a sync.Pool held is freed by the second cycle).
func (b *builds) build(in *inputs, o options) (*mainIndex, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	m, err := buildMain(in, o)
	if err != nil {
		return nil, err
	}
	b.wallS, b.engineS = append(b.wallS, time.Since(start).Seconds()), append(b.engineS, m.BuildSeconds())
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.heapB = append(b.heapB, float64(after.HeapAlloc)-float64(before.HeapAlloc))
	return m, nil
}

// again builds the index once more beside the one under test and drops it.
// One such build stands before every timed round, so the run's builds are
// spread over all of it, as its queries are.
func (b *builds) again(in *inputs, o options) error {
	m, err := b.build(in, o)
	if err != nil {
		return err
	}
	m.release()
	runtime.GC()
	return nil
}

// sample is one timed execution of query q of the script.
type sample struct {
	q  int
	ms float64
}

// perQuery folds the samples into one latency per distinct query: the
// fastest of its timed executions. A search does the same work every time it
// runs (same query, same index, no allocation), and what this host adds to it
// (a neighbour on the core, a stolen time slice) only ever makes it slower and
// lasts seconds, so over executions spread through the run the fastest is the
// search's own cost; the median still moved by a third with the host. The
// percentiles of a run are taken over these, so they rank queries, not moments.
func perQuery(samples []sample) []float64 {
	fastest := map[int]float64{}
	for _, s := range samples {
		if ms, ok := fastest[s.q]; !ok || s.ms < ms {
			fastest[s.q] = s.ms
		}
	}
	out := make([]float64, 0, len(fastest))
	for _, ms := range fastest {
		out = append(out, ms)
	}
	return out
}

// runEndToEnd measures one workload with tracing off: set-up, the answer
// oracle (which is also the warm-up), then the workload's timed rounds.
func runEndToEnd(in *inputs, o options, started time.Time) (values, tally, error) {
	var (
		t   tally
		b   builds
		w   = in.w
		ctx = context.Background()
		buf []sofa.Result
	)
	m, err := b.build(in, o)
	if err != nil {
		return nil, t, err
	}
	defer func() { m.release() }()
	one := func(_ int, q []float64) ([]index.Result, error) {
		var err error
		buf, err = m.SearchInto(ctx, sofa.Query{Series: q, K: kNN}, buf)
		return buf, err
	}
	searches := []func(int, []float64) ([]index.Result, error){one}
	if w.Batch > 0 {
		// The batch path answers the oracle's queries too.
		res, err := m.SearchBatch(ctx, queryBatch(in, 0, min(oracleQueries, in.queries.Len())), nproc)
		if err != nil {
			return nil, t, err
		}
		searches = append(searches, func(i int, _ []float64) ([]index.Result, error) { return res[i], nil })
	}
	if err := checkAgainstScan(&t, in.data, in.queries, nil, oracleQueries, tolExact, searches...); err != nil {
		return nil, t, err
	}

	var (
		samples []sample
		qps     []float64 // ops per second of each timed round
		setupS  float64   // process start to the first timed round
	)
	if w.OpsPerSec > 0 {
		setupS = time.Since(started).Seconds()
		lr, err := runLifecycle(in, m.durable, m.dir, nil, 0, &t, func() error { return b.again(in, o) })
		m.durable = nil // the lifecycle closed it
		if err != nil {
			return nil, t, err
		}
		samples, qps = lr.searches, []float64{float64(in.ops) / lr.scriptS}
	} else {
		// A round answers perRound queries of the script the way the workload's
		// users do: through SearchBatch if it has batches (which gives the round's
		// throughput), and one at a time (which gives the latencies).
		round := func(r int) {
			lo := r * in.perRound % in.queries.Len()
			start := time.Now()
			for at := lo; w.Batch > 0 && at < lo+in.perRound; at += w.Batch {
				qs := queryBatch(in, at, min(at+w.Batch, lo+in.perRound))
				res, err := m.SearchBatch(ctx, qs, nproc)
				t.ok(err == nil && len(res) == len(qs), "batch of %d: %d answers, err %v", len(qs), len(res), err)
			}
			batchS := time.Since(start).Seconds()
			start = time.Now()
			for i := lo; i < lo+in.perRound; i++ {
				q := i % in.queries.Len()
				q0 := time.Now()
				res, err := one(q, in.queries.Row(q))
				samples = append(samples, sample{q, time.Since(q0).Seconds() * 1e3})
				t.ok(err == nil && len(res) == kNN, "query %d: %d results, err %v", q, len(res), err)
			}
			if w.Batch > 0 {
				qps = append(qps, float64(in.perRound)/batchS)
			} else {
				qps = append(qps, float64(in.perRound)/time.Since(start).Seconds())
			}
		}
		// Where rounds repeat the script, an untimed round comes first: it fills
		// searcher pools and lazy tables and touches every row the script reads.
		// Where every round has queries of its own, the oracle's were the warm-up.
		if in.perRound == in.queries.Len() {
			round(0)
			samples, qps = samples[:0], qps[:0]
		}
		setupS = time.Since(started).Seconds()
		for r := 0; r < in.rounds; r++ {
			if err := b.again(in, o); err != nil {
				return nil, t, err
			}
			round(r)
		}
	}
	lat := perQuery(samples)
	p50, p95 := percentile(lat, 50), percentile(lat, 95)
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d timed searches of %d distinct queries: p50 %.4g ms, p95 %.4g ms, p99 %.4g ms; %d timed rounds, %d builds\n",
		w.Name, len(samples), len(lat), p50, p95, percentile(lat, 99), len(qps), len(b.wallS))
	return values{
		// Set-up holds one build, at the median of the run's builds; build speed
		// is that of the fastest, for the reason perQuery gives.
		"setup_s":                setupS - b.wallS[0] + median(b.wallS),
		"build_series_per_s":     float64(w.N) / slices.Min(b.engineS),
		"index_bytes_per_series": median(b.heapB) / float64(w.N),
		"query_p50_ms":           p50,
		"query_p95_per_p50":      p95 / p50,
		"ops_per_s":              median(qps),
	}, t, nil
}

// queryBatch is queries lo..hi of the script (wrapping) as one SearchBatch call.
func queryBatch(in *inputs, lo, hi int) []sofa.Query {
	b := make([]sofa.Query, 0, hi-lo)
	for i := lo; i < hi; i++ {
		b = append(b, sofa.Query{Series: in.queries.Row(i % in.queries.Len()), K: kNN})
	}
	return b
}

// emit checks that v holds exactly the metrics of defs.
func emit(v values, defs []metric) error {
	for _, d := range defs {
		if _, ok := v[d.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	for name := range v {
		if !hasMetric(defs, name) {
			return fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return nil
}

func hasMetric(defs []metric, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
