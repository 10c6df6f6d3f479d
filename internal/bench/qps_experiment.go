package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/flat"
	"repro/internal/index"
)

// QPSRow is one engine's sustained-throughput measurement.
type QPSRow struct {
	Engine  string  `json:"engine"`
	Shards  int     `json:"shards"`
	Workers int     `json:"workers"`
	QPS     float64 `json:"qps"`
}

// RunQPS measures sustained batched-query throughput (queries per second) —
// the system extension beyond the paper's one-query-at-a-time protocol. It
// compares, at the maximum core count and k=10:
//
//   - the single-shard collection's SearchBatch,
//   - the sharded collection's SearchBatch (S shards, merged k-NN),
//   - the streaming engine over both (persistent workers, bounded channel),
//   - the flat baseline, unsharded and sharded the same way.
//
// All engines answer the identical query set exactly, so the column is a
// like-for-like throughput comparison.
func RunQPS(cfg SuiteConfig, w io.Writer) error {
	c := cfg.withDefaults()
	_, data, err := snapshotData(c)
	if err != nil {
		return err
	}
	rows, err := qpsRows(c, data)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "engine\tshards\tworkers\tqueries/s")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\n", r.Engine, r.Shards, r.Workers, r.QPS)
	}
	return tw.Flush()
}

// qpsRows runs the throughput comparison over the pre-generated snapshot
// data (see snapshotData) and returns the raw rows; RunQPS renders them as
// a table and the perf report serializes them to JSON. c must already be
// defaulted.
func qpsRows(c SuiteConfig, data *distance.Matrix) ([]QPSRow, error) {
	cores := c.CoreCounts[len(c.CoreCounts)-1]
	const k = 10
	spec := c.Datasets[0]
	scaled := spec
	scaled.Count = data.Len()
	// Throughput needs enough in-flight queries to saturate the workers.
	nq := 4 * cores
	if nq < 16 {
		nq = 16
	}
	queries, err := dataset.GenerateQueries(scaled, nq, c.Seed)
	if err != nil {
		return nil, err
	}
	const reps = 3

	var rows []QPSRow
	shardCounts := []int{1}
	if c.Shards > 1 {
		shardCounts = append(shardCounts, c.Shards)
	}
	for _, shards := range shardCounts {
		ix, err := core.Build(data, core.Config{
			Method:       core.SOFA,
			LeafCapacity: c.LeafCapacity,
			Workers:      cores,
			Shards:       shards,
			SampleRate:   0.01,
			Seed:         c.Seed,
		})
		if err != nil {
			return nil, err
		}
		qps, err := timeBatchQPS(ix, queries, k, cores, reps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, QPSRow{Engine: ix.Method().String() + " batch", Shards: shards, Workers: cores, QPS: qps})
		qps, err = timeStreamQPS(ix, queries, k, cores, reps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, QPSRow{Engine: ix.Method().String() + " stream", Shards: shards, Workers: cores, QPS: qps})

		// Skewed repeat-query workload: 4 distinct queries cycled over the
		// same in-flight count. Repeats hit the per-query distance-table
		// qr-cache, so this row isolates the refinement loop itself — the
		// shape dashboards and alerting replays actually produce.
		qps, err = timeBatchQPS(ix, hotQueries(queries, 4, queries.Len()), k, cores, reps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, QPSRow{Engine: ix.Method().String() + " batch hot-query", Shards: shards, Workers: cores, QPS: qps})

		fl, err := flat.BuildSharded(data, shards, cores)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := fl.SearchBatch(queries, k); err != nil {
				return nil, err
			}
		}
		rows = append(rows, QPSRow{Engine: "flat batch", Shards: shards, Workers: cores,
			QPS: float64(reps*queries.Len()) / time.Since(start).Seconds()})
	}
	return rows, nil
}

// timeBatchQPS measures repeated SearchBatch calls.
func timeBatchQPS(ix *core.Index, queries *distance.Matrix, k, workers, reps int) (float64, error) {
	start := time.Now()
	for r := 0; r < reps; r++ {
		if _, err := ix.SearchBatch(queries, k, workers); err != nil {
			return 0, err
		}
	}
	return float64(reps*queries.Len()) / time.Since(start).Seconds(), nil
}

// timeStreamQPS measures the streaming engine: one stream for all reps, a
// WaitGroup tracking completions.
func timeStreamQPS(ix *core.Index, queries *distance.Matrix, k, workers, reps int) (float64, error) {
	var pending sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	st, err := ix.NewStream(k, workers, func(qid uint64, res []index.Result, err error) {
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		pending.Done()
	})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < queries.Len(); i++ {
			pending.Add(1)
			if _, err := st.Submit(queries.Row(i)); err != nil {
				pending.Done()
				st.Close()
				return 0, err
			}
		}
		pending.Wait()
	}
	elapsed := time.Since(start).Seconds()
	st.Close()
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(reps*queries.Len()) / elapsed, nil
}

// hotQueries builds the skewed workload: `distinct` rows of qs cycled to
// total rows, modelling a cache/dashboard pattern where a few queries
// dominate.
func hotQueries(qs *distance.Matrix, distinct, total int) *distance.Matrix {
	if distinct > qs.Len() {
		distinct = qs.Len()
	}
	out := distance.NewMatrix(total, qs.Stride)
	for i := 0; i < total; i++ {
		copy(out.Row(i), qs.Row(i%distinct))
	}
	return out
}
