// Package flat implements the FAISS IndexFlatL2 baseline: exact k-NN by
// blocked brute-force scan using the ‖q−x‖² = ‖q‖² − 2·q·x + ‖x‖²
// decomposition with precomputed data norms — the same computation FAISS's
// CPU flat index performs with MKL GEMM kernels.
//
// Following the paper's protocol (Section V-A), queries are processed in
// mini-batches the size of the core count: FAISS cannot parallelize inside
// a single query, so the harness gives it embarrassing parallelism across
// queries instead.
package flat

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distance"
	"repro/internal/index"
)

// Index is an exact flat L2 index over z-normalized series.
type Index struct {
	data    *distance.Matrix
	norms   []float64
	workers int

	// BuildSeconds is the time spent precomputing norms (the flat analogue
	// of index construction for Fig. 7).
	BuildSeconds float64
}

// Build creates the flat index: it stores the matrix and precomputes the
// squared norm of every row. workers <= 0 selects GOMAXPROCS.
func Build(data *distance.Matrix, workers int) (*Index, error) {
	if data == nil || data.Len() == 0 {
		return nil, fmt.Errorf("flat: empty data")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ix := &Index{data: data, workers: workers}
	start := time.Now()
	ix.norms = data.SquaredNorms()
	ix.BuildSeconds = time.Since(start).Seconds()
	return ix, nil
}

// Len returns the number of indexed series.
func (ix *Index) Len() int { return ix.data.Len() }

// Search answers a single query exactly (k nearest, ascending squared
// z-normalized ED). A single query runs on one core, as in FAISS; use
// SearchBatch to exploit parallelism.
func (ix *Index) Search(query []float64, k int) ([]index.Result, error) {
	if len(query) != ix.data.Stride {
		return nil, fmt.Errorf("flat: query length %d, want %d", len(query), ix.data.Stride)
	}
	if k < 1 {
		return nil, fmt.Errorf("flat: k must be >= 1, got %d", k)
	}
	q := distance.ZNormalized(query)
	kn := index.NewKNNCollector(k)
	ix.scan(q, kn)
	return kn.Results(), nil
}

// scan offers every row, under its row index, to kn for the
// already-normalized query.
func (ix *Index) scan(q []float64, kn *index.KNNCollector) {
	var qn float64
	for _, v := range q {
		qn += v * v
	}
	n := ix.data.Len()
	for i := 0; i < n; i++ {
		d := qn - 2*distance.Dot(q, ix.data.Row(i)) + ix.norms[i]
		if d < 0 {
			d = 0 // guard rounding for near-identical vectors
		}
		kn.Offer(index.ID(i), d)
	}
}

// SearchBatch answers a batch of queries, distributing whole queries across
// the configured workers (the paper's FAISS mini-batch protocol). Each
// worker reuses its z-normalized query buffer and k-NN collector across the
// batch, so the scan loop performs no per-query allocations. Results are
// returned in query order.
func (ix *Index) SearchBatch(queries *distance.Matrix, k int) ([][]index.Result, error) {
	stride := ix.data.Stride
	if queries == nil || queries.Len() == 0 {
		return nil, fmt.Errorf("flat: empty query batch")
	}
	if queries.Stride != stride {
		return nil, fmt.Errorf("flat: query length %d, want %d", queries.Stride, stride)
	}
	if k < 1 {
		return nil, fmt.Errorf("flat: k must be >= 1, got %d", k)
	}
	out := make([][]index.Result, queries.Len())
	var cursor atomic.Int64
	var wg sync.WaitGroup
	workers := min(ix.workers, queries.Len())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qbuf := make([]float64, stride)
			kn := index.NewKNNCollector(k)
			for {
				i := int(cursor.Add(1) - 1)
				if i >= queries.Len() {
					return
				}
				copy(qbuf, queries.Row(i))
				distance.ZNormalize(qbuf)
				kn.Reset(k)
				ix.scan(qbuf, kn)
				out[i] = kn.Results()
			}
		}()
	}
	wg.Wait()
	return out, nil
}
