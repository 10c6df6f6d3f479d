package main

import (
	"math"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/distance"
)

// inputs is everything a run is given: all of it derives from (workload,
// seed, scale, seconds) alone, so the same arguments give the same inputs.
type inputs struct {
	w    workload
	spec dataset.Spec
	seed int64

	data     *distance.Matrix // the main index's series, z-normalized
	queries  *distance.Matrix // w.Queries distinct queries
	payload  *distance.Matrix // fresh series for the durable script's inserts and upserts
	rounds   int              // timed rounds
	perRound int              // queries a round answers
	ops      int              // ops of the durable script

	generateS float64
}

func specFor(w workload) (dataset.Spec, error) {
	spec, err := dataset.ByName(w.Dataset)
	spec.Count = w.N
	return spec, err
}

// scaled applies -scale to the series counts. Below 0.1 it also shortens the
// query and op scripts, so a smoke run at -scale 0.01 takes seconds.
func scaled(w workload, scale float64) workload {
	mul := func(n int, f float64, floor int) int {
		return max(floor, int(math.Round(float64(n)*f)))
	}
	w.N = mul(w.N, scale, 2000)
	if f := scale * 10; f < 1 {
		w.Queries = mul(w.Queries, f, 100)
		w.Batch = min(w.Batch, w.Queries/2)
		w.TraceQ = mul(w.TraceQ, f, 20)
		w.OpsPerSec = mul(w.OpsPerSec, f, 0)
	}
	return w
}

// prepare generates a workload's inputs from the seed.
func prepare(w workload, seed int64, seconds float64) (*inputs, error) {
	spec, err := specFor(w)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, spec: spec, seed: seed, rounds: max(1, int(math.Round(float64(w.Rounds)*seconds/10))), perRound: w.Queries}
	if w.PerRound > 0 {
		in.perRound = min(w.PerRound, w.Queries)
	}
	if w.OpsPerSec > 0 {
		in.ops = max(800, int(float64(w.OpsPerSec)*seconds))
	}
	start := time.Now()
	if in.data, err = generate(spec, w.N, seed); err != nil {
		return nil, err
	}
	if in.queries, err = dataset.GenerateQueries(spec, w.Queries, seed); err != nil {
		return nil, err
	}
	if w.OpsPerSec > 0 {
		// Inserts and upserts are 80% of the writes.
		if in.payload, err = generate(spec, int(float64(in.ops)*(1-searchShare)*0.8)+insertSample, seed^0x0BADCAFE); err != nil {
			return nil, err
		}
	}
	in.generateS = time.Since(start).Seconds()
	return in, nil
}

// genChunk is the unit of parallel generation. It is fixed, not derived from
// nproc, so the series depend on the seed alone.
const genChunk = 50_000

// generate draws n series of the spec's shape, chunk c from its own seeded
// stream of internal/dataset, at most nproc chunks at a time.
func generate(spec dataset.Spec, n int, seed int64) (*distance.Matrix, error) {
	out := distance.NewMatrix(n, spec.Length)
	chunks := (n + genChunk - 1) / genChunk
	errs := make([]error, chunks)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(nproc, chunks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				s := spec
				s.Count = min(genChunk, n-c*genChunk)
				m, err := dataset.Generate(s, seed*1_000_003+int64(c))
				if err != nil {
					errs[c] = err
					continue
				}
				copy(out.Data[c*genChunk*spec.Length:], m.Data)
			}
		}()
	}
	for c := 0; c < chunks; c++ {
		next <- c
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// head returns the first n rows of m as a matrix of its own length and
// capacity, so an index built over it appends into fresh memory instead of
// over m's remaining rows.
func head(m *distance.Matrix, n int) *distance.Matrix {
	end := n * m.Stride
	return &distance.Matrix{Data: m.Data[:end:end], Stride: m.Stride}
}
