package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/simd"
)

// PerfReport is the machine-readable performance snapshot the "report"
// experiment emits (see SuiteConfig.JSONPath / sofa-bench -json): kernel
// ns/op for every LBD and distance kernel variant, end-to-end sustained
// QPS per engine, and the steady-state allocation count of the query hot
// path. Checked-in snapshots (BENCH_pr3.json, ...) give the repo a perf
// trajectory future PRs are compared against.
type PerfReport struct {
	PR        int    `json:"pr"`
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	MaxProcs  int    `json:"maxprocs"`
	// SIMD is the dispatched per-series kernel implementation: "avx2" or
	// "portable". SIMDBlock is the tier serving the block-granularity
	// kernels, which additionally know an "avx512" tier.
	SIMD      string `json:"simd"`
	SIMDBlock string `json:"simd_block"`

	// Kernels: nanoseconds per single kernel invocation (series length 256
	// for ED/dot; l=16 words over a 256-symbol alphabet for LBD kernels).
	Kernels []KernelRow `json:"kernels"`

	// EndToEnd: sustained queries/s per engine (the qps experiment's rows),
	// measured on Dataset (DataSeries series of length DataLength, k=10).
	Dataset    string   `json:"dataset"`
	DataSeries int      `json:"data_series"`
	DataLength int      `json:"data_length"`
	EndToEnd   []QPSRow `json:"end_to_end"`

	// SearchSteadyStateAllocs is allocations per exact Search call on a
	// warmed pooled searcher (the PR-1 zero-allocation invariant).
	SearchSteadyStateAllocs float64 `json:"search_steady_state_allocs"`

	// WAL: durable insert throughput by write-ahead-log sync policy on the
	// same snapshot (the wal experiment's rows) — the per-insert price of
	// the fsync ladder, plus the replay cost the log imposes on the next
	// open.
	WAL []WALRow `json:"wal"`

	// Churn: search throughput under tombstone load, per-shard compaction
	// pause distribution and churn-triggered SFA re-learns on the same
	// snapshot (the churn experiment).
	Churn *ChurnReport `json:"churn"`
}

// KernelRow is one kernel variant's microbenchmark result.
type KernelRow struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

// RunReport measures the PR-3 performance report, prints it as text and, if
// cfg.JSONPath is set, writes the JSON snapshot there.
func RunReport(cfg SuiteConfig, w io.Writer) error {
	rep, err := BuildReport(cfg)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintf(tw, "go\t%s %s/%s\tsimd\t%s (block: %s)\tmaxprocs\t%d\n",
		rep.GoVersion, rep.GOOS, rep.GOARCH, rep.SIMD, rep.SIMDBlock, rep.MaxProcs)
	fmt.Fprintln(tw, "kernel\tns/op")
	for _, k := range rep.Kernels {
		fmt.Fprintf(tw, "%s\t%.1f\n", k.Name, k.NsPerOp)
	}
	fmt.Fprintln(tw, "engine\tshards\tworkers\tqueries/s")
	for _, r := range rep.EndToEnd {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\n", r.Engine, r.Shards, r.Workers, r.QPS)
	}
	fmt.Fprintf(tw, "search steady-state allocs\t%.1f\n", rep.SearchSteadyStateAllocs)
	fmt.Fprintln(tw, "wal sync policy\tinserts/s\tµs/insert\treplay ms")
	for _, r := range rep.WAL {
		fmt.Fprintf(tw, "\t%s\t%.0f\t%.1f\t%.1f\n", r.Policy, r.InsertsPerSec, r.MicrosPerInsert, r.ReplaySeconds*1e3)
	}
	if cr := rep.Churn; cr != nil {
		fmt.Fprintln(tw, "churn phase\tlive\ttombstoned\tqueries/s")
		for _, r := range cr.Rows {
			fmt.Fprintf(tw, "\t%s\t%d\t%d\t%.0f\n", r.Phase, r.Live, r.Tombstoned, r.QPS)
		}
		fmt.Fprintf(tw, "compaction pause ms (per shard)\tmean %.1f\tmax %.1f\tre-learns %d\n",
			cr.CompactMeanMs, cr.CompactMaxMs, cr.Relearns)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if cfg.JSONPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "[wrote %s]\n", cfg.JSONPath)
	}
	return nil
}

// BuildReport runs every measurement of the report.
func BuildReport(cfg SuiteConfig) (*PerfReport, error) {
	rep := &PerfReport{
		PR:        10,
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		SIMD:      simd.Impl(),
		SIMDBlock: simd.BlockImpl(),
	}
	rep.Kernels = kernelRows()
	// The snapshot measurements share one generated dataset.
	c := cfg.withDefaults()
	spec, data, err := snapshotData(c)
	if err != nil {
		return nil, err
	}
	rows, err := qpsRows(c, data)
	if err != nil {
		return nil, err
	}
	rep.EndToEnd = rows
	rep.Dataset = spec.Name
	rep.DataSeries = spec.Count
	rep.DataLength = spec.Length
	allocs, err := searchSteadyStateAllocs(cfg)
	if err != nil {
		return nil, err
	}
	rep.SearchSteadyStateAllocs = allocs
	rep.WAL, err = walRows(c, data)
	if err != nil {
		return nil, err
	}
	rep.Churn, err = churnReport(c, spec, data)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// kernelRows microbenchmarks every kernel variant via testing.Benchmark on
// fixed synthetic inputs: 256-element series, l=16 words, 256 symbols.
func kernelRows() []KernelRow {
	rng := rand.New(rand.NewSource(9))
	const n, l = 256, 16
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	word := make([]byte, l)
	for i := range word {
		word[i] = byte(rng.Intn(simd.Alphabet))
	}
	table := make([]float64, l*simd.Alphabet)
	for i := range table {
		table[i] = rng.Float64()
	}
	// A leaf-sized SoA block (256 series of l symbols) for the block kernels.
	const blockN = 256
	blockWords := make([]byte, blockN*l)
	for i := range blockWords {
		blockWords[i] = byte(rng.Intn(simd.Alphabet))
	}
	blockOut := make([]float64, blockN)
	inf := math.Inf(1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"ed_ea_" + simd.Impl(), func() { simd.SquaredEDEA(a, b, inf) }},
		{"ed_ea_portable", func() { simd.SquaredEDEAPortable(a, b, inf) }},
		{"dot_" + simd.Impl(), func() { simd.Dot(a, b) }},
		{"dot_portable", func() { simd.DotPortable(a, b) }},
		{"table_lookup_seq", func() { simd.LookupAccumEASeq(word, table, inf) }},
		// Block-granularity kernels: one call bounds a whole 256-series leaf
		// block, so ns/op here is per LEAF, not per series (divide by 256 to
		// compare against the per-series rows above).
		{"block_table_lookup_" + simd.BlockImpl(), func() { simd.LookupAccumBlockSurvivors(blockWords, blockN, table, blockOut, inf, nil) }},
		{"block_table_lookup_portable", func() {
			simd.LookupAccumBlockSurvivorsPortable(blockWords, blockN, table, blockOut, inf, nil)
		}},
	}
	rows := make([]KernelRow, 0, len(cases))
	for _, c := range cases {
		fn := c.fn
		res := testing.Benchmark(func(tb *testing.B) {
			for i := 0; i < tb.N; i++ {
				fn()
			}
		})
		rows = append(rows, KernelRow{Name: c.name, NsPerOp: float64(res.NsPerOp())})
	}
	return rows
}

// searchSteadyStateAllocs verifies the zero-allocation hot path end to end:
// allocations per Search on a warmed searcher over a small index.
func searchSteadyStateAllocs(cfg SuiteConfig) (float64, error) {
	c := cfg.withDefaults()
	spec := c.Datasets[0]
	spec.Count = 2000
	data, err := dataset.Generate(spec, c.Seed)
	if err != nil {
		return 0, err
	}
	queries, err := dataset.GenerateQueries(spec, 4, c.Seed)
	if err != nil {
		return 0, err
	}
	ix, err := core.Build(data, core.Config{
		Method: core.SOFA, LeafCapacity: 64, Workers: 1, SampleRate: 0.05, Seed: c.Seed,
	})
	if err != nil {
		return 0, err
	}
	s := ix.NewSearcher()
	var searchErr error
	run := func(q []float64) {
		if _, err := s.Search(q, 10); err != nil && searchErr == nil {
			searchErr = err
		}
	}
	for i := 0; i < 3; i++ { // warm every pooled buffer
		run(queries.Row(i % queries.Len()))
	}
	allocs := testing.AllocsPerRun(20, func() { run(queries.Row(0)) })
	if searchErr != nil {
		return 0, searchErr
	}
	return allocs, nil
}
