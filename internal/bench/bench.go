// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section V) over the synthetic benchmark
// of internal/dataset. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records how the measured shapes compare.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/flat"
	"repro/internal/scan"
	"repro/internal/sfa"
	"repro/internal/stats"
)

// SuiteConfig controls the scale of the experiment suite.
type SuiteConfig struct {
	// Datasets is the benchmark catalog; nil selects dataset.Catalog().
	Datasets []dataset.Spec
	// Queries per dataset (paper: 100; default 20 to keep the laptop suite
	// fast — raise it for tighter medians).
	Queries int
	// Scale multiplies every dataset's series count (default 1.0); use
	// <1 for smoke runs.
	Scale float64
	// CoreCounts is the worker sweep (paper: 9/18/36). Default: quarter,
	// half and full GOMAXPROCS.
	CoreCounts []int
	// LeafCapacity for tree indexes (default 256, scaled to the reduced
	// dataset sizes; the paper's 20k targets 100M-series datasets).
	LeafCapacity int
	// Seed drives all generators.
	Seed int64
	// Shards is the shard count the sharded-throughput experiment (qps)
	// compares against the single tree (default 4).
	Shards int
	// JSONPath, when set, makes the "report" experiment write its
	// machine-readable performance snapshot (PerfReport) to this file.
	JSONPath string
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if c.Datasets == nil {
		c.Datasets = dataset.Catalog()
	}
	if c.Queries == 0 {
		c.Queries = 20
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if len(c.CoreCounts) == 0 {
		p := runtime.GOMAXPROCS(0)
		quarter := p / 4
		if quarter < 1 {
			quarter = 1
		}
		half := p / 2
		if half <= quarter {
			half = quarter + 1
		}
		if p <= half {
			p = half + 1
		}
		c.CoreCounts = []int{quarter, half, p}
	}
	if c.LeafCapacity == 0 {
		c.LeafCapacity = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	return c
}

// snapshotData generates the benchmark snapshot dataset — the catalog's
// first entry at the configured scale — shared by the snapshot experiments
// (qps, chaos, wal, churn) and generated once per perf report. c must
// already be defaulted (withDefaults).
func snapshotData(c SuiteConfig) (dataset.Spec, *distance.Matrix, error) {
	scaled := c.Datasets[0]
	scaled.Count = int(float64(scaled.Count) * c.Scale)
	if scaled.Count < 200 {
		scaled.Count = 200
	}
	data, err := dataset.Generate(scaled, c.Seed)
	if err != nil {
		return scaled, nil, fmt.Errorf("generating %s: %w", scaled.Name, err)
	}
	return scaled, data, nil
}

// Quick returns a reduced configuration for smoke tests and testing.B
// benchmarks: 5 representative datasets at 1/4 scale, 8 queries.
func Quick() SuiteConfig {
	var specs []dataset.Spec
	for _, name := range []string{"LenDB", "SCEDC", "SIFT1b", "Astro", "SALD"} {
		s, err := dataset.ByName(name)
		if err != nil {
			panic(err)
		}
		specs = append(specs, s)
	}
	return SuiteConfig{Datasets: specs, Queries: 8, Scale: 0.25}.withDefaults()
}

// Bundle is one generated dataset plus its query set.
type Bundle struct {
	Spec    dataset.Spec
	Data    *distance.Matrix
	Queries *distance.Matrix
}

// loadBundle generates one dataset and its queries at the configured scale.
func (c SuiteConfig) loadBundle(spec dataset.Spec) (*Bundle, error) {
	scaled := spec
	scaled.Count = int(float64(spec.Count) * c.Scale)
	if scaled.Count < 200 {
		scaled.Count = 200
	}
	data, err := dataset.Generate(scaled, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", spec.Name, err)
	}
	queries, err := dataset.GenerateQueries(scaled, c.Queries, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("generating %s queries: %w", spec.Name, err)
	}
	return &Bundle{Spec: scaled, Data: data, Queries: queries}, nil
}

// buildTree builds a SOFA or MESSI index with suite defaults.
func (c SuiteConfig) buildTree(b *Bundle, method core.Method, workers int) (*core.Index, error) {
	return core.Build(b.Data, core.Config{
		Method:       method,
		LeafCapacity: c.LeafCapacity,
		Workers:      workers,
		SampleRate:   0.01,
		Seed:         c.Seed,
	})
}

// timeTreeQueries runs every query sequentially (the paper's exploratory
// protocol) and returns per-query seconds.
func timeTreeQueries(ix *core.Index, queries *distance.Matrix, k int) ([]float64, error) {
	s := ix.NewSearcher()
	out := make([]float64, queries.Len())
	for i := 0; i < queries.Len(); i++ {
		start := time.Now()
		if _, err := s.Search(queries.Row(i), k); err != nil {
			return nil, err
		}
		out[i] = time.Since(start).Seconds()
	}
	return out, nil
}

// timeScanQueries times the UCR Suite-P baseline.
func timeScanQueries(sc *scan.Scanner, queries *distance.Matrix, k int) ([]float64, error) {
	out := make([]float64, queries.Len())
	for i := 0; i < queries.Len(); i++ {
		start := time.Now()
		if _, err := sc.Search(queries.Row(i), k); err != nil {
			return nil, err
		}
		out[i] = time.Since(start).Seconds()
	}
	return out, nil
}

// timeFlatQueries times the FAISS-like baseline under its mini-batch
// protocol: the whole batch is timed and the per-query cost is amortized.
func timeFlatQueries(ix *flat.Index, queries *distance.Matrix, k int) ([]float64, error) {
	start := time.Now()
	if _, err := ix.SearchBatch(queries, k); err != nil {
		return nil, err
	}
	per := time.Since(start).Seconds() / float64(queries.Len())
	out := make([]float64, queries.Len())
	for i := range out {
		out[i] = per
	}
	return out, nil
}

// ms formats seconds as milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.1f", sec*1000) }

// newTable returns a tabwriter over w.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// meanMedian returns mean and median of samples.
func meanMedian(samples []float64) (mean, median float64) {
	return stats.Mean(samples), stats.Median(samples)
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg SuiteConfig, w io.Writer) error
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Fig 1: PAA vs FFT approximation quality and value distributions", RunFig1},
		{"fig2", "Fig 2/3: SAX vs SFA words and summarization walkthrough", RunFig2},
		{"fig7", "Fig 7: index creation time by method and cores", RunFig7},
		{"fig8", "Fig 8: index structure (depth, leaf size, subtrees)", RunFig8},
		{"table2", "Table II: 1-NN query times (mean/median) by method and cores", RunTable2},
		{"table3", "Table III / Fig 9: k-NN query times", RunTable3},
		{"fig10", "Fig 10: query time distribution by cores", RunFig10},
		{"fig11", "Fig 11: query time by leaf size", RunFig11},
		{"fig12", "Fig 12: relative query time SOFA vs MESSI per dataset", RunFig12},
		{"table4", "Table IV: effect of MCB sampling rate", RunTable4},
		{"fig13", "Fig 13: selected coefficient index vs speedup", RunFig13},
		{"table5", "Table V / Fig 14 left: TLB on UCR-like datasets", RunTable5},
		{"table6", "Table VI / Fig 14 right: TLB on the 17 SOFA datasets", RunTable6},
		{"fig15", "Fig 15: critical-difference ranks (Wilcoxon-Holm)", RunFig15},
		{"approx", "Extension: approximate and \u03b5-bounded search trade-offs (paper Sec VI future work)", RunApprox},
		{"qps", "Extension: sharded and streaming batched-query throughput", RunQPS},
		{"chaos", "Extension: degraded-mode throughput, top-k coverage and ε certificates with one shard quarantined", RunChaos},
		{"wal", "Extension: durable insert throughput by WAL sync policy", RunWAL},
		{"churn", "Extension: search throughput under tombstone load, compaction pauses, SFA re-learns", RunChurn},
		{"report", "Extension: kernel + end-to-end perf snapshot (JSON via -json)", RunReport},
	}
}

// RunByID runs one experiment by its ID.
func RunByID(id string, cfg SuiteConfig, w io.Writer) error {
	for _, e := range Experiments() {
		if e.ID == id {
			fmt.Fprintf(w, "== %s ==\n", e.Title)
			return e.Run(cfg, w)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (known: %s)", id, knownIDs())
}

// RunAll runs the full suite in paper order.
func RunAll(cfg SuiteConfig, w io.Writer) error {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "\n== %s ==\n", e.Title)
		start := time.Now()
		if err := e.Run(cfg, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "[%s completed in %.1fs]\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}

func knownIDs() string {
	ids := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ", "
		}
		out += id
	}
	return out
}

// sfaTLBConfig enumerates the five methods of the TLB ablation.
type tlbMethod struct {
	Name      string
	IsSAX     bool
	Binning   sfa.Binning
	Selection sfa.Selection
}

func tlbMethods() []tlbMethod {
	return []tlbMethod{
		{Name: "SFA ED +VAR", Binning: sfa.EquiDepth, Selection: sfa.HighestVariance},
		{Name: "SFA EW +VAR", Binning: sfa.EquiWidth, Selection: sfa.HighestVariance},
		{Name: "SFA ED", Binning: sfa.EquiDepth, Selection: sfa.FirstCoefficients},
		{Name: "SFA EW", Binning: sfa.EquiWidth, Selection: sfa.FirstCoefficients},
		{Name: "iSAX", IsSAX: true},
	}
}
