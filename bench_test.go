// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation at a reduced (laptop) scale: one testing.B
// benchmark per experiment, each measuring a cold end-to-end run of the
// corresponding harness entry point. Run the full-size experiments with
// cmd/sofa-bench.
package repro

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
)

// benchCfg is the reduced suite configuration shared by all experiment
// benchmarks: 5 representative datasets at quarter scale, two core counts.
func benchCfg() bench.SuiteConfig {
	cfg := bench.Quick()
	p := runtime.GOMAXPROCS(0)
	half := p / 2
	if half < 1 {
		half = 1
	}
	cfg.CoreCounts = []int{half, p}
	cfg.Queries = 6
	return cfg
}

// runExperiment measures cold end-to-end runs of one experiment.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.ResetCaches()
		if err := bench.RunByID(id, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Summarization(b *testing.B)       { runExperiment(b, "fig1") }
func BenchmarkFig2Words(b *testing.B)               { runExperiment(b, "fig2") }
func BenchmarkFig7IndexCreation(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig8IndexStructure(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkTable2QueryTimes(b *testing.B)        { runExperiment(b, "table2") }
func BenchmarkTable3KNN(b *testing.B)               { runExperiment(b, "table3") }
func BenchmarkFig10QueryDistribution(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11LeafSize(b *testing.B)           { runExperiment(b, "fig11") }
func BenchmarkFig12RelativeQueryTime(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkTable4SamplingRate(b *testing.B)      { runExperiment(b, "table4") }
func BenchmarkFig13CoefficientSpeedup(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkTable5TLBUCR(b *testing.B)            { runExperiment(b, "table5") }
func BenchmarkTable6TLBSOFA(b *testing.B)           { runExperiment(b, "table6") }
func BenchmarkFig15CriticalDifference(b *testing.B) { runExperiment(b, "fig15") }

// Component-level benchmarks: the operations the tables are made of.

func loadBench(b *testing.B, name string, count int) *dataset.Spec {
	b.Helper()
	spec, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	spec.Count = count
	return &spec
}

func BenchmarkSOFABuild20k(b *testing.B) {
	spec := loadBench(b, "LenDB", 20000)
	data, err := dataset.Generate(*spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(data, core.Config{Method: core.SOFA, LeafCapacity: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMESSIBuild20k(b *testing.B) {
	spec := loadBench(b, "LenDB", 20000)
	data, err := dataset.Generate(*spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(data, core.Config{Method: core.MESSI, LeafCapacity: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQuery(b *testing.B, method core.Method, name string) {
	spec := loadBench(b, name, 20000)
	data, err := dataset.Generate(*spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := dataset.GenerateQueries(*spec, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := core.Build(data, core.Config{Method: method, LeafCapacity: 256})
	if err != nil {
		b.Fatal(err)
	}
	s := ix.NewSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search1(queries.Row(i % queries.Len())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSOFAQueryHighFreq(b *testing.B)  { benchQuery(b, core.SOFA, "LenDB") }
func BenchmarkMESSIQueryHighFreq(b *testing.B) { benchQuery(b, core.MESSI, "LenDB") }
func BenchmarkSOFAQuerySmooth(b *testing.B)    { benchQuery(b, core.SOFA, "SALD") }
func BenchmarkMESSIQuerySmooth(b *testing.B)   { benchQuery(b, core.MESSI, "SALD") }

func BenchmarkApproxTradeoff(b *testing.B) { runExperiment(b, "approx") }
