package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/fft"
	"repro/internal/stats"
)

// tiny returns a minimal configuration that exercises every code path in
// seconds, not minutes.
func tiny() SuiteConfig {
	var specs []dataset.Spec
	for _, name := range []string{"LenDB", "SALD"} {
		s, err := dataset.ByName(name)
		if err != nil {
			panic(err)
		}
		s.Count = 400
		specs = append(specs, s)
	}
	return SuiteConfig{
		Datasets:     specs,
		Queries:      4,
		Scale:        1, // counts already shrunk above
		CoreCounts:   []int{1, 2},
		LeafCapacity: 64,
		Seed:         3,
	}
}

func TestWithDefaults(t *testing.T) {
	c := SuiteConfig{}.withDefaults()
	if len(c.Datasets) != 17 {
		t.Errorf("default datasets: %d", len(c.Datasets))
	}
	if c.Queries != 20 || c.Scale != 1 || c.LeafCapacity != 256 || c.Seed != 1 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if len(c.CoreCounts) != 3 {
		t.Errorf("core counts: %v", c.CoreCounts)
	}
	for i := 1; i < len(c.CoreCounts); i++ {
		if c.CoreCounts[i] <= c.CoreCounts[i-1] {
			t.Errorf("core counts not increasing: %v", c.CoreCounts)
		}
	}
}

func TestQuickConfig(t *testing.T) {
	c := Quick()
	if len(c.Datasets) != 5 || c.Scale != 0.25 {
		t.Errorf("quick config: %+v", c)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 20 {
		t.Fatalf("%d experiments, want 20", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	var buf bytes.Buffer
	if err := RunByID("definitely-not-an-experiment", tiny(), &buf); err == nil {
		t.Error("expected unknown-experiment error")
	}
}

func TestRunQPS(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Shards = 2
	if err := RunQPS(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SOFA stream") || !strings.Contains(out, "flat batch") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestRunWAL(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Shards = 2
	if err := RunWAL(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sync policy", "none", "interval", "always", "replay ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("wal output missing %q:\n%s", want, out)
		}
	}
}

func TestRunChaos(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Shards = 2
	if err := RunChaos(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"degraded (AllowPartial)", "top-k coverage", "ε certificates"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos output missing %q:\n%s", want, out)
		}
	}
}

func TestRunChurn(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Shards = 2
	if err := RunChurn(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"baseline", "churn 30%", "compacted", "compaction pauses", "re-learns"} {
		if !strings.Contains(out, want) {
			t.Errorf("churn output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReport(t *testing.T) {
	// Shrink testing.Benchmark's target time so the ten kernel
	// microbenchmarks don't dominate the test suite; restore whatever the
	// invocation had (a user's -benchtime must survive into the package's
	// real benchmarks).
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "5ms"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", prev)
	cfg := tiny()
	cfg.Shards = 2
	cfg.JSONPath = filepath.Join(t.TempDir(), "perf.json")
	var buf bytes.Buffer
	if err := RunReport(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ed_ea_", "lbd_gather_portable", "table_lookup_seq", "SOFA stream"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(cfg.JSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep PerfReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if rep.PR != 10 || len(rep.Kernels) == 0 || len(rep.EndToEnd) == 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	if rep.SIMDBlock != "avx512" && rep.SIMDBlock != "avx2" && rep.SIMDBlock != "portable" {
		t.Errorf("bad simd_block field %q", rep.SIMDBlock)
	}
	if rep.Chaos == nil || rep.Chaos.Queries == 0 || rep.Chaos.HealthyQPS <= 0 || rep.Chaos.DegradedQPS <= 0 {
		t.Errorf("report chaos section incomplete: %+v", rep.Chaos)
	} else if got := rep.Chaos.EpsilonZero + rep.Chaos.EpsilonFinite + rep.Chaos.EpsilonInf; got != rep.Chaos.Queries {
		t.Errorf("chaos ε counts sum to %d, want %d", got, rep.Chaos.Queries)
	}
	if len(rep.WAL) != 3 {
		t.Fatalf("report wal rows incomplete: %+v", rep.WAL)
	}
	for i, want := range []string{"none", "interval", "always"} {
		r := rep.WAL[i]
		if r.Policy != want || r.InsertsPerSec <= 0 || r.WALBytes <= 0 || r.ReplaySeconds <= 0 {
			t.Errorf("degenerate wal row: %+v (want policy %q)", r, want)
		}
	}
	if rep.SIMD != "avx2" && rep.SIMD != "portable" {
		t.Errorf("bad simd field %q", rep.SIMD)
	}
	for _, k := range rep.Kernels {
		if k.NsPerOp <= 0 {
			t.Errorf("kernel %s has non-positive ns/op %v", k.Name, k.NsPerOp)
		}
	}
	if !raceEnabled && rep.SearchSteadyStateAllocs != 0 {
		t.Errorf("steady-state Search allocates %v allocs/op, want 0", rep.SearchSteadyStateAllocs)
	}
	if rep.Churn == nil || len(rep.Churn.Rows) != 4 {
		t.Fatalf("report churn section incomplete: %+v", rep.Churn)
	}
	for i, want := range []string{"baseline", "churn 10%", "churn 30%", "compacted"} {
		r := rep.Churn.Rows[i]
		if r.Phase != want || r.QPS <= 0 || r.Live <= 0 {
			t.Errorf("degenerate churn row: %+v (want phase %q)", r, want)
		}
	}
	if last := rep.Churn.Rows[3]; last.Tombstoned != 0 {
		t.Errorf("compacted churn row still carries %d tombstones", last.Tombstoned)
	}
	if rep.Churn.Compactions < int64(rep.Churn.Shards) || rep.Churn.CompactMaxMs <= 0 {
		t.Errorf("churn compaction accounting: %+v", rep.Churn)
	}
}

func TestRunFig1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig1(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "LenDB") || !strings.Contains(out, "PAA MSE") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestRunFig2(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig2(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SAX word") || !strings.Contains(out, "SFA word") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestRunFig7AndFig8(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig7(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SOFA") {
		t.Errorf("fig7 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := RunFig8(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "avg depth") {
		t.Errorf("fig8 output:\n%s", buf.String())
	}
}

func TestRunTable2AndFig10(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable2(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range table2Methods {
		if !strings.Contains(out, m) {
			t.Errorf("table2 missing method %q:\n%s", m, out)
		}
	}
	buf.Reset()
	if err := RunFig10(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "median ms") {
		t.Errorf("fig10 output:\n%s", buf.String())
	}
}

func TestRunTable3(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable3(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "50-NN") {
		t.Errorf("table3 output:\n%s", out)
	}
	// UCR suite must have a dash for k>1.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "UCR") && !strings.Contains(line, "-") {
			t.Errorf("UCR row should skip k>1: %q", line)
		}
	}
}

func TestRunFig11(t *testing.T) {
	cfg := tiny()
	var buf bytes.Buffer
	if err := RunFig11(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, v := range []string{"MESSI", "SOFA + ED", "SOFA + EW"} {
		if !strings.Contains(out, v) {
			t.Errorf("fig11 missing %q:\n%s", v, out)
		}
	}
}

func TestRunFig12AndFig13(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig12(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "%") {
		t.Errorf("fig12 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := RunFig13(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pearson") {
		t.Errorf("fig13 output:\n%s", buf.String())
	}
}

func TestRunTable4(t *testing.T) {
	cfg := tiny()
	var buf bytes.Buffer
	if err := RunTable4(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sampling") {
		t.Errorf("table4 output:\n%s", buf.String())
	}
}

func TestTLBForMethodProperties(t *testing.T) {
	// TLB must lie in [0, 1] (it is a ratio of a lower bound to the true
	// distance) and EW+VAR should beat iSAX on a high-frequency dataset.
	spec, _ := dataset.ByName("LenDB")
	spec.Count = 150
	train, err := dataset.Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.GenerateQueries(spec, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sfaEWVar, isax float64
	for _, m := range tlbMethods() {
		v, err := tlbForMethod(m, 8, train, test)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
			t.Errorf("%s: TLB %v out of [0,1]", m.Name, v)
		}
		switch m.Name {
		case "SFA EW +VAR":
			sfaEWVar = v
		case "iSAX":
			isax = v
		}
	}
	if sfaEWVar <= isax {
		t.Errorf("on high-frequency data SFA EW+VAR TLB (%v) should beat iSAX (%v)", sfaEWVar, isax)
	}
}

func TestRunTable5SmallSweep(t *testing.T) {
	// A reduced UCR sweep through the real entry point would be slow; test
	// the shared table runner over two synthetic splits directly.
	spec := dataset.UCRCatalog()[0]
	spec.TrainSize, spec.TestSize = 60, 10
	train, test, err := dataset.GenerateUCR(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	splits := []tlbSplit{{spec.Name, train, test}, {"again", train, test}}
	var buf bytes.Buffer
	if err := runTLBTable(splits, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range tlbMethods() {
		if !strings.Contains(out, m.Name) {
			t.Errorf("missing method %q:\n%s", m.Name, out)
		}
	}
	if !strings.Contains(out, "a=256") {
		t.Errorf("missing alphabet column:\n%s", out)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{4: 2, 8: 3, 16: 4, 32: 5, 64: 6, 128: 7, 256: 8}
	for alpha, want := range cases {
		if got := bitsFor(alpha); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", alpha, got, want)
		}
	}
}

func TestFig15Ranks(t *testing.T) {
	// Run fig15's core path over a tiny synthetic benchmark by checking
	// tlbSweep + MeanRanks wiring end to end via the public entry point on
	// reduced splits is covered above; here verify the rank direction: the
	// method with the highest TLB gets the lowest (best) mean rank.
	scores := [][]float64{
		{0.5, 0.9, 0.3, 0.8, 0.2},
		{0.55, 0.92, 0.31, 0.81, 0.25},
	}
	ranks, err := statsMeanRanksHigherBetter(scores)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for i := range ranks {
		if ranks[i] < ranks[best] {
			best = i
		}
	}
	if best != 1 {
		t.Errorf("method 1 has highest TLB but rank winner is %d (%v)", best, ranks)
	}
}

func TestFFTReconstructionBeatsPAAOnHighFreq(t *testing.T) {
	// The Fig. 1 claim in miniature: on a pure high-frequency signal the
	// PAA reconstruction error dwarfs the FFT one.
	rng := rand.New(rand.NewSource(9))
	n := 128
	row := make([]float64, n)
	for j := range row {
		row[j] = math.Sin(2*math.Pi*40*float64(j)/float64(n)) + 0.05*rng.NormFloat64()
	}
	distance.ZNormalize(row)
	paaErr := paaReconstructionMSE(row, 8)
	plan := mustPlan(t, n)
	fftErr, err := fftReconstructionMSE(plan, row, 8)
	if err != nil {
		t.Fatal(err)
	}
	if paaErr < 5*fftErr {
		t.Errorf("PAA MSE %v should dwarf FFT MSE %v on high-frequency data", paaErr, fftErr)
	}
}

// test helpers

func mustPlan(t *testing.T, n int) *fft.Plan {
	t.Helper()
	p, err := fft.NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func statsMeanRanksHigherBetter(scores [][]float64) ([]float64, error) {
	return stats.MeanRanks(scores, false)
}
