package bench

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/fft"
	"repro/internal/sax"
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
	// The harness reproduces the paper's figures and tables, in paper
	// order, plus the approximate-search trade-off; nothing else.
	want := []string{"fig1", "fig2", "fig7", "fig8", "table2", "table3", "fig10", "fig11",
		"fig12", "table4", "fig13", "table5", "table6", "fig15", "approx"}
	exps := Experiments()
	var got []string
	for _, e := range exps {
		got = append(got, e.ID)
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("experiments %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := RunByID("definitely-not-an-experiment", tiny(), &buf); err == nil {
		t.Error("expected unknown-experiment error")
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
	sq, err := sax.NewQuantizer(n, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	paaErr, err := paaReconstructionMSE(sq.NewEncoder(), row, make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
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
