package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"text/tabwriter"
	"time"
)

// measured is one metric value as printed: a number with its unit.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of standard output of a
// single-workload run.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// workloadReport is one workload of a full run: both passes.
type workloadReport struct {
	Why       string              `json:"why"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]measured `json:"end_to_end"`
	PerLayer  map[string]measured `json:"per_layer"`
}

// report is a full run: every workload, untraced then traced.
type report struct {
	Fingerprint fingerprint               `json:"fingerprint"`
	Seed        int64                     `json:"seed"`
	Scale       float64                   `json:"scale"`
	Seconds     float64                   `json:"seconds"`
	Workloads   map[string]workloadReport `json:"workloads"`
}

func withUnits(v values, defs []metric) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		out[d.Name] = measured{v[d.Name], d.Unit}
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run this one workload and print the driver's result line (default: all four, both passes)")
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 10, "nominal length of each workload's timed phase: fixes its number of passes or ops")
		trace    = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		scale    = fs.Float64("scale", 1, "multiplies every series count (2.5 is the paper-scale 1M run)")
		asJSON   = fs.Bool("json", false, "print the full report as JSON instead of text")
		aa       = fs.Int("aa", 0, "A/A: run the full set 2N times, sides alternating, and compare the two sides' medians against the bounds")
		compare  = fs.Bool("compare", false, "compare two -json reports given as arguments, first the parent")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json")
		tmp      = fs.String("tmp", "", "directory for store files (default: the -out directory)")
		out      = fs.String("out", "out", "directory for span files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *manifest:
		return printManifest(os.Stdout)
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two report files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	o := options{seed: *seed, seconds: *seconds, scale: *scale, outDir: *out}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if *tmp == "" {
		*tmp = o.outDir
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return err
	}
	var err error
	if o.tmpRoot, err = os.MkdirTemp(*tmp, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(o.tmpRoot)
	// A signal is an exit path too: child runs keep their stores under tmpRoot.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(o.tmpRoot)
		os.Exit(130)
	}()

	fp := machineFingerprint()
	fmt.Fprintf(os.Stderr, "benchmark: %s, nproc %d, GOMAXPROCS %d, simd %s/%s, %s, commit %s\n",
		fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.SIMD, fp.BlockImpl, fp.GoVersion, fp.Commit)
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		return runContract(os.Stdout, w, o, *trace != 0)
	}

	// Every workload pass of a full run is measured the way the driver
	// measures it: by a fresh process that prints one result line.
	reports := make([]*report, 1)
	if *aa > 0 {
		var sides [2][]*report
		for r := 0; r < *aa; r++ {
			for s := range sides {
				fmt.Fprintf(os.Stderr, "benchmark: A/A round %d of %d, side %d\n", r+1, *aa, s+1)
				rep, err := runAll(o, fp, inChild, r == 0)
				if err != nil {
					return err
				}
				sides[s] = append(sides[s], rep)
			}
		}
		reports = []*report{medianReport(sides[0]), medianReport(sides[1])}
	} else if reports[0], err = runAll(o, fp, inChild, true); err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		for _, r := range reports {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
	} else {
		printReport(os.Stdout, reports[0])
	}
	failed := 0
	for _, r := range reports {
		for _, w := range r.Workloads {
			failed += w.Failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if *aa > 0 {
		return compareReports(os.Stdout, reports[0], reports[1], true)
	}
	return nil
}

// runner measures one pass of one workload and returns its result line.
type runner func(w workload, o options, traced bool) (result, error)

// inProcess measures in this process; setup_s counts from here, which in a
// driver run is the process's first millisecond.
func inProcess(w workload, o options, traced bool) (result, error) {
	started := time.Now()
	w = scaled(w, o.scale)
	if err := checkMemory(w); err != nil {
		return result{}, err
	}
	in, err := prepare(w, o.seed, o.seconds)
	if err != nil {
		return result{}, err
	}
	var (
		v    values
		t    tally
		defs = endToEnd
	)
	if traced {
		defs = perLayer
		v, t, err = runTraced(in, o)
	} else {
		v, t, err = runEndToEnd(in, o, started)
	}
	if err != nil {
		return result{}, err
	}
	if err := emit(v, defs); err != nil {
		return result{}, err
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: withUnits(v, defs)}, nil
}

// inChild measures in a fresh process of this binary, as the driver does: a
// heap other workloads have grown and fragmented changes build and load times.
func inChild(w workload, o options, traced bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.Name, "-trace", trace,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-tmp", o.tmpRoot, "-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil {
		return r, fmt.Errorf("%s: no result line (%v): %w", w.Name, err, jerr)
	}
	return r, nil // a run with failed operations exits non-zero but still reports them
}

// runContract is one driver run: one workload, one pass, one result line.
func runContract(out io.Writer, w workload, o options, traced bool) error {
	r, err := inProcess(w, o, traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if r.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", r.Failed, r.Attempted)
	}
	return nil
}

// runAll runs every workload through run: untraced, then traced if asked.
func runAll(o options, fp fingerprint, run runner, traced bool) (*report, error) {
	r := &report{Fingerprint: fp, Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Workloads: map[string]workloadReport{}}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "benchmark: %s\n", w.Name)
		e2e, err := run(w, o, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		wr := workloadReport{Why: w.Why, Attempted: e2e.Attempted, Failed: e2e.Failed, EndToEnd: e2e.Metrics}
		if traced {
			layers, err := run(w, o, true)
			if err != nil {
				return nil, fmt.Errorf("%s traced: %w", w.Name, err)
			}
			wr.Attempted, wr.Failed, wr.PerLayer = wr.Attempted+layers.Attempted, wr.Failed+layers.Failed, layers.Metrics
		}
		r.Workloads[w.Name] = wr
	}
	return r, nil
}

// medianReport folds the reports of one A/A side into one: each end-to-end
// metric at its median over the rounds, the per-layer metrics of the round
// that traced, attempts and failures summed.
func medianReport(rounds []*report) *report {
	out := *rounds[0]
	out.Workloads = map[string]workloadReport{}
	for name, first := range rounds[0].Workloads {
		wr := workloadReport{Why: first.Why, PerLayer: first.PerLayer, EndToEnd: map[string]measured{}}
		for _, r := range rounds {
			wr.Attempted, wr.Failed = wr.Attempted+r.Workloads[name].Attempted, wr.Failed+r.Workloads[name].Failed
		}
		for metric, m := range first.EndToEnd {
			var vals []float64
			for _, r := range rounds {
				vals = append(vals, r.Workloads[name].EndToEnd[metric].Value)
			}
			wr.EndToEnd[metric] = measured{median(vals), m.Unit}
		}
		out.Workloads[name] = wr
	}
	return &out
}

// printReport prints every metric by name with its unit, one column per
// workload, and the closed per-query budget of the serial tree search.
func printReport(out io.Writer, r *report) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	row := func(cells ...string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	header := []string{"metric", "unit"}
	for _, w := range workloads {
		header = append(header, w.Name)
	}
	section := func(title string, defs []metric, pick func(workloadReport) map[string]measured) {
		row(title)
		row(header...)
		for _, d := range defs {
			cells := []string{d.Name, d.Unit}
			for _, w := range workloads {
				cells = append(cells, fmt.Sprintf("%.6g", pick(r.Workloads[w.Name])[d.Name].Value))
			}
			row(cells...)
		}
		row()
	}
	section("END TO END (tracing off)", endToEnd, func(w workloadReport) map[string]measured { return w.EndToEnd })
	section("PER LAYER (traced pass, serial searcher)", perLayer, func(w workloadReport) map[string]measured { return w.PerLayer })

	row("PER-QUERY BUDGET of index.search_ns (ns and share)")
	row(header...)
	for _, part := range []struct{ label, nanos, share string }{
		{"z-normalise", "distance.znorm_ns", "index.znorm_time_share"},
		{"query representation", "sfa.query_repr_ns", "index.repr_time_share"},
		{"block LBD", "index.lbd_ns", "index.lbd_time_share"},
		{"real distances", "index.ed_ns", "index.ed_time_share"},
		{"self (descent, table, queues, collector)", "index.self_ns", "index.self_time_share"},
	} {
		cells := []string{part.label, "ns"}
		for _, w := range workloads {
			pl := r.Workloads[w.Name].PerLayer
			cells = append(cells, fmt.Sprintf("%.0f (%.1f%%)", pl[part.nanos].Value, 100*pl[part.share].Value))
		}
		row(cells...)
	}
	row()
	cells := []string{"operations attempted / failed", "count"}
	for _, w := range workloads {
		cells = append(cells, fmt.Sprintf("%d / %d", r.Workloads[w.Name].Attempted, r.Workloads[w.Name].Failed))
	}
	row(cells...)
	tw.Flush()
}

// worsening is how much b is worse than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(d metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// compareReports prints, per end-to-end metric and workload, how much b is
// worse than a beside the metric's bound, and fails when a bound is
// exceeded. With exact it also requires the exact-repeat counts to be equal,
// which holds for two runs of one seed on one commit.
func compareReports(out io.Writer, a, b *report, exact bool) error {
	if !a.Fingerprint.sameMachine(b.Fingerprint) {
		return fmt.Errorf("reports come from different machines or builds and cannot be compared:\n  %+v\n  %+v", a.Fingerprint, b.Fingerprint)
	}
	if a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		return errors.New("reports were taken with different -seed, -scale or -seconds")
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tfirst\tsecond\tworse by\tbound\t")
	var over, unequal int
	for _, d := range endToEnd {
		for _, w := range workloads {
			va, vb := a.Workloads[w.Name].EndToEnd[d.Name].Value, b.Workloads[w.Name].EndToEnd[d.Name].Value
			delta, verdict := worsening(d, va, vb), ""
			if delta > d.Bound {
				verdict = "EXCEEDED"
				over++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", d.Name, w.Name, va, vb, 100*delta, 100*d.Bound, verdict)
		}
	}
	for _, name := range exactCounts {
		for _, w := range workloads {
			va, vb := a.Workloads[w.Name].PerLayer[name].Value, b.Workloads[w.Name].PerLayer[name].Value
			if exact && va != vb {
				fmt.Fprintf(tw, "%s\t%s\t%v\t%v\tcount differs\t\tUNEQUAL\n", name, w.Name, va, vb)
				unequal++
			}
		}
	}
	tw.Flush()
	if over > 0 || unequal > 0 {
		return fmt.Errorf("%d end-to-end metrics beyond their bound, %d exact counts unequal", over, unequal)
	}
	return nil
}

func compareFiles(out io.Writer, pathA, pathB string) error {
	var reports [2]report
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &reports[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	exact := reports[0].Fingerprint.Commit == reports[1].Fingerprint.Commit
	return compareReports(out, &reports[0], &reports[1], exact)
}

// printManifest writes BENCHMARK.json from the tables in spec.go.
func printManifest(out io.Writer) error {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}{
		Command:    []string{"bash", filepath.ToSlash(filepath.Join("benchmark", "run.sh"))},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, entry{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, entry{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, entry{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
