package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func testOptions(t *testing.T, seed int64) options {
	dir := t.TempDir()
	return options{seed: seed, seconds: 0.1, scale: 0.01, tmpRoot: dir, outDir: dir}
}

// TestManifest pins BENCHMARK.json to the tables in spec.go and to the
// driver's limits on names, units and sizes.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the driver's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		// The driver's limits: at most 0.25, and setup_s carries the largest.
		if d.Bound <= 0 || d.Bound > endToEnd[0].Bound || endToEnd[0].Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, setup_s's %v <= 0.25]", d.Name, d.Bound, endToEnd[0].Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the driver's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("manifest exceeds the driver's limits")
	}
}

// TestContractLine checks the driver-facing result line of both passes.
func TestContractLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := runContract(&out, workloads[3], testOptions(t, 3), traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(defs) {
			t.Errorf("traced=%v: correct %v, attempted %d, failed %d, %d metrics (want %d)", traced, r.Correct, r.Attempted, r.Failed, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or in unit %q, want %q", traced, d.Name, m.Unit, d.Unit)
			}
		}
	}
}

// TestRepeatability runs the full set twice on one seed and once on another:
// every declared metric appears on every workload and nothing else does, no
// operation fails, end-to-end metrics are never 0, the exact counts repeat bit
// for bit and move with the seed, and the span files are well-formed.
func TestRepeatability(t *testing.T) {
	fp := machineFingerprint()
	var reports []*report
	for _, seed := range []int64{1, 1, 2} {
		o := testOptions(t, seed)
		r, err := runAll(o, fp, inProcess, true)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
		for _, w := range workloads {
			checkSpans(t, filepath.Join(o.outDir, "trace-"+w.Name+".json"))
		}
	}
	for _, w := range workloads {
		wr, ok := reports[0].Workloads[w.Name]
		if !ok {
			t.Fatalf("workload %s missing from the report", w.Name)
		}
		if wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", w.Name, wr.Failed, wr.Attempted)
		}
		if len(wr.EndToEnd) != len(endToEnd) || len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", w.Name, len(wr.EndToEnd), len(wr.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, d := range endToEnd {
			if m := wr.EndToEnd[d.Name]; m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s: %s = %v %q, want a positive value in %q", w.Name, d.Name, m.Value, m.Unit, d.Unit)
			}
		}
		for _, d := range perLayer {
			if m, ok := wr.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s missing or in unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
			}
		}
		// Only the workload that writes has a write path to measure.
		for _, name := range []string{"core.wal_bytes_per_mutation", "core.compactions", "core.compact_shard_ms", "core.write_p50_us", "core.recover_ms"} {
			if got := wr.PerLayer[name].Value; (got != 0) != (w.OpsPerSec > 0) {
				t.Errorf("%s: %s = %v, want non-zero exactly where the workload writes", w.Name, name, got)
			}
		}
		moved := false
		for _, name := range exactCounts {
			a, b, c := wr.PerLayer[name].Value, reports[1].Workloads[w.Name].PerLayer[name].Value, reports[2].Workloads[w.Name].PerLayer[name].Value
			if a != b {
				t.Errorf("%s: %s is %v then %v on one seed", w.Name, name, a, b)
			}
			moved = moved || a != c
		}
		if !moved {
			t.Errorf("%s: no exact count changed with the seed", w.Name)
		}
	}
	if len(reports[0].Workloads) != len(workloads) {
		t.Errorf("report holds %d workloads, want %d", len(reports[0].Workloads), len(workloads))
	}
	if err := compareReports(new(bytes.Buffer), reports[0], reports[2], false); err == nil {
		t.Error("compare accepted reports taken with different seeds")
	}
	other := *reports[1]
	other.Fingerprint.NProc++
	if err := compareReports(new(bytes.Buffer), reports[0], &other, true); err == nil {
		t.Error("compare accepted reports from different machines")
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for i, s := range spans {
		if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID || s.End < s.Start || s.Name == "" {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
	}
}
