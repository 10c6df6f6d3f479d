package analysis

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// NoHeapConfig parameterizes the compile-time zero-alloc budget gate.
type NoHeapConfig struct {
	// Packages are the import paths whose escape-analysis output is gated
	// (the query hot path: simd, index, core).
	Packages []string
	// BudgetFile is the module-relative path of the checked-in budget.
	BudgetFile string
}

// NewNoHeap builds the noheap analyzer: it compiles the gated packages with
// `go build -gcflags=-m`, keeps every "escapes to heap" / "moved to heap"
// line, normalizes away line/column numbers, and diffs the result against
// the checked-in budget. A change that makes a hot-path value — drainScratch,
// the per-query distTable — escape to the heap therefore fails static
// analysis before any benchmark run can notice the allocation. Escapes that
// disappear are flagged too (a stale budget claims allocations that no
// longer exist). Intentional new allocations are accepted by regenerating
// the budget: `go run ./cmd/sofa-vet -update-escape-budget`. Under the
// faultinject tag the gate prints why it skips and reports nothing: the
// hooks allocate by design, and the release scan proves none ships.
func NewNoHeap(cfg NoHeapConfig) *Analyzer {
	return &Analyzer{
		Name: "noheap",
		Doc: "compile-time zero-alloc budget: diff `go build -gcflags=-m` heap-escape output for the " +
			"hot-path packages against the checked-in escape budget, so a new heap escape fails CI " +
			"before any benchmark runs",
		Run: func(pass *Pass) error {
			if hasTag(pass.Tags, "faultinject") {
				fmt.Fprintf(os.Stderr, "noheap: skipped under -tags %s: the fault-injection hooks allocate by design, and -release-scan proves no hook ships in a release build\n", pass.Tags)
				return nil
			}
			got, err := EscapeReport(pass.ModuleDir, cfg.Packages, pass.Tags)
			if err != nil {
				return err
			}
			budgetPath := filepath.Join(pass.ModuleDir, filepath.FromSlash(cfg.BudgetFile))
			raw, err := os.ReadFile(budgetPath)
			if err != nil {
				pass.ReportModulef("escape budget %s unreadable (%v): generate it with `go run ./cmd/sofa-vet -update-escape-budget`", cfg.BudgetFile, err)
				return nil
			}
			want := parseBudget(string(raw))
			for _, line := range diffKeys(got, want) {
				pass.ReportModulef("new heap escape not in %s: %q (×%d) — eliminate the allocation or, if intentional, regenerate the budget with `go run ./cmd/sofa-vet -update-escape-budget`",
					cfg.BudgetFile, line, got[line])
			}
			for _, line := range diffKeys(want, got) {
				pass.ReportModulef("stale escape budget entry in %s: %q no longer escapes — regenerate the budget with `go run ./cmd/sofa-vet -update-escape-budget`",
					cfg.BudgetFile, line)
			}
			for _, line := range sortedKeys(got) {
				if want[line] > 0 && got[line] > want[line] {
					pass.ReportModulef("heap escape %q multiplied: ×%d now vs ×%d budgeted in %s — a new instance of a budgeted escape appeared",
						line, got[line], want[line], cfg.BudgetFile)
				}
				if want[line] > got[line] {
					pass.ReportModulef("escape budget overcounts %q (×%d budgeted, ×%d now) — regenerate the budget with `go run ./cmd/sofa-vet -update-escape-budget`",
						line, want[line], got[line])
				}
			}
			return nil
		},
	}
}

// hasTag reports whether the comma- or space-separated build-tag list tags
// holds tag.
func hasTag(tags, tag string) bool {
	for _, t := range strings.FieldsFunc(tags, func(r rune) bool { return r == ',' || r == ' ' }) {
		if t == tag {
			return true
		}
	}
	return false
}

// escapeLine matches compiler -m diagnostics: "file.go:line:col: message".
var escapeLine = regexp.MustCompile(`^(.+\.go):\d+:\d+: (.*(?:escapes to heap|moved to heap).*)$`)

// EscapeReport compiles pkgs with -gcflags=-m (forcing the compile step out
// of — or replayed from — the build cache; the go tool replays cached
// compiler diagnostics, so repeated runs are cheap and identical) and
// returns the normalized multiset of heap-escape lines: "file.go: message"
// with line/column stripped, mapped to occurrence count. Counts make a
// second identical escape in the same file visible even though the
// normalized text matches an existing budget line.
func EscapeReport(moduleDir string, pkgs []string, tags string) (map[string]int, error) {
	args := []string{"build"}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	for _, p := range pkgs {
		args = append(args, "-gcflags="+p+"=-m")
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m failed: %v\n%s", err, out.String())
	}
	report := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		report[filepath.ToSlash(m[1])+": "+m[2]]++
	}
	return report, nil
}

// FormatBudget renders a report in the checked-in budget format: a header
// comment, then sorted "count<TAB>line" entries.
func FormatBudget(report map[string]int) string {
	var b strings.Builder
	b.WriteString("# Escape-analysis budget for the query hot path, under every build-tag set.\n")
	b.WriteString("# Every line is one normalized `go build -gcflags=-m` heap-escape diagnostic\n")
	b.WriteString("# (count, file, message; line numbers stripped). The noheap analyzer fails\n")
	b.WriteString("# when compilation produces an escape not listed here — or stops producing\n")
	b.WriteString("# a listed one. Regenerate: go run ./cmd/sofa-vet -update-escape-budget\n")
	for _, k := range sortedKeys(report) {
		fmt.Fprintf(&b, "%d\t%s\n", report[k], k)
	}
	return b.String()
}

// parseBudget reads the FormatBudget format back into a report.
func parseBudget(s string) map[string]int {
	report := map[string]int{}
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		count := 1
		if tab := strings.IndexByte(line, '\t'); tab > 0 {
			if n, err := fmt.Sscanf(line[:tab], "%d", &count); n != 1 || err != nil {
				count = 1
			}
			line = line[tab+1:]
		}
		report[line] += count
	}
	return report
}

// diffKeys returns the keys of a that are absent from b, sorted.
func diffKeys(a, b map[string]int) []string {
	var out []string
	for k := range a {
		if _, ok := b[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DefaultNoHeapConfig gates the hot-path packages against one budget. The
// asm and noasm builds compile different kernel sources, but their escape
// reports are identical, so both tag sets are held to the same file.
func DefaultNoHeapConfig() NoHeapConfig {
	return NoHeapConfig{
		Packages:   []string{"repro/internal/simd", "repro/internal/index", "repro/internal/core"},
		BudgetFile: "internal/analysis/testdata/escape_budget.txt",
	}
}
