package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for the escape gate to compile.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const escClean = `package esc

// Sum keeps everything on the stack.
func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
`

const escLeaky = escClean + `
// Leak deliberately heap-escapes its local.
func Leak() *int {
	x := 7
	return &x
}
`

func runNoHeap(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	a := NewNoHeap(NoHeapConfig{Packages: []string{"escfix/esc"}, BudgetFile: "budget.txt"})
	diags, err := RunOn([]*Analyzer{a}, dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestNoHeapGate proves the acceptance property end to end: a budget
// matching the compiled escapes is clean, and a diff that introduces a heap
// escape fails the gate before any benchmark could notice the allocation —
// likewise a budget entry whose escape disappeared.
func TestNoHeapGate(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     "module escfix\n\ngo 1.24\n",
		"esc/esc.go": escClean,
	})

	// An absent budget is itself a finding, with regeneration instructions.
	if diags := runNoHeap(t, dir); len(diags) != 1 || !strings.Contains(diags[0].Message, "unreadable") {
		t.Fatalf("missing budget: got %v", diags)
	}

	// Budget generated from the clean state: the gate passes.
	report, err := EscapeReport(dir, []string{"escfix/esc"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "budget.txt"), []byte(FormatBudget(report)), 0o644); err != nil {
		t.Fatal(err)
	}
	if diags := runNoHeap(t, dir); len(diags) != 0 {
		t.Fatalf("clean module vs matching budget: unexpected diagnostics %v", diags)
	}

	// The deliberate heap escape: the gate must fail with the new escape
	// named and the regeneration command in the message.
	if err := os.WriteFile(filepath.Join(dir, "esc", "esc.go"), []byte(escLeaky), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := runNoHeap(t, dir)
	if len(diags) == 0 {
		t.Fatal("heap-escaping diff passed the gate")
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "new heap escape") && strings.Contains(d.Message, "moved to heap: x") {
			found = true
		}
		if !strings.Contains(d.Message, "sofa-vet -update-escape-budget") {
			t.Errorf("diagnostic lacks regeneration instructions: %s", d.Message)
		}
	}
	if !found {
		t.Fatalf("no diagnostic names the escaped variable: %v", diags)
	}

	// Symmetry: with the leak budgeted, removing it flags the stale entry.
	report, err = EscapeReport(dir, []string{"escfix/esc"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "budget.txt"), []byte(FormatBudget(report)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "esc", "esc.go"), []byte(escClean), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := runNoHeap(t, dir)
	if len(stale) == 0 {
		t.Fatal("stale budget entry not flagged")
	}
	for _, d := range stale {
		if !strings.Contains(d.Message, "stale escape budget entry") {
			t.Errorf("unexpected diagnostic: %s", d.Message)
		}
	}
}

// TestBudgetRoundTrip pins the budget file format: parse(format(r)) == r.
func TestBudgetRoundTrip(t *testing.T) {
	report := map[string]int{
		"esc/esc.go: moved to heap: x":       2,
		"esc/esc.go: new(T) escapes to heap": 1,
	}
	back := parseBudget(FormatBudget(report))
	if len(back) != len(report) {
		t.Fatalf("round trip changed entry count: %v vs %v", back, report)
	}
	for k, v := range report {
		if back[k] != v {
			t.Errorf("round trip %q: got %d want %d", k, back[k], v)
		}
	}
}
