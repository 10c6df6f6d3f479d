// Command sofa-vet is the repo's static-analysis multichecker: it runs the
// invariant suite in internal/analysis (retainaudit, faultguard,
// importboundary, atomicfield, senterr, noheap) plus the stdlib `go vet`
// passes over the module, and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/sofa-vet ./...                  # full suite, default build
//	go run ./cmd/sofa-vet -tags noasm ./...      # portable-kernel configuration
//	go run ./cmd/sofa-vet -update-escape-budget  # accept current escapes as the budget
//	go run ./cmd/sofa-vet -release-scan BIN      # prove BIN carries no faultinject traces
//	go run ./cmd/sofa-vet -list                  # describe the analyzers
//
// The noheap analyzer gates the escape budget of the query hot path. There is
// one budget, internal/analysis/testdata/escape_budget.txt, and both the
// default and the noasm configuration are checked against it. When an
// allocation is intentional, regenerate it with -update-escape-budget, check
// that `-tags noasm ./...` still passes, and commit the file with the change
// that introduced the allocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	var (
		tags         = flag.String("tags", "", "build tags for the analyzed configuration (e.g. noasm, faultinject)")
		list         = flag.Bool("list", false, "describe the registered analyzers and exit")
		noVet        = flag.Bool("novet", false, "skip the stdlib go vet passes")
		updateBudget = flag.Bool("update-escape-budget", false, "regenerate the noheap escape budget from the selected tags' build and exit")
		releaseScan  = flag.String("release-scan", "", "scan the given release binary for fault-injection residue and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	moduleDir, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}

	if *releaseScan != "" {
		findings, err := analysis.ReleaseScan(*releaseScan)
		if err != nil {
			fatal(err)
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "sofa-vet: release binary %s carries fault-injection residue (%d findings)\n", *releaseScan, len(findings))
			os.Exit(1)
		}
		fmt.Printf("sofa-vet: %s is clean (no faultinject symbols or site names)\n", *releaseScan)
		return
	}

	if *updateBudget {
		cfg := analysis.DefaultNoHeapConfig()
		report, err := analysis.EscapeReport(moduleDir, cfg.Packages, *tags)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(moduleDir, filepath.FromSlash(cfg.BudgetFile))
		if err := os.WriteFile(path, []byte(analysis.FormatBudget(report)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("sofa-vet: wrote %d budget entries to %s\n", len(report), cfg.BudgetFile)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := analysis.Run(analysis.Suite(), moduleDir, patterns, *tags)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}

	vetFailed := false
	if !*noVet {
		args := []string{"vet"}
		if *tags != "" {
			args = append(args, "-tags", *tags)
		}
		args = append(args, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Dir = moduleDir
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			vetFailed = true
		}
	}

	if len(diags) > 0 || vetFailed {
		fmt.Fprintf(os.Stderr, "sofa-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to go.mod, so sofa-vet
// works from any subdirectory of the repo.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sofa-vet:", err)
	os.Exit(1)
}
