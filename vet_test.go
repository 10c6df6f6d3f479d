package repro

// TestStaticAnalysisSuite runs the full sofa-vet analyzer suite over the
// module as part of the ordinary test run, so `go test ./...` enforces the
// same invariants CI's static-analysis job does: audited pooled-slice
// callers (retainaudit), guarded fault-injection hooks (faultguard), the
// public API import boundary (importboundary), atomic field discipline
// (atomicfield), sentinel error wrapping at the sofa boundary (senterr),
// and the hot path's escape budget (noheap). These analyzers replaced the
// ad-hoc AST-walk audits that used to live at the repo root; run
// `go run ./cmd/sofa-vet ./...` for the same check from the command line.

import (
	"testing"

	"repro/internal/analysis"
)

func TestStaticAnalysisSuite(t *testing.T) {
	diags, err := analysis.Run(analysis.Suite(), ".", []string{"./..."}, "")
	if err != nil {
		t.Fatalf("static analysis suite failed to run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
