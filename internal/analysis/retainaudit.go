package analysis

import (
	"go/ast"
	"sort"
)

// RetainConfig parameterizes the pooled-slice retention audit.
type RetainConfig struct {
	// OwnedSliceAPIs are the method names whose results alias
	// caller-invisible pooled buffers (or, for NewStream, register callbacks
	// that receive them). Matching is by selector name — deliberately
	// over-inclusive: auditing a fresh-slice Search costs one allowlist line
	// and catches contract drift.
	OwnedSliceAPIs map[string]bool
	// AuditedCallers maps module-relative file -> method -> justification.
	// Every entry has been read by a human; the justification records why
	// that call site cannot retain a searcher-owned slice across queries.
	AuditedCallers map[string]map[string]string
}

// NewRetainAudit builds the retainaudit analyzer: every call site of an
// owned-slice API must appear in the audited allowlist, and every allowlist
// entry must still have a live call site (a stale entry claims coverage of
// code that no longer exists). Migrated from the repo-root
// TestPooledSliceRetentionAudit AST walk.
func NewRetainAudit(cfg RetainConfig) *Analyzer {
	return &Analyzer{
		Name: "retainaudit",
		Doc: "flag unaudited callers of pooled-slice APIs (Search*/SearchPlan/SearchInto/NewStream): " +
			"their results alias buffers overwritten by the next query, so each call site is read by a " +
			"human once and pinned in the allowlist with a justification; stale entries are flagged too",
		Run: func(pass *Pass) error {
			found := map[string]map[string]bool{}
			for _, pkg := range pass.Packages {
				for i, file := range pkg.Files {
					rel := pkg.FileNames[i]
					ast.Inspect(file, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						sel, ok := call.Fun.(*ast.SelectorExpr)
						if !ok || !cfg.OwnedSliceAPIs[sel.Sel.Name] {
							return true
						}
						if found[rel] == nil {
							found[rel] = map[string]bool{}
						}
						found[rel][sel.Sel.Name] = true
						if cfg.AuditedCallers[rel][sel.Sel.Name] == "" {
							pass.ReportNodef(pkg, call, "unaudited caller of %s: searcher-owned/callback-scoped slices must not be retained across queries; audit the call site and add %s:%s to the retainaudit allowlist with a justification",
								sel.Sel.Name, rel, sel.Sel.Name)
						}
						return true
					})
				}
			}
			var stale []string
			for file, methods := range cfg.AuditedCallers {
				for m := range methods {
					if !found[file][m] {
						stale = append(stale, file+":"+m)
					}
				}
			}
			sort.Strings(stale)
			for _, s := range stale {
				pass.ReportModulef("stale retainaudit allowlist entry %s (call site gone); remove it", s)
			}
			return nil
		},
	}
}

// DefaultRetainConfig is the repo's audited allowlist, carried over from
// retention_audit_test.go entry for entry.
func DefaultRetainConfig() RetainConfig {
	return RetainConfig{
		OwnedSliceAPIs: map[string]bool{
			"Search":            true,
			"Search1":           true, // returns a value, but callers often switch to Search
			"SearchApproximate": true,
			"SearchEpsilon":     true,
			"SearchPlan":        true, // appends into caller dst — worker-owned when dst is pooled scratch
			"SearchInto":        true, // public escape hatch: results overwritten by the next call with the same buf
			"NewStream":         true, // callback res slices are worker-owned
		},
		AuditedCallers: map[string]map[string]string{
			"cmd/sofa-query/main.go": {
				"SearchInto": "public sofa API; prints each result batch before the next call reuses buf",
				"NewStream":  "public sofa API; callback prints res inline, nothing escapes the callback",
			},
			"examples/quickstart/main.go": {
				"Search": "public sofa.Search: results are caller-owned copies",
			},
			"examples/seismic/main.go": {
				"Search1":    "scan baseline value result (index.Result), no slice to retain",
				"SearchInto": "public sofa API; buf[0].Dist scalar extracted before the next call",
			},
			"examples/vectors/main.go": {
				"Search":     "public sofa.Search: results are caller-owned copies",
				"SearchInto": "public sofa API; printed/validated inside the loop before the next call reuses buf",
			},
			"internal/bench/approx_experiment.go": {
				"Search":            "extracts r[0].Dist scalar only",
				"SearchApproximate": "extracts r[0].Dist scalar only",
				"SearchEpsilon":     "extracts r[0].Dist scalar only",
			},
			"internal/bench/bench.go": {
				"Search": "timeTreeQueries/timeScanQueries discard results (latency only)",
			},
			"internal/bench/churn_experiment.go": {
				"Search": "churnQPS discards results (throughput only)",
			},
			"internal/bench/chaos_experiment.go": {
				"SearchPlan": "dst=nil (fresh slice per query); ids are counted into coverage before the searcher's next query",
			},
			"internal/bench/qps_experiment.go": {
				"NewStream": "callback only counts completions; res never escapes",
			},
			"internal/bench/report.go": {
				"Search": "searchSteadyStateAllocs discards results (alloc count only)",
			},
			"internal/core/search.go": {
				"Search":     "Search1 extracts res[0]",
				"SearchPlan": "searchOwned appends into the searcher's own resBuf and forwards the documented owned-slice contract; batchQuery passes dst=nil, so each query's results are freshly allocated and caller-owned",
			},
			"internal/core/core.go": {
				"NewStream": "doc example in package comment context; Index.NewStream forwards the callback-scoped contract",
			},
			"sofa/query.go": {
				"SearchPlan": "dst is nil (Search: fresh caller-owned slice) or the caller's own buf (SearchInto) — never searcher scratch; see TestSofaPublicOwnership",
			},
			"sofa/stream.go": {
				"NewStream": "public wrapper forwarding the documented callback-scoped contract",
			},
			"internal/index/search.go": {
				"Search": "Search1 extracts res[0] before returning",
			},
			"internal/scan/scan.go": {
				"Search": "Search1 extracts res[0]; scanner results are freshly collected per call",
			},
		},
	}
}
