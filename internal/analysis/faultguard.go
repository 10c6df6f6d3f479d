package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// FaultGuardConfig parameterizes the fault-injection hook audit.
type FaultGuardConfig struct {
	// HookSites maps module-relative file -> the Site* constants its
	// faultinject.Hook calls are allowed to use. The hook surface is a
	// closed, human-audited set.
	HookSites map[string]map[string]bool
	// ExemptDirs are module-relative package directories whose Hook calls
	// are not audited (the faultinject package itself, which defines Hook).
	ExemptDirs map[string]bool
}

// NewFaultGuard builds the faultguard analyzer: every faultinject.Hook call
// must (1) pass a faultinject.Site* selector constant — never a string
// literal or variable, so the schedule space stays enumerable and Arm's
// validation stays exact — (2) appear at a file/site pair in the audited
// allowlist, and (3) sit lexically inside an `if faultinject.Enabled` guard
// so the release build (where Enabled is a false constant)
// dead-code-eliminates the entire harness. Stale allowlist entries are
// flagged. Migrated from the repo-root TestFaultinjectHookAudit AST walk.
func NewFaultGuard(cfg FaultGuardConfig) *Analyzer {
	return &Analyzer{
		Name: "faultguard",
		Doc: "require every faultinject.Hook call to use a declared Site* constant, inside an " +
			"`if faultinject.Enabled` guard, at a human-audited file/site pair — the contract that lets " +
			"release builds dead-code-eliminate the whole injection harness",
		Run: func(pass *Pass) error {
			found := map[string]map[string]bool{}
			for _, pkg := range pass.Packages {
				if cfg.ExemptDirs[pkg.RelDir] {
					continue
				}
				for i, file := range pkg.Files {
					rel := pkg.FileNames[i]
					// Collect the body ranges of every `if faultinject.Enabled`
					// guard (including `if faultinject.Enabled && ...`), then
					// require each Hook call to fall inside one.
					var guards [][2]token.Pos
					ast.Inspect(file, func(n ast.Node) bool {
						ifs, ok := n.(*ast.IfStmt)
						if !ok {
							return true
						}
						cond := ifs.Cond
						if b, ok := cond.(*ast.BinaryExpr); ok && b.Op == token.LAND {
							cond = b.X
						}
						if isPkgSelector(cond, "faultinject", "Enabled") {
							guards = append(guards, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
						}
						return true
					})
					ast.Inspect(file, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok || !isPkgSelector(call.Fun, "faultinject", "Hook") {
							return true
						}
						site := ""
						if len(call.Args) == 1 {
							if sel, ok := call.Args[0].(*ast.SelectorExpr); ok {
								if id, ok := sel.X.(*ast.Ident); ok && id.Name == "faultinject" && strings.HasPrefix(sel.Sel.Name, "Site") {
									site = sel.Sel.Name
								}
							}
						}
						if site == "" {
							pass.ReportNodef(pkg, call, "faultinject.Hook argument must be a faultinject.Site* constant")
							return true
						}
						guarded := false
						for _, g := range guards {
							if call.Pos() >= g[0] && call.End() <= g[1] {
								guarded = true
								break
							}
						}
						if !guarded {
							pass.ReportNodef(pkg, call, "faultinject.Hook(%s) is not inside an `if faultinject.Enabled` guard — the release build would keep the call", site)
						}
						if found[rel] == nil {
							found[rel] = map[string]bool{}
						}
						found[rel][site] = true
						if !cfg.HookSites[rel][site] {
							pass.ReportNodef(pkg, call, "unaudited fault-injection hook: %s fires %s — read the call site and add it to the faultguard allowlist", rel, site)
						}
						return true
					})
				}
			}
			var stale []string
			for file, sites := range cfg.HookSites {
				for s := range sites {
					if !found[file][s] {
						stale = append(stale, file+":"+s)
					}
				}
			}
			sort.Strings(stale)
			for _, s := range stale {
				pass.ReportModulef("stale faultguard hook allowlist entry %s (call site gone); remove it", s)
			}
			return nil
		},
	}
}

// isPkgSelector reports whether e is the selector `pkg.name` with a bare
// package identifier (syntactic: matches how the audited call sites are
// written; the guarded packages all import faultinject unrenamed).
func isPkgSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// DefaultFaultGuardConfig is the repo's audited hook surface, carried over
// from the TestFaultinjectHookAudit allowlist entry for entry.
func DefaultFaultGuardConfig() FaultGuardConfig {
	return FaultGuardConfig{
		HookSites: map[string]map[string]bool{
			"internal/core/collection.go": {"SiteTombstone": true, "SiteCompactSwap": true},
			"internal/core/persist.go":    {"SitePersistRead": true, "SitePersistWrite": true, "SiteCheckpointRename": true},
			"internal/core/search.go":     {"SiteQueryWorker": true},
			"internal/core/stream.go":     {"SiteStreamSubmit": true},
			"internal/core/wal.go":        {"SiteWALAppend": true, "SiteWALSync": true},
			"internal/index/approx.go":    {"SiteKernel": true},
			"internal/index/shard.go":     {"SiteShardSeed": true, "SiteShardFinish": true, "SiteKernel": true},
		},
		ExemptDirs: map[string]bool{"internal/faultinject": true},
	}
}
