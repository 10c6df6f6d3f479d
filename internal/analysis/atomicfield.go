package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// AtomicFieldConfig parameterizes the atomic-access discipline check.
type AtomicFieldConfig struct {
	// DeclaredAtomic pins struct fields that MUST be declared with a
	// sync/atomic wrapper type (atomic.Int64, atomic.Uint64, atomic.Bool,
	// ...): the cross-shard best-so-far, split counters, stream ids.
	// Keyed "importpath.Struct.Field". A wrapper type makes every access
	// atomic by construction and self-aligns on 32-bit targets (align64), so
	// demoting one of these to a plain integer is a data race and, on
	// 32-bit, a runtime fault waiting to happen. Missing fields are flagged
	// as stale entries.
	DeclaredAtomic []string
}

// atomicOps maps the raw sync/atomic functions to the index of their
// address-taken argument.
var atomicOps = map[string]int{
	"AddInt32": 0, "AddInt64": 0, "AddUint32": 0, "AddUint64": 0, "AddUintptr": 0,
	"LoadInt32": 0, "LoadInt64": 0, "LoadUint32": 0, "LoadUint64": 0, "LoadUintptr": 0, "LoadPointer": 0,
	"StoreInt32": 0, "StoreInt64": 0, "StoreUint32": 0, "StoreUint64": 0, "StoreUintptr": 0, "StorePointer": 0,
	"SwapInt32": 0, "SwapInt64": 0, "SwapUint32": 0, "SwapUint64": 0, "SwapUintptr": 0, "SwapPointer": 0,
	"CompareAndSwapInt32": 0, "CompareAndSwapInt64": 0, "CompareAndSwapUint32": 0,
	"CompareAndSwapUint64": 0, "CompareAndSwapUintptr": 0, "CompareAndSwapPointer": 0,
}

// sixtyFourBitOps are the raw ops whose operand must be 64-bit aligned even
// on 32-bit targets (the documented sync/atomic bug contract).
var sixtyFourBitOps = map[string]bool{
	"AddInt64": true, "AddUint64": true, "LoadInt64": true, "LoadUint64": true,
	"StoreInt64": true, "StoreUint64": true, "SwapInt64": true, "SwapUint64": true,
	"CompareAndSwapInt64": true, "CompareAndSwapUint64": true,
}

// NewAtomicField builds the atomicfield analyzer. Three invariants:
//
//  1. Every struct field whose address reaches a raw sync/atomic function
//     (atomic.AddInt64(&s.f, ...)) must be accessed atomically EVERYWHERE:
//     any plain read or write of the same field elsewhere in the module is
//     a data race the race detector only catches when the schedule
//     cooperates. (The repo convention is atomic.Int64-style wrapper types,
//     which make mixed access inexpressible; raw ops are how regressions
//     sneak in.)
//  2. A 64-bit field used with raw sync/atomic ops must sit at a 64-bit
//     aligned offset under GOARCH=386 struct layout — the wrapper types
//     guarantee this via align64, raw fields only get it by field-order
//     luck.
//  3. The DeclaredAtomic fields must keep their sync/atomic wrapper types.
func NewAtomicField(cfg AtomicFieldConfig) *Analyzer {
	return &Analyzer{
		Name:      "atomicfield",
		NeedTypes: true,
		Doc: "enforce atomic access discipline: fields touched via raw sync/atomic must be accessed " +
			"atomically everywhere and be 64-bit aligned on 32-bit targets; declared hot fields " +
			"(best-so-far, split counters, stream ids) must keep their atomic wrapper types",
		Run: func(pass *Pass) error {
			// Pass 1: collect every field object reaching a raw atomic op,
			// and check 32-bit alignment for the 64-bit ops.
			type fieldUse struct {
				pkg  *Package
				node ast.Node
			}
			atomicFields := map[*types.Var][]fieldUse{}
			for _, pkg := range pass.Packages {
				if pkg.Info == nil {
					continue
				}
				for _, file := range pkg.Files {
					ast.Inspect(file, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						name, ok := rawAtomicCall(pkg.Info, call)
						if !ok || len(call.Args) <= atomicOps[name] {
							return true
						}
						fv := addressedField(pkg.Info, call.Args[atomicOps[name]])
						if fv == nil {
							return true
						}
						atomicFields[fv] = append(atomicFields[fv], fieldUse{pkg, call})
						if sixtyFourBitOps[name] {
							checkAlign386(pass, pkg, call, fv)
						}
						return true
					})
				}
			}

			// Pass 2: any plain (non-atomic) selector access to one of those
			// fields, anywhere in the module, is a mixed-access hazard.
			for _, pkg := range pass.Packages {
				if pkg.Info == nil {
					continue
				}
				for _, file := range pkg.Files {
					// Mark the selector expressions consumed by atomic calls
					// in this file so they are not re-flagged as plain uses.
					atomicArgs := map[ast.Node]bool{}
					ast.Inspect(file, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if name, ok := rawAtomicCall(pkg.Info, call); ok && len(call.Args) > atomicOps[name] {
							if sel := addressedSelector(call.Args[atomicOps[name]]); sel != nil {
								atomicArgs[sel] = true
							}
						}
						return true
					})
					ast.Inspect(file, func(n ast.Node) bool {
						sel, ok := n.(*ast.SelectorExpr)
						if !ok || atomicArgs[sel] {
							return true
						}
						selection, ok := pkg.Info.Selections[sel]
						if !ok || selection.Kind() != types.FieldVal {
							return true
						}
						fv, ok := selection.Obj().(*types.Var)
						if !ok {
							return true
						}
						if _, isAtomic := atomicFields[fv]; isAtomic {
							pass.ReportNodef(pkg, sel, "plain access to %s.%s, a field accessed via sync/atomic elsewhere — every read and write must go through sync/atomic (prefer migrating the field to an atomic.%s wrapper type)",
								fieldOwner(fv), fv.Name(), wrapperFor(fv.Type()))
						}
						return true
					})
				}
			}

			// Pass 3: declared hot fields keep their wrapper types.
			checkDeclaredAtomic(pass, cfg.DeclaredAtomic)
			return nil
		},
	}
}

// rawAtomicCall reports whether call is a direct sync/atomic function call
// (not a wrapper-type method), returning the function name.
func rawAtomicCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, known := atomicOps[sel.Sel.Name]; !known {
		return "", false
	}
	obj, ok := info.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	if _, isFunc := obj.(*types.Func); !isFunc {
		return "", false
	}
	return sel.Sel.Name, true
}

// addressedSelector unwraps &expr down to a field selector, or nil.
func addressedSelector(e ast.Expr) *ast.SelectorExpr {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok {
		return nil
	}
	sel, _ := ast.Unparen(u.X).(*ast.SelectorExpr)
	return sel
}

// addressedField resolves &x.f to the field's types.Var, or nil when the
// operand is not an addressed struct field.
func addressedField(info *types.Info, e ast.Expr) *types.Var {
	sel := addressedSelector(e)
	if sel == nil {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	fv, _ := selection.Obj().(*types.Var)
	return fv
}

// checkAlign386 verifies the field sits at an 8-byte-aligned offset within
// its immediate struct under GOARCH=386 layout. Offset 0 additionally relies
// on the allocation guarantee (the first word of an allocated struct is
// 64-bit aligned), which holds for heap/global structs — the discipline the
// sync/atomic bug note demands.
func checkAlign386(pass *Pass, pkg *Package, at ast.Node, fv *types.Var) {
	owner := owningStruct(fv)
	if owner == nil {
		return
	}
	sizes := types.SizesFor("gc", "386")
	var fields []*types.Var
	idx := -1
	for i := 0; i < owner.NumFields(); i++ {
		fields = append(fields, owner.Field(i))
		if owner.Field(i) == fv {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	off := sizes.Offsetsof(fields)[idx]
	if off%8 != 0 {
		pass.ReportNodef(pkg, at, "64-bit atomic field %s.%s is at offset %d under GOARCH=386 (must be 8-byte aligned): reorder it to the front of the struct or use an atomic.%s wrapper (self-aligning via align64)",
			fieldOwner(fv), fv.Name(), off, wrapperFor(fv.Type()))
	}
}

// owningStruct finds the struct type that declares fv, by scanning the named
// types of fv's package (a types.Var does not link back to its struct).
func owningStruct(fv *types.Var) *types.Struct {
	if fv.Pkg() == nil {
		return nil
	}
	scope := fv.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fv {
				return st
			}
		}
	}
	return nil
}

// fieldOwner names the struct declaring fv, for diagnostics; falls back to
// the package path when the struct is unnamed or local.
func fieldOwner(fv *types.Var) string {
	if fv.Pkg() == nil {
		return "?"
	}
	scope := fv.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fv {
				return tn.Name()
			}
		}
	}
	return fv.Pkg().Path()
}

// wrapperFor suggests the sync/atomic wrapper type for a plain integer type.
func wrapperFor(t types.Type) string {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return "Value"
	}
	switch b.Kind() {
	case types.Int32:
		return "Int32"
	case types.Int64, types.Int:
		return "Int64"
	case types.Uint32:
		return "Uint32"
	case types.Uint64, types.Uint:
		return "Uint64"
	case types.Uintptr:
		return "Uintptr"
	case types.Bool:
		return "Bool"
	}
	return "Value"
}

// checkDeclaredAtomic verifies each "path.Struct.Field" entry names an
// existing field declared with a sync/atomic wrapper type.
func checkDeclaredAtomic(pass *Pass, declared []string) {
	byPath := map[string]*Package{}
	for _, pkg := range pass.Packages {
		byPath[pkg.Path] = pkg
	}
	entries := append([]string(nil), declared...)
	sort.Strings(entries)
	for _, entry := range entries {
		i := strings.LastIndex(entry, ".")
		j := strings.LastIndex(entry[:max(i, 0)], ".")
		if i < 0 || j < 0 {
			pass.ReportModulef("malformed atomicfield DeclaredAtomic entry %q (want importpath.Struct.Field)", entry)
			continue
		}
		pkgPath, structName, fieldName := entry[:j], entry[j+1:i], entry[i+1:]
		pkg := byPath[pkgPath]
		if pkg == nil || pkg.Types == nil {
			pass.ReportModulef("stale atomicfield entry %s: package %s not loaded", entry, pkgPath)
			continue
		}
		obj := pkg.Types.Scope().Lookup(structName)
		if obj == nil {
			pass.ReportModulef("stale atomicfield entry %s: type %s gone from %s", entry, structName, pkgPath)
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			pass.ReportModulef("stale atomicfield entry %s: %s.%s is not a struct", entry, pkgPath, structName)
			continue
		}
		var field *types.Var
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == fieldName {
				field = st.Field(i)
			}
		}
		if field == nil {
			pass.ReportModulef("stale atomicfield entry %s: field %s gone from %s.%s", entry, fieldName, pkgPath, structName)
			continue
		}
		if !isAtomicWrapper(field.Type()) {
			pass.Reportf(pkg.Fset.Position(field.Pos()), "%s.%s.%s must be a sync/atomic wrapper type (got %s): this field is concurrently accessed by searcher goroutines and a plain type makes non-atomic access expressible",
				pkgPath, structName, fieldName, field.Type())
		}
	}
}

func isAtomicWrapper(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// DefaultAtomicFieldConfig pins the repo's concurrently-updated hot fields:
// the cross-shard best-so-far bound, the split counter the persistence
// guarantees pin, and the stream engine's query-id counter.
func DefaultAtomicFieldConfig() AtomicFieldConfig {
	return AtomicFieldConfig{
		DeclaredAtomic: []string{
			"repro/internal/index.KNNCollector.bound",
			"repro/internal/index.Tree.splits",
			"repro/internal/core.Stream.nextID",
		},
	}
}
