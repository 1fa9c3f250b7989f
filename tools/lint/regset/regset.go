// Package regset flags map[ir.Reg]bool register sets in the compile
// pipeline's hot packages. The zero-allocation compile path replaced every
// such set with ir.RegSet — a dense bitset over the compact virtual-register
// index space (Add/Has/Remove/Clear/ForEach/UnionWith) that is reused across
// compiles and costs nothing per element — and this check keeps new code
// from regressing back to the one-heap-map-per-call pattern.
//
// The analyzer fires on any mention of the map[ir.Reg]bool type — make
// calls, composite literals, variable declarations, fields, signatures —
// inside the hot packages: after the zero-allocation refactor there are no
// legitimate remaining uses there, so every mention is either a new
// allocation site or plumbing that will force one. Test files are exempt
// (benchmark baselines and assertion scaffolding may build whatever maps
// they like), and the verify package is deliberately not in the hot set:
// it runs off the compile path and favors the obvious data structure.
//
// The packages in MapFreePkgs are held to a stricter rule: any map keyed by
// ir.Reg is flagged, whatever its value type. The scheduler keeps all its
// per-register state in dense tables indexed by VirtIndex; a map lookup per
// operand was once half of an uncached compile.
package regset

import (
	"go/ast"
	"go/types"
	"strings"

	"prescount/tools/lint/analysis"
)

// Analyzer is the regset check.
var Analyzer = &analysis.Analyzer{
	Name: "regset",
	Doc:  "flag map[ir.Reg]bool register sets in hot compile-pipeline packages (any map[ir.Reg]T in map-free ones); use ir.RegSet or dense tables",
	Run:  run,
}

// HotPkgs lists the import paths on the per-compile hot path, where a
// register set must be an ir.RegSet bitset rather than a heap map.
var HotPkgs = map[string]bool{
	"prescount/internal/liveness": true,
	"prescount/internal/sched":    true,
	"prescount/internal/sdg":      true,
	"prescount/internal/coalesce": true,
	"prescount/internal/conflict": true,
	"prescount/internal/rcg":      true,
	"prescount/internal/regalloc": true,
	"prescount/internal/assign":   true,
}

// MapFreePkgs lists the hot packages where no map may be keyed by ir.Reg.
var MapFreePkgs = map[string]bool{
	"prescount/internal/sched": true,
}

// irPkgPath is the package whose Reg type keys the flagged maps.
const irPkgPath = "prescount/internal/ir"

func run(pass *analysis.Pass) error {
	if !HotPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		if name := pass.Fset.Position(file.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			mt, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			switch key, val := regMapShape(pass, mt); {
			case !key:
			case MapFreePkgs[pass.Pkg.Path()]:
				pass.Reportf(mt.Pos(),
					"map keyed by ir.Reg in map-free package %s: use a dense table indexed by VirtIndex",
					pass.Pkg.Path())
			case val:
				pass.Reportf(mt.Pos(),
					"map[ir.Reg]bool register set in hot package %s: use ir.RegSet (dense bitset, reused across compiles) instead of a per-call heap map",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// regMapShape reports whether the map type is keyed by ir.Reg and whether
// its value is bool, preferring type information and falling back to
// syntax when the expression was not typechecked (e.g. inside a type
// declaration some checkers skip).
func regMapShape(pass *analysis.Pass, mt *ast.MapType) (regKey, boolVal bool) {
	if t := pass.TypesInfo.TypeOf(mt); t != nil {
		m, ok := t.Underlying().(*types.Map)
		if !ok {
			return false, false
		}
		return isIrReg(m.Key()), isBool(m.Elem())
	}
	// Syntactic fallback: key spelled ir.Reg (or any package alias resolving
	// to the ir package), value spelled bool.
	sel, ok := mt.Key.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Reg" {
		return false, false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false, false
	}
	if obj, ok := pass.TypesInfo.Uses[pkgID]; ok {
		pn, ok := obj.(*types.PkgName)
		if !ok || pn.Imported().Path() != irPkgPath {
			return false, false
		}
	} else if pkgID.Name != "ir" {
		return false, false
	}
	val, ok := mt.Value.(*ast.Ident)
	return true, ok && val.Name == "bool"
}

// isIrReg reports whether t is the named type prescount/internal/ir.Reg.
func isIrReg(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Reg" && obj.Pkg() != nil && obj.Pkg().Path() == irPkgPath
}

// isBool reports whether t's underlying type is bool.
func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}
