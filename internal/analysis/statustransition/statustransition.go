// Package statustransition enforces that operation lifecycle state
// only advances through the guarded path: core.Operation.Status may be
// written directly only inside package core, whose
// Operation.Transition method is the single site that checks
// core.CanTransition before every write. Anywhere else a direct write
// can skip the legality check and resurrect a terminal operation, so
// the analyzer flags both assignments to the field and taking its
// address (which would let a write hide behind a pointer).
//
// Test files are exempt: tests fabricate operations in specific
// lifecycle states, and those fixtures are owned values guarded by the
// opmutate analyzer rather than the transition rules.
package statustransition

import (
	"go/ast"
	"strings"

	"opdaemon/internal/analysis/lintkit"
)

// Analyzer is the statustransition checker.
var Analyzer = &lintkit.Analyzer{
	Name: "statustransition",
	Doc:  "Operation.Status writes only in core, via CanTransition-guarded Transition",
	Run:  run,
}

func run(pass *lintkit.Pass) error {
	if lintkit.IsCorePackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.FileStart).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel := statusSelector(pass, lhs); sel != nil {
						pass.Reportf(sel.Pos(),
							"direct write to Operation.Status outside core: route the transition through Operation.Transition so core.CanTransition guards it")
					}
				}
			case *ast.UnaryExpr:
				if n.Op.String() == "&" {
					if sel := statusSelector(pass, n.X); sel != nil {
						pass.Reportf(sel.Pos(),
							"taking the address of Operation.Status outside core: an aliased write would bypass core.CanTransition")
					}
				}
			}
			return true
		})
	}
	return nil
}

// statusSelector returns the selector expression if expr selects the
// Status field of a core.Operation, unwrapping parens and derefs.
func statusSelector(pass *lintkit.Pass, expr ast.Expr) *ast.SelectorExpr {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.StarExpr:
			expr = e.X
			continue
		}
		break
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Status" {
		return nil
	}
	base := pass.TypesInfo.TypeOf(sel.X)
	if base == nil {
		return nil
	}
	if lintkit.TypeName(base) != "Operation" || !lintkit.IsCorePackage(lintkit.TypePkgPath(base)) {
		return nil
	}
	return sel
}
