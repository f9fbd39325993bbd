// Package ctxdiscipline enforces the daemon's context-threading
// contract:
//
//  1. context.Background and context.TODO are reserved for binaries
//     (cmd/ packages) and tests. Library code must thread the caller's
//     context so cancellation and deadlines propagate; a fresh root in
//     the middle of the stack silently detaches everything below it.
//  2. An exported library function whose body can block — a channel
//     send or receive, a select with no default, ranging over a
//     channel, time.Sleep, or a sync.WaitGroup/sync.Cond Wait — must
//     take a context.Context as its first parameter, so callers can
//     always bound the wait.
//
// Blocking detection is deliberately syntactic and local: it asks
// lintkit.Blocking, the suite's one blocking classifier, about each
// node of the function's own body (not transitive callees, and not
// nested function literals, which typically run on other goroutines).
// Operations that cannot block are exempt — a send or receive inside a
// select that has a default case is a try-operation, and close(ch)
// never blocks.
package ctxdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"opdaemon/internal/analysis/lintkit"
)

// Analyzer is the ctxdiscipline checker.
var Analyzer = &lintkit.Analyzer{
	Name: "ctxdiscipline",
	Doc:  "context roots only in cmd/ and tests; exported blocking functions take ctx first",
	Run:  run,
}

func run(pass *lintkit.Pass) error {
	if isCommandPackage(pass.Pkg) {
		return nil
	}
	for _, file := range pass.Files {
		// Tests are entry points, like main: they own their lifetime,
		// fabricate contexts freely, and block on the code under test.
		if strings.HasSuffix(pass.Fset.Position(file.FileStart).Filename, "_test.go") {
			continue
		}
		checkContextRoots(pass, file)
		checkExportedBlockers(pass, file)
	}
	return nil
}

// isCommandPackage reports whether the package is a binary, where
// creating root contexts is the whole point.
func isCommandPackage(pkg *types.Package) bool {
	if pkg.Name() == "main" {
		return true
	}
	path := pkg.Path()
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}

// checkContextRoots flags context.Background and context.TODO calls.
func checkContextRoots(pass *lintkit.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[sel.Sel]
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			return true
		}
		if name := obj.Name(); name == "Background" || name == "TODO" {
			pass.Reportf(call.Pos(),
				"context.%s outside cmd/ and tests: thread the caller's context instead of detaching a new root", name)
		}
		return true
	})
}

// checkExportedBlockers flags exported functions that block without
// taking a leading context.Context.
func checkExportedBlockers(pass *lintkit.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !fn.Name.IsExported() {
			continue
		}
		if takesContextFirst(pass, fn) {
			continue
		}
		if why := firstBlockingOp(pass, fn.Body); why != "" {
			pass.Reportf(fn.Name.Pos(),
				"exported %s blocks (%s) but does not take a context.Context as its first parameter", fn.Name.Name, why)
		}
	}
}

// takesContextFirst reports whether the function's first parameter is a
// context.Context.
func takesContextFirst(pass *lintkit.Pass, fn *ast.FuncDecl) bool {
	params := fn.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(params.List[0].Type)
	return t != nil && t.String() == "context.Context"
}

// firstBlockingOp returns a description of the first potentially
// blocking operation directly inside body, or "" if there is none.
// Nested function literals are skipped: their bodies run when (and on
// whichever goroutine) the literal is invoked.
func firstBlockingOp(pass *lintkit.Pass, body *ast.BlockStmt) string {
	found := ""
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if found = lintkit.Blocking(pass.TypesInfo, n); found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CommClause:
			// The comm operation is the select's; only the clause body
			// is this function's own code.
			for _, s := range n.Body {
				ast.Inspect(s, visit)
			}
			return false
		}
		return true
	}
	ast.Inspect(body, visit)
	return found
}
