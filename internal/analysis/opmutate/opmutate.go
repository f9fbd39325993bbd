// Package opmutate polices every write to a core.Operation field —
// an assignment, an increment or decrement, or taking the field's
// address, which lets a write hide behind the pointer — and applies
// two rules to each.
//
// The first is the copy-on-write immutability contract: once a pointer
// is published — stored via Put, or handed out by Get/List/Submit —
// the snapshot it refers to must never be written again. A single
// stray field write after a Get is a silent data race that -race only
// catches under the right interleaving; this analyzer catches it at
// lint time.
//
// The analysis is a function-local ownership dataflow. A
// *core.Operation value is "owned" (legal to mutate) only while it is
// provably private to the function:
//
//   - freshly constructed (&core.Operation{...}, new, a dereferenced
//     copy);
//   - returned by Clone, or by a same-package helper all of whose
//     returns are themselves owned (so test factories like mkOp keep
//     working);
//   - the parameter of a function literal passed to a Store.Update
//     call — the store hands that callback a private clone;
//   - an alias, range element, slice element, or append of the above.
//
// Everything else — function parameters, results of Get/List/Submit,
// package-level state — is presumed published, and any write to a
// field through it is flagged. Passing an owned value to Put or
// PutBatch transfers ownership: writes after that call are flagged
// too, even on a value the function built itself. Test files are
// policed too: tests were exactly where in-place mutation of fetched
// snapshots used to hide.
//
// The second rule keeps lifecycle state on the guarded path: Status is
// written only by core's Operation.Transition, the single site that
// checks core.CanTransition before every write. Anywhere else a direct
// write, even to an owned clone, can skip the legality check and
// resurrect a terminal operation. Test files are exempt from this rule
// alone: they fabricate operations in specific lifecycle states.
//
// Package core is exempt from both: it owns the type and its guarded
// Transition site.
package opmutate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"opdaemon/internal/analysis/lintkit"
)

// Analyzer is the opmutate checker.
var Analyzer = &lintkit.Analyzer{
	Name: "opmutate",
	Doc:  "no field writes to published *core.Operation snapshots; Status written only by core's Transition",
	Run:  run,
}

// publishFuncs name the calls that take ownership of their operation
// arguments: mutating after one of these is flagged.
var publishFuncs = map[string]bool{
	"Put":       true,
	"PutBatch":  true,
	"putLocked": true,
}

func run(pass *lintkit.Pass) error {
	if lintkit.IsCorePackage(pass.Pkg.Path()) {
		return nil
	}
	a := &analysis{
		pass:  pass,
		decls: make(map[*types.Func]*ast.FuncDecl),
		owned: make(map[*types.Func]ownedResult),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					a.decls[obj] = fn
				}
			}
		}
	}
	for _, file := range pass.Files {
		testFile := strings.HasSuffix(pass.Fset.Position(file.FileStart).Filename, "_test.go")
		for _, decl := range file.Decls {
			a.checkDecl(decl, testFile)
		}
	}
	return nil
}

// Type predicates for the values the dataflow tracks.

func isOperation(t types.Type) bool {
	return lintkit.TypeName(t) == "Operation" && lintkit.IsCorePackage(lintkit.TypePkgPath(t))
}

func tracked(t types.Type) bool {
	if t == nil {
		return false
	}
	if isOperation(t) {
		return true
	}
	if s, ok := t.Underlying().(*types.Slice); ok {
		return isOperation(s.Elem())
	}
	return false
}

// ownedResult memoizes returnsOwned with an in-progress state so
// recursive helper cycles resolve pessimistically.
type ownedResult int

const (
	computing ownedResult = iota
	notOwned
	owned
)

// analysis is the per-package state.
type analysis struct {
	pass  *lintkit.Pass
	decls map[*types.Func]*ast.FuncDecl
	owned map[*types.Func]ownedResult
}

// funcState is the ownership dataflow for one top-level declaration
// (including its nested literals — captured variables share objects).
type funcState struct {
	a *analysis
	// fixed marks objects whose ownedness never changes: parameters
	// (false) and Update-callback clone parameters (true).
	fixed map[types.Object]bool
	// sources lists the right-hand sides flowing into each tracked
	// local; a local is owned iff every source is.
	sources map[types.Object][]ast.Expr
	// ownedVar is the fixpoint's current verdict per local.
	ownedVar map[types.Object]bool
	// published records where ownership of a local was transferred to
	// the store.
	published map[types.Object]token.Pos
}

// checkDecl runs the dataflow over one top-level declaration — a
// function, or a variable whose function literal writes — and reports
// illegal writes.
func (a *analysis) checkDecl(decl ast.Decl, testFile bool) {
	st := a.analyzeFunc(decl)
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				st.checkWrite(lhs, false, testFile)
			}
		case *ast.IncDecStmt:
			st.checkWrite(n.X, false, testFile)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				st.checkWrite(n.X, true, testFile)
			}
		}
		return true
	})
}

// analyzeFunc builds the ownership state for decl and runs the
// fixpoint.
func (a *analysis) analyzeFunc(decl ast.Decl) *funcState {
	st := &funcState{
		a:         a,
		fixed:     make(map[types.Object]bool),
		sources:   make(map[types.Object][]ast.Expr),
		ownedVar:  make(map[types.Object]bool),
		published: make(map[types.Object]token.Pos),
	}
	info := a.pass.TypesInfo

	// Parameters (and receivers) of the declaration and of nested
	// literals are unowned by default; a literal passed to an Update
	// call gets its clone parameter marked owned instead.
	markParams := func(ft *ast.FuncType, recv *ast.FieldList, ownedParams bool) {
		fields := []*ast.FieldList{ft.Params, recv}
		for _, fl := range fields {
			if fl == nil {
				continue
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					obj := info.Defs[name]
					if obj == nil || !tracked(obj.Type()) {
						continue
					}
					// First marking wins: an Update call marks its
					// callback's clone parameter owned before the
					// literal itself is visited.
					if _, ok := st.fixed[obj]; !ok {
						st.fixed[obj] = ownedParams
					}
				}
			}
		}
	}
	if fn, ok := decl.(*ast.FuncDecl); ok {
		markParams(fn.Type, fn.Recv, false)
	}

	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			markParams(n.Type, nil, false)
		case *ast.CallExpr:
			if isUpdateCall(n) {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						markParams(lit.Type, nil, true)
					}
				}
			}
			st.recordPublish(n)
		case *ast.AssignStmt:
			st.recordAssign(n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				obj := info.Defs[name]
				if obj == nil || !tracked(obj.Type()) {
					continue
				}
				st.ensureLocal(obj)
				if i < len(n.Values) {
					st.sources[obj] = append(st.sources[obj], n.Values[i])
				} else if len(n.Values) == 1 {
					st.sources[obj] = append(st.sources[obj], n.Values[0])
				}
			}
		case *ast.RangeStmt:
			if id, ok := n.Value.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil && tracked(obj.Type()) {
					st.ensureLocal(obj)
					// A range element inherits the slice's ownedness.
					st.sources[obj] = append(st.sources[obj], n.X)
				}
			}
		}
		return true
	})

	// Fixpoint: start optimistic, demote any local with an unowned
	// source until nothing changes. Monotone (owned only ever flips to
	// unowned), so it terminates.
	for obj := range st.sources {
		if _, isFixed := st.fixed[obj]; !isFixed {
			st.ownedVar[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, srcs := range st.sources {
			if _, isFixed := st.fixed[obj]; isFixed || !st.ownedVar[obj] {
				continue
			}
			for _, src := range srcs {
				if !st.ownedExpr(src) {
					st.ownedVar[obj] = false
					changed = true
					break
				}
			}
		}
	}
	return st
}

func (st *funcState) ensureLocal(obj types.Object) {
	if _, ok := st.sources[obj]; !ok {
		st.sources[obj] = nil
	}
}

// recordAssign registers assignment edges into tracked locals, and
// element demotions for stores into tracked slices.
func (st *funcState) recordAssign(n *ast.AssignStmt) {
	info := st.a.pass.TypesInfo
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0] // multi-value call: judge the whole call
		}
		if rhs == nil {
			continue
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			obj := info.Defs[l]
			if obj == nil {
				obj = info.Uses[l]
			}
			if obj != nil && tracked(obj.Type()) {
				st.ensureLocal(obj)
				st.sources[obj] = append(st.sources[obj], rhs)
			}
		case *ast.IndexExpr:
			// s[i] = x: an unowned element poisons the whole slice.
			if id, ok := l.X.(*ast.Ident); ok {
				obj := info.Uses[id]
				if obj != nil && tracked(obj.Type()) {
					st.ensureLocal(obj)
					st.sources[obj] = append(st.sources[obj], rhs)
				}
			}
		}
	}
}

// recordPublish marks operation arguments of Put/PutBatch calls: their
// ownership transfers to the store at that call.
func (st *funcState) recordPublish(call *ast.CallExpr) {
	name := ""
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if !publishFuncs[name] {
		return
	}
	info := st.a.pass.TypesInfo
	for _, arg := range call.Args {
		if id, ok := arg.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && tracked(obj.Type()) {
				if _, ok := st.published[obj]; !ok {
					st.published[obj] = call.Pos()
				}
			}
		}
	}
}

// isUpdateCall reports whether call invokes a method named Update —
// the store's clone-and-publish path, whose callback owns its
// argument.
func isUpdateCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Update"
}

// ownedExpr judges whether the value of e is privately owned.
func (st *funcState) ownedExpr(e ast.Expr) bool {
	info := st.a.pass.TypesInfo
	switch e := e.(type) {
	case *ast.ParenExpr:
		return st.ownedExpr(e.X)
	case *ast.StarExpr:
		// Dereferencing copies the value; the copy is private.
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return st.ownedExpr(e.X)
		}
	case *ast.CompositeLit:
		if isOperation(info.TypeOf(e)) {
			return true
		}
		// A slice literal is owned iff its elements are.
		for _, elt := range e.Elts {
			if !st.ownedExpr(elt) {
				return false
			}
		}
		return true
	case *ast.Ident:
		if e.Name == "nil" {
			return true
		}
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return false
		}
		if fixed, ok := st.fixed[obj]; ok {
			return fixed
		}
		if _, ok := st.sources[obj]; ok {
			return st.ownedVar[obj]
		}
		return false
	case *ast.IndexExpr:
		return st.ownedExpr(e.X)
	case *ast.SliceExpr:
		return st.ownedExpr(e.X)
	case *ast.CallExpr:
		return st.ownedCall(e)
	}
	return false
}

// ownedCall judges call results: builtins that allocate, Clone, and
// same-package helpers whose every return is owned.
func (st *funcState) ownedCall(call *ast.CallExpr) bool {
	info := st.a.pass.TypesInfo
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			switch obj.Name() {
			case "new", "make":
				return true
			case "append":
				for _, arg := range call.Args {
					if !st.ownedExpr(arg) {
						return false
					}
				}
				return true
			}
		case *types.Func:
			return st.a.returnsOwned(obj)
		}
	case *ast.SelectorExpr:
		obj, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return false
		}
		if obj.Name() == "Clone" {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && isOperation(sig.Recv().Type()) {
				return true
			}
		}
		return st.a.returnsOwned(obj)
	}
	return false
}

// returnsOwned reports whether every tracked value fn returns is owned
// inside fn — the property that lets factory helpers construct
// operations for their callers.
func (a *analysis) returnsOwned(fn *types.Func) bool {
	if got, ok := a.owned[fn]; ok {
		return got == owned
	}
	decl, ok := a.decls[fn]
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	anyTracked := false
	for i := 0; i < sig.Results().Len(); i++ {
		if tracked(sig.Results().At(i).Type()) {
			anyTracked = true
		}
	}
	if !anyTracked {
		return false
	}
	a.owned[fn] = computing
	st := a.analyzeFunc(decl)
	verdict := owned
	// Examine only returns belonging to the declaration itself, not to
	// nested literals.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(n.Results) == 0 {
				// Bare return: judge the named result variables.
				for i := 0; i < sig.Results().Len(); i++ {
					res := sig.Results().At(i)
					if tracked(res.Type()) && !st.ownedVar[res] {
						verdict = notOwned
					}
				}
				return true
			}
			for i, res := range n.Results {
				if i < sig.Results().Len() && tracked(sig.Results().At(i).Type()) && !st.ownedExpr(res) {
					verdict = notOwned
				}
			}
		}
		return true
	})
	a.owned[fn] = verdict
	return verdict == owned
}

// checkWrite applies both rules to one write of a field: an
// assignment or inc/dec, or taking its address (addr).
func (st *funcState) checkWrite(lhs ast.Expr, addr, testFile bool) {
	info := st.a.pass.TypesInfo
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	base := ast.Unparen(sel.X)
	if star, ok := base.(*ast.StarExpr); ok {
		base = ast.Unparen(star.X)
	}
	if !isOperation(info.TypeOf(base)) {
		return
	}
	if sel.Sel.Name == "Status" && !testFile {
		if addr {
			st.a.pass.Reportf(sel.Pos(),
				"taking the address of Operation.Status outside core: an aliased write would bypass core.CanTransition")
		} else {
			st.a.pass.Reportf(sel.Pos(),
				"direct write to Operation.Status outside core: route the transition through Operation.Transition so core.CanTransition guards it")
		}
	}
	write := "write to"
	if addr {
		write = "taking the address of"
	}
	if !st.ownedExpr(base) {
		st.a.pass.Reportf(sel.Pos(),
			"%s field %s of a published *core.Operation: snapshots from Get/List/Submit are shared and immutable; mutate the clone inside Store.Update or an owned copy", write, sel.Sel.Name)
		return
	}
	if id, ok := base.(*ast.Ident); ok {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj != nil {
			if pos, ok := st.published[obj]; ok && pos < sel.Pos() {
				st.a.pass.Reportf(sel.Pos(),
					"%s field %s of %s after Put transferred ownership to the store: published snapshots are immutable", write, sel.Sel.Name, id.Name)
			}
		}
	}
}
