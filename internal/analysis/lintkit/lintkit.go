// Package lintkit is the project's miniature analysis framework: the
// subset of golang.org/x/tools/go/analysis that the opdaemonlint
// analyzers need, implemented on the standard library alone so the
// suite builds in offline sandboxes where x/tools cannot be fetched.
// The Analyzer/Pass/Diagnostic surface deliberately mirrors the
// upstream API, so if the dependency ever becomes available the
// analyzers port by changing one import.
//
// On top of the upstream subset it bakes in the project's suppression
// convention: a comment of the form
//
//	//lint:allow opdaemon/<analyzer> <justification>
//
// silences that analyzer's diagnostics on the comment's own line and on
// the line immediately below it (so the directive works both as a
// trailing comment and on its own line above the flagged statement).
// The justification text is mandatory — a bare directive is itself
// reported — because every exemption from a machine-checked invariant
// must say why it is safe.
//
// It also holds what more than one analyzer must answer alike: Blocking,
// the suite's one answer to "can this node block?".
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker: a name (used in
// diagnostics and suppression directives), human-readable
// documentation, and the function that inspects one package.
type Analyzer struct {
	// Name identifies the analyzer; diagnostics print it as
	// opdaemon/<Name> and suppression directives reference it the same
	// way.
	Name string
	// Doc describes the invariant the analyzer enforces.
	Doc string
	// Run inspects one type-checked package, reporting findings
	// through the pass. The returned error aborts the whole lint run
	// (an analyzer bug), not just this package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with one package's syntax and type
// information, mirroring analysis.Pass.
type Pass struct {
	// Analyzer is the checker this pass belongs to.
	Analyzer *Analyzer
	// Fset maps token positions for every file in the package.
	Fset *token.FileSet
	// Files is the package's parsed syntax, including test files when
	// the loader ran in test mode.
	Files []*ast.File
	// Pkg is the package's type information.
	Pkg *types.Package
	// TypesInfo holds the type-checker's maps for the package syntax.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	// Analyzer names the checker that produced the finding.
	Analyzer string
	// Pos locates the offending syntax.
	Pos token.Position
	// Message states the violation.
	Message string
}

// String renders the diagnostic in the conventional
// file:line:col: message (tool/analyzer) shape.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (opdaemon/%s)", d.Pos, d.Message, d.Analyzer)
}

// suppressDirective matches the project's suppression comment. The
// justification group is what makes a directive legal; see the package
// comment.
var suppressDirective = regexp.MustCompile(`^//lint:allow opdaemon/([A-Za-z0-9_-]+)(.*)$`)

// suppressions indexes one package's directives: file name → line →
// set of suppressed analyzer names.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) add(file string, line int, name string) {
	byLine, ok := s[file]
	if !ok {
		byLine = make(map[int]map[string]bool)
		s[file] = byLine
	}
	for _, l := range []int{line, line + 1} {
		if byLine[l] == nil {
			byLine[l] = make(map[string]bool)
		}
		byLine[l][name] = true
	}
}

func (s suppressions) covers(d Diagnostic) bool {
	return s[d.Pos.Filename][d.Pos.Line][d.Analyzer]
}

// collectSuppressions scans a package's comments for directives,
// reporting malformed ones (missing justification) through report.
func collectSuppressions(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) suppressions {
	sup := make(suppressions)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					report(Diagnostic{
						Analyzer: "lintkit",
						Pos:      pos,
						Message:  fmt.Sprintf("suppression of opdaemon/%s has no justification; say why the site is exempt", m[1]),
					})
					continue
				}
				sup.add(pos.Filename, pos.Line, m[1])
			}
		}
	}
	return sup
}

// Run executes every analyzer over every package, applies suppression
// directives, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		report := func(d Diagnostic) { diags = append(diags, d) }
		sup := collectSuppressions(pkg.Fset, pkg.Files, report)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				report: func(d Diagnostic) {
					if !sup.covers(d) {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// TypeName returns the name of the named (or pointer-to-named) type, or
// "" when t is neither. Analyzers use it to recognise project types
// structurally without importing the packages they police.
func TypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// TypePkgPath returns the import path of the package that defines the
// named (or pointer-to-named) type, or "".
func TypePkgPath(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if p := named.Obj().Pkg(); p != nil {
		return p.Path()
	}
	return ""
}

// CondWait is what Blocking returns for a sync.Cond.Wait call, the one
// blocker that releases a lock while it waits.
const CondWait = "sync.Cond.Wait"

// Blocking answers the suite's one question about waiting: can n block
// the goroutine that runs it? It returns what blocks — a channel send
// or receive, a select with no default, a range over a channel,
// time.Sleep, sync.WaitGroup.Wait or sync.Cond.Wait — or "" when n
// cannot. It judges n alone, not its children or callees. A select's
// comm clauses belong to the select: a walker asks about the select and
// skips the clauses' Comm statements, so a select with a default (a
// poll) blocks nowhere.
func Blocking(info *types.Info, n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.SelectStmt:
		for _, clause := range n.Body.List {
			if clause.(*ast.CommClause).Comm == nil {
				return ""
			}
		}
		return "select with no default"
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel"
			}
		}
	case *ast.CallExpr:
		sel, ok := n.Fun.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		obj := info.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		switch {
		case obj.Pkg().Path() == "time" && obj.Name() == "Sleep":
			return "time.Sleep"
		case obj.Pkg().Path() == "sync" && obj.Name() == "Wait":
			switch TypeName(info.TypeOf(sel.X)) {
			case "WaitGroup":
				return "sync.WaitGroup.Wait"
			case "Cond":
				return CondWait
			}
		}
	}
	return ""
}

// IsCorePackage reports whether path is the core domain package (or a
// fixture standing in for it).
func IsCorePackage(path string) bool {
	return path == "core" || strings.HasSuffix(path, "internal/core")
}
