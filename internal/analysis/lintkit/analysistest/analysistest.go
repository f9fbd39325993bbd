// Package analysistest runs a lintkit analyzer over GOPATH-layout
// fixture packages and checks its diagnostics against // want
// comments, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture tree lives under an analyzer's testdata directory in
// classic GOPATH shape — testdata/src/<importpath>/*.go — and is
// loaded with GO111MODULE=off so the fixture packages resolve by
// directory, never touching the network or the surrounding module.
//
// Expectations are trailing comments on the line the diagnostic must
// land on:
//
//	op.Status = done // want `direct write to Operation\.Status`
//
// Each quoted string is a regular expression matched against the
// diagnostic message; every diagnostic must be matched by a want on
// its line and every want must match a diagnostic. Suppression
// directives are honoured before matching, so a fixture line carrying
// //lint:allow and no want asserts the suppression works.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"opdaemon/internal/analysis/lintkit"
)

// want is one expectation: a compiled message pattern at a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture packages named by patterns from
// testdata/src/<pattern>, applies the analyzer, and reports any
// mismatch between diagnostics and // want comments through t.
func Run(t *testing.T, testdata string, a *lintkit.Analyzer, patterns ...string) {
	t.Helper()
	abs, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatalf("resolving testdata dir: %v", err)
	}
	pkgs, err := lintkit.Load(lintkit.LoadConfig{
		Dir: abs,
		Env: []string{
			"GO111MODULE=off",
			"GOPATH=" + abs,
			"GOFLAGS=",
			"GOWORK=off",
			"GOPROXY=off",
		},
	}, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := lintkit.Run(pkgs, []*lintkit.Analyzer{a})
	if err != nil {
		t.Fatalf("running analyzer: %v", err)
	}

	var wants []*want
	for _, pkg := range pkgs {
		ws, err := parseWants(pkg.Fset, pkg)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, ws...)
	}

	for _, d := range diags {
		if w := matchWant(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

func matchWant(wants []*want, d lintkit.Diagnostic) *want {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			return w
		}
	}
	return nil
}

// parseWants extracts the // want expectations from a fixture
// package's comments.
func parseWants(fset *token.FileSet, pkg *lintkit.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				patterns, err := parsePatterns(strings.TrimSpace(text))
				if err != nil {
					return nil, fmt.Errorf("%s: malformed want comment: %v", pos, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s: want pattern %q: %v", pos, p, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: p})
				}
			}
		}
	}
	return wants, nil
}

// parsePatterns splits a want payload into its quoted (or backquoted)
// regular expressions.
func parsePatterns(s string) ([]string, error) {
	var out []string
	for s != "" {
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return nil, fmt.Errorf("expected quoted pattern at %q", s)
		}
		p, err := strconv.Unquote(q)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		s = strings.TrimSpace(s[len(q):])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return out, nil
}
