package lintkit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked target for the analyzers.
type Package struct {
	// ImportPath is the package's import path. For a test variant
	// ("pkg [pkg.test]") this is the underlying package's path.
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir string
	// GoFiles are the compiled file names, relative to Dir. In test
	// mode the package-under-test variant also includes its _test.go
	// files.
	GoFiles []string
	// Fset, Files, Types, TypesInfo mirror the fields of
	// lintkit.Pass; see there.
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// LoadConfig tunes Load.
type LoadConfig struct {
	// Dir is the working directory for the `go list` invocation; empty
	// means the current directory.
	Dir string
	// Env entries are appended to the current environment (so fixture
	// loads can force GOPATH mode).
	Env []string
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	ForTest    string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	DepOnly    bool
	Standard   bool
}

// Load resolves patterns to packages, test variants included, and
// type-checks each from source.
//
// It shells out to `go list -export -deps -test`, which compiles export data
// for every dependency, then parses and type-checks only the matched
// packages using the gc importer over that export data — the same
// split a `go vet` unitchecker uses, with `go list` standing in for
// the vet driver. The scheme needs no module downloads, so it works in
// offline sandboxes as long as the packages themselves build.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	args := []string{
		"list",
		"-json=Dir,ImportPath,ForTest,Export,GoFiles,CgoFiles,ImportMap,DepOnly,Standard",
		"-export", "-deps", "-test",
	}
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Env = append(os.Environ(), cfg.Env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var listed []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		listed = append(listed, p)
	}

	// In test mode a matched package appears twice: plain, and as the
	// "pkg [pkg.test]" variant whose file set is a superset (sources
	// plus _test.go files). Analyze only the variant so diagnostics on
	// shared files are not reported twice.
	hasTestVariant := make(map[string]bool)
	for _, p := range listed {
		if p.ForTest != "" && !p.DepOnly {
			hasTestVariant[p.ForTest] = true
		}
	}

	var pkgs []*Package
	fset := token.NewFileSet()
	for _, p := range listed {
		switch {
		case p.DepOnly, p.Standard:
			continue
		case strings.HasSuffix(p.ImportPath, ".test"):
			// The synthesized test-main package; generated code, not ours.
			continue
		case hasTestVariant[p.ImportPath]:
			continue
		case len(p.GoFiles) == 0 || len(p.CgoFiles) > 0:
			continue
		}
		pkg, err := typeCheck(fset, p, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses one listed package and type-checks it against the
// export data of its dependencies.
func typeCheck(fset *token.FileSet, p listPackage, exports map[string]string) (*Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		files = append(files, f)
	}

	// The importer resolves each import path through the package's
	// ImportMap first (test variants import the "pkg [pkg.test]"
	// build of the package under test), then to the export file go
	// list produced. A fresh importer per package keeps one variant's
	// resolution from leaking into another's through the cache.
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}

	importPath := p.ImportPath
	if p.ForTest != "" {
		importPath = p.ForTest
	} else if i := strings.Index(importPath, " ["); i >= 0 {
		// External test package ("pkg_test [pkg.test]").
		importPath = importPath[:i]
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        p.Dir,
		GoFiles:    p.GoFiles,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
