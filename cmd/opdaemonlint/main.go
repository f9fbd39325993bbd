// Command opdaemonlint runs the project's custom static-analysis suite
// over Go packages. It machine-enforces the engine's concurrency and
// immutability contracts:
//
//	opmutate      no field writes to published *core.Operation snapshots,
//	              and Status changes flow through core's guarded Transition
//	lockscope     no blocking or re-entrant calls inside shard critical sections
//	ctxdiscipline no detached context roots; ctx-first blocking exports
//
// Usage:
//
//	opdaemonlint [packages]
//
// Packages default to ./... relative to the working directory; test
// files are analyzed too. Exits 1 when any diagnostic is reported, 2 on
// load errors.
// Intentional violations are suppressed in-source with
// `//lint:allow opdaemon/<name> <justification>` on or immediately
// above the offending line; a bare directive with no justification is
// itself a diagnostic.
package main

import (
	"fmt"
	"os"

	"opdaemon/internal/analysis/ctxdiscipline"
	"opdaemon/internal/analysis/lintkit"
	"opdaemon/internal/analysis/lockscope"
	"opdaemon/internal/analysis/opmutate"
)

// suite is every analyzer the project ships, in report order.
var suite = []*lintkit.Analyzer{
	opmutate.Analyzer,
	lockscope.Analyzer,
	ctxdiscipline.Analyzer,
}

func main() {
	os.Exit(run())
}

func run() int {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lintkit.Load(lintkit.LoadConfig{}, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "opdaemonlint:", err)
		return 2
	}

	diags, err := lintkit.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "opdaemonlint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
