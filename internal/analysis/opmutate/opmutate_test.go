package opmutate_test

import (
	"testing"

	"opdaemon/internal/analysis/lintkit/analysistest"
	"opdaemon/internal/analysis/opmutate"
)

func TestOpMutate(t *testing.T) {
	analysistest.Run(t, "testdata", opmutate.Analyzer, "opdaemon/a")
}

func TestStatusTransition(t *testing.T) {
	// The core fixture is loaded as a target too: its own Transition
	// method writes Status directly and must stay silent.
	analysistest.Run(t, "testdata", opmutate.Analyzer, "opdaemon/transition", "opdaemon/internal/core")
}
