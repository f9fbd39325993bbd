//go:build !race

// Package raceflag tells tests whether the binary was built with the
// race detector. Its instrumentation allocates, so the allocation-
// pinning tests (make test-allocs) skip themselves under -race.
package raceflag

// Enabled reports whether the race detector is compiled in.
const Enabled = false
