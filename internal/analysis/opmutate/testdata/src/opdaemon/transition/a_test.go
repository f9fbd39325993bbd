package transition

import "opdaemon/internal/core"

// Test files fabricate lifecycle states directly; the exemption keeps
// store fixtures writable.
func fabricate(status core.Status) *core.Operation {
	op := &core.Operation{ID: "x"}
	op.Status = status
	return op
}
