// Package transition exercises the Status rule — Status is written only
// by core's guarded Transition — and the clean shapes around it. A
// write through a parameter breaks the ownership rule as well, so those
// lines expect both diagnostics.
package transition

import (
	"time"

	"opdaemon/internal/core"
)

func directWrite(op *core.Operation) {
	op.Status = core.StatusDone // want `direct write to Operation\.Status outside core` `write to field Status of a published`
}

func writeThroughDeref(p *core.Operation) {
	(*p).Status = core.StatusFailed // want `direct write to Operation\.Status outside core` `write to field Status of a published`
}

func writeOnValue(op core.Operation) {
	op.Status = core.StatusRunning // want `direct write to Operation\.Status outside core` `write to field Status of a published`
}

func aliasedWrite(op *core.Operation) *core.Status {
	return &op.Status // want `taking the address of Operation\.Status outside core` `taking the address of field Status of a published`
}

// settle is a package-level function literal, policed like a declared
// function.
var settle = func(op *core.Operation) {
	op.Status = core.StatusDone // want `direct write to Operation\.Status outside core` `write to field Status of a published`
}

// ownedWrite owns its clone, which the ownership rule allows it to
// shape, but the Status rule still routes the lifecycle through
// Transition.
func ownedWrite(op *core.Operation) *core.Operation {
	c := op.Clone()
	c.Status = core.StatusDone // want `direct write to Operation\.Status outside core`
	return c
}

// guarded uses the sanctioned path.
func guarded(op *core.Operation, now time.Time) bool {
	return op.Transition(core.StatusRunning, now)
}

// construction reads and builds freely: composite literals set the
// initial state, they do not transition an existing operation.
func construction() *core.Operation {
	op := &core.Operation{Status: core.StatusQueued}
	if op.Status.CanTransition(core.StatusRunning) {
		return op
	}
	return nil
}

// suppressed documents an intentional exemption; the directive silences
// both rules on its line.
func suppressed(op *core.Operation) {
	//lint:allow opdaemon/opmutate fixture proves suppression works
	op.Status = core.StatusDone
}

// otherField writes are the Status rule's concern only for Status; an
// owned clone's other fields are free to shape.
func otherField(op *core.Operation) *core.Operation {
	c := op.Clone()
	c.Error = "boom"
	return c
}
