// Package a exercises the opmutate ownership dataflow against a
// miniature replica of the engine's store shapes. A Status write here
// also breaks the Status rule (see package transition), so those lines
// expect both diagnostics.
package a

import (
	"time"

	"opdaemon/internal/core"
)

// Store mirrors the engine's storage API: Get/List hand out shared
// snapshots, Update runs a callback on a private clone, Put takes
// ownership.
type Store struct {
	m    map[string]*core.Operation
	page []*core.Operation
}

// Get returns the shared snapshot for id.
func (s *Store) Get(id string) (*core.Operation, bool) {
	op, ok := s.m[id]
	return op, ok
}

// List returns a page of shared snapshots.
func (s *Store) List() []*core.Operation {
	return s.page
}

// Update clones, hands the clone to fn, and publishes it.
func (s *Store) Update(id string, fn func(*core.Operation)) {
	if op, ok := s.m[id]; ok {
		c := op.Clone()
		fn(c)
		s.m[id] = c
	}
}

// Put publishes op; the caller must not touch it afterwards.
func (s *Store) Put(op *core.Operation) {
	s.m[op.ID] = op
}

// mutateFetched writes a snapshot straight out of Get.
func mutateFetched(s *Store, id string) {
	op, ok := s.Get(id)
	if !ok {
		return
	}
	op.Status = core.StatusRunning // want `write to field Status of a published \*core\.Operation` `direct write to Operation\.Status outside core`
}

// mutateListed writes through a range element of a listed page.
func mutateListed(s *Store) {
	for _, op := range s.List() {
		op.Error = "poisoned" // want `write to field Error of a published \*core\.Operation`
	}
}

// mutateIndexed writes through an index into a listed page.
func mutateIndexed(s *Store) {
	page := s.List()
	if len(page) > 0 {
		page[0].Attempts++ // want `write to field Attempts of a published \*core\.Operation`
	}
}

// mutateParam writes a parameter: the caller may have handed us a
// shared snapshot.
func mutateParam(op *core.Operation) {
	op.Error += "retry" // want `write to field Error of a published \*core\.Operation`
}

// mutateAliased writes through an alias of a fetched snapshot: the
// taint follows the assignment.
func mutateAliased(s *Store, id string) {
	fresh := &core.Operation{ID: id}
	got, _ := s.Get(id)
	fresh = got
	fresh.Status = core.StatusDone // want `write to field Status of a published \*core\.Operation` `direct write to Operation\.Status outside core`
}

// mutateAfterPut keeps writing after ownership transferred.
func mutateAfterPut(s *Store, id string, now time.Time) {
	op := &core.Operation{ID: id, Status: core.StatusQueued, CreatedAt: now}
	s.Put(op)
	op.UpdatedAt = now // want `write to field UpdatedAt of op after Put transferred ownership`
}

// buildAndPublish is the sanctioned construction path: mutate freely
// before Put, never after.
func buildAndPublish(s *Store, id string, now time.Time) {
	op := &core.Operation{ID: id, Status: core.StatusQueued}
	op.Kind = "noop"
	op.CreatedAt = now
	s.Put(op)
}

// updateViaCallback is the sanctioned mutation path: the callback's
// argument is a private clone.
func updateViaCallback(s *Store, id string, now time.Time) {
	s.Update(id, func(op *core.Operation) {
		op.Error = "retrying"
		op.UpdatedAt = now
	})
}

// mutateClone is legal: Clone returns a private copy.
func mutateClone(s *Store, id string) *core.Operation {
	got, ok := s.Get(id)
	if !ok {
		return nil
	}
	c := got.Clone()
	c.Error = "annotated"
	return c
}

// mutateDerefCopy is legal: dereferencing copies the value.
func mutateDerefCopy(s *Store, id string) core.Operation {
	got, _ := s.Get(id)
	cp := *got
	cp.Error = "local"
	return cp
}

// mkOp is a factory: every return is freshly constructed, so callers
// own what it hands back.
func mkOp(id string, now time.Time) *core.Operation {
	op := &core.Operation{ID: id, Status: core.StatusQueued}
	op.CreatedAt = now
	return op
}

// mutateFactoryResult is legal: mkOp returns owned values.
func mutateFactoryResult(now time.Time) *core.Operation {
	op := mkOp("op-1", now)
	op.Kind = "noop"
	return op
}

// mutateLocalSlice is legal: the slice and its elements are built here.
func mutateLocalSlice(now time.Time) []*core.Operation {
	ops := []*core.Operation{mkOp("a", now)}
	ops = append(ops, mkOp("b", now))
	ops[0].Kind = "batch"
	for _, op := range ops {
		op.UpdatedAt = now
	}
	return ops
}

// poisonedSlice loses ownership when a fetched snapshot lands in it.
func poisonedSlice(s *Store, id string, now time.Time) {
	ops := []*core.Operation{mkOp("a", now)}
	got, _ := s.Get(id)
	ops = append(ops, got)
	ops[0].Error = "x" // want `write to field Error of a published \*core\.Operation`
}

// suppressedMutation documents an intentional exception.
func suppressedMutation(s *Store, id string) {
	got, _ := s.Get(id)
	//lint:allow opdaemon/opmutate fixture: documented intentional write
	got.Error = "sanctioned"
}
