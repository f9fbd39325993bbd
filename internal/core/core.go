// Package core defines the domain model shared by every layer of the
// daemon: operations, their status lifecycle, and the typed errors that
// cross subsystem boundaries.
//
// An Operation moves through the lifecycle
//
//	queued → running → done | failed | cancelled
//	queued → failed | cancelled
//
// and never transitions out of a terminal state. The engine owns the
// transitions; the API layer only reads snapshots.
package core

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Status is the lifecycle state of an Operation.
type Status string

const (
	// StatusQueued means the operation is accepted but not yet picked
	// up by a worker.
	StatusQueued Status = "queued"
	// StatusRunning means a worker is executing the operation.
	StatusRunning Status = "running"
	// StatusDone means the operation finished successfully.
	StatusDone Status = "done"
	// StatusFailed means the operation finished with an error.
	StatusFailed Status = "failed"
	// StatusCancelled means the operation was aborted on request:
	// either before it ever ran (cancelled while queued) or by
	// cancelling its context while running.
	StatusCancelled Status = "cancelled"
)

// Priority is the scheduling class of an Operation. The engine drains
// higher bands first; within a band, clients share the worker pool
// fairly. The empty string means "unset" and resolves at submission to
// PriorityNormal.
type Priority string

const (
	// PriorityLow marks background work that may wait behind everything
	// else; the scheduler's aging valve still guarantees it eventually
	// runs.
	PriorityLow Priority = "low"
	// PriorityNormal is the default scheduling class.
	PriorityNormal Priority = "normal"
	// PriorityHigh marks latency-sensitive work drained ahead of the
	// other bands.
	PriorityHigh Priority = "high"
)

// Valid reports whether p is one of the known priorities. The empty
// string is not valid on the wire — it means "unset" and is resolved
// before an operation is published.
func (p Priority) Valid() bool {
	switch p {
	case PriorityLow, PriorityNormal, PriorityHigh:
		return true
	}
	return false
}

// Terminal reports whether the status is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Valid reports whether s is one of the known lifecycle states.
func (s Status) Valid() bool {
	switch s {
	case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
		return true
	}
	return false
}

// CanTransition reports whether a move from s to next is a legal
// lifecycle step.
func (s Status) CanTransition(next Status) bool {
	switch s {
	case StatusQueued:
		return next == StatusRunning || next == StatusFailed || next == StatusCancelled
	case StatusRunning:
		return next == StatusDone || next == StatusFailed || next == StatusCancelled
	}
	return false
}

// Operation is a unit of background work tracked by the engine.
//
// Operations are immutable once published: every pointer handed to or
// returned by a store refers to a snapshot that never changes again.
// State advances by installing a fresh copy (see engine.Store.Update),
// so readers share pointers freely without locks or clones. Code that
// builds an Operation may mutate it only until it hands the pointer to
// a store or another goroutine.
//
// Result holds the handler's return value pre-marshalled to JSON: the
// engine serializes it when the operation completes, so a handler
// returning an unrepresentable value fails that one operation instead
// of poisoning every API response that would embed it.
type Operation struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Params map[string]any  `json:"params,omitempty"`
	Status Status          `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Priority is the scheduling class resolved at submission (request
	// value, else normal); it is always set on a published operation.
	Priority Priority `json:"priority,omitempty"`
	// Client is the submitting client's attribution key (the API's
	// X-Client-Id header, falling back to the remote address); the
	// scheduler's fair queueing keys on it. Empty for anonymous
	// submissions, which all share one queue.
	Client string `json:"client,omitempty"`
	// Deadline is the execution time budget fixed at submission (the
	// kind's registered deadline). Zero means the handler runs
	// unbounded. The suffix names the JSON unit.
	Deadline  time.Duration `json:"deadline_ns,omitempty"`
	CreatedAt time.Time     `json:"created_at"`
	UpdatedAt time.Time     `json:"updated_at"`
	// CancelledAt is when cancellation was requested, kept whatever the
	// operation ends as: done too, when its handler completes regardless.
	CancelledAt time.Time `json:"cancelled_at,omitzero"`
}

// Clone returns a shallow copy of the operation: the write half of the
// copy-on-write scheme. A store's Update clones the published snapshot,
// mutates the private copy, and installs it; read paths never clone.
// Params and Result are shared; all published snapshots treat them as
// read-only.
func (op *Operation) Clone() *Operation {
	c := *op
	return &c
}

// Transition advances the operation to next if the lifecycle permits
// it, stamping UpdatedAt (and backfilling CancelledAt on a cancel whose
// request time was never recorded) with now. It reports whether the
// step applied; an illegal step leaves the operation untouched, so
// terminal states are never overwritten.
//
// This is the single sanctioned write-site for Status: callers outside
// this package must route every status change through it (opdaemonlint's
// opmutate analyzer enforces this), and must call it only on a
// privately owned copy — a clone inside a store Update callback, or an
// operation not yet published.
func (op *Operation) Transition(next Status, now time.Time) bool {
	if !op.Status.CanTransition(next) {
		return false
	}
	op.Status = next
	op.UpdatedAt = now
	if next == StatusCancelled && op.CancelledAt.IsZero() {
		op.CancelledAt = now
	}
	return true
}

// Sentinel errors surfaced across subsystem boundaries. The API layer
// maps these onto HTTP status codes with errors.Is.
var (
	// ErrNotFound means no operation with the requested ID exists.
	ErrNotFound = errors.New("operation not found")
	// ErrUnknownKind means no handler is registered for the kind.
	ErrUnknownKind = errors.New("unknown operation kind")
	// ErrShuttingDown means the engine no longer accepts work.
	ErrShuttingDown = errors.New("engine is shutting down")
	// ErrQueueFull means the submission queue is at capacity.
	ErrQueueFull = errors.New("operation queue is full")
	// ErrSaturated is never returned: the queue's capacity is the only
	// admission bound, and a full queue is ErrQueueFull. It stays
	// declared because the benchmark module's refusal counter still
	// matches against it.
	ErrSaturated = errors.New("engine saturated, shedding load")
	// ErrAlreadyTerminal means the operation has already reached a
	// terminal state and can no longer be cancelled.
	ErrAlreadyTerminal = errors.New("operation already in a terminal state")
	// ErrCancelled is the cancellation cause attached to an
	// operation's context when a client aborts it; handlers and the
	// engine use it to tell a requested cancel from a shutdown or
	// deadline.
	ErrCancelled = errors.New("operation cancelled")
	// ErrInterrupted is the failure cause recovery records on
	// operations that were running when the previous daemon process
	// exited: their handlers' in-memory progress is gone, so after a
	// restart the durable store replays them as running and the engine
	// settles them as failed with this cause instead of silently
	// re-executing half-done work.
	ErrInterrupted = errors.New("operation interrupted by daemon restart")
)

// InvalidError describes a request that is malformed before it ever
// reaches a handler (bad kind, bad params).
type InvalidError struct {
	// Field names what was invalid ("kind", "batch", ...).
	Field string
	// Reason says why, in a client-safe sentence fragment.
	Reason string
}

// Error implements the error interface.
func (e *InvalidError) Error() string {
	return fmt.Sprintf("invalid %s: %s", e.Field, e.Reason)
}

// BatchItemError ties one validation failure to its zero-based
// position in a batch submission.
type BatchItemError struct {
	// Index is the item's position in the submitted batch.
	Index int
	// Err is the item's validation failure.
	Err error
}

// BatchError reports that a batch submission was rejected. Batches are
// validated atomically — when any item is invalid nothing is enqueued —
// and Items lists every failing item so a client can repair the whole
// request in one round trip.
type BatchError struct {
	// Total is the number of items in the rejected batch.
	Total int
	// Items holds the per-item failures, in batch order.
	Items []BatchItemError
}

// Error summarises the rejection; the per-item details are in Items.
func (e *BatchError) Error() string {
	return fmt.Sprintf("batch rejected: %d of %d items invalid", len(e.Items), e.Total)
}

// UnwrapSingle returns the item error of a *BatchError that rejected
// exactly one item, and any other error unchanged, so a single
// submission sent as a one-item batch reports its own failure (an
// ErrUnknownKind or *InvalidError) rather than a batch rejection.
func UnwrapSingle(err error) error {
	var berr *BatchError
	if errors.As(err, &berr) && len(berr.Items) == 1 {
		return berr.Items[0].Err
	}
	return err
}

// ValidID reports whether id has the shape NewID produces: exactly 32
// lowercase hex digits. The API layer uses it to reject malformed
// cursors before they reach the store.
func ValidID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewID returns a 128-bit random hex identifier for an operation.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure means the platform RNG is broken;
		// nothing sensible can continue.
		panic("core: reading random id: " + err.Error())
	}
	// Encoding into an array on the stack leaves the string as the only
	// allocation; hex.EncodeToString makes two.
	var id [2 * len(b)]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}
