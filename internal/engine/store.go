package engine

import (
	"time"

	"opdaemon/internal/core"
)

// ListQuery selects a page of operations from a Store.
type ListQuery struct {
	// Status filters the page to one lifecycle state; empty matches
	// all.
	Status core.Status
	// Cursor resumes listing strictly after the operation with this ID
	// in newest-first order; empty starts at the newest operation. A
	// cursor naming an operation the store no longer holds (TTL
	// eviction) yields an empty page: the caller fell behind
	// retention and must restart from the top.
	Cursor string
	// Limit caps the page size; <= 0 means unbounded.
	Limit int
}

// Store persists operation state. The engine talks to storage only
// through this interface, so whether the store behind it keeps a journal
// (OpenWALStore) or not (NewShardedStore) never reaches scheduling code.
//
// Implementations must be safe for concurrent use and must honour the
// copy-on-write immutability contract: every *core.Operation that
// crosses this interface is an immutable published snapshot.
//
//   - Put/PutBatch take ownership of their arguments; the caller must
//     not mutate an operation after handing it over (reading it is
//     always safe — it never changes).
//   - Get/List return shared pointers to published snapshots, never
//     clones. Callers may hold them forever and will never observe a
//     later transition through them; callers must not mutate them.
//   - Update is the only mutation path: it clones the stored snapshot,
//     applies fn to the private clone, and publishes the clone
//     atomically. Once Update returns nil, the clone fn was last handed
//     is the published snapshot (or, if fn changed nothing, a copy of
//     it), and the caller may keep it as one.
//
// The conformance suite in store_conformance_test.go holds the store to
// this contract at every shard count, with and without its journal, and
// store_model_test.go checks random histories against a plain map.
type Store interface {
	// Put inserts or replaces the operation keyed by op.ID, taking
	// ownership of op.
	Put(op *core.Operation)
	// PutBatch inserts or replaces every operation, taking each shard's
	// lock once for the batch rather than once per operation.
	// Ownership of each element transfers as with Put.
	PutBatch(ops []*core.Operation)
	// Get returns the published snapshot, or core.ErrNotFound.
	Get(id string) (*core.Operation, error)
	// List returns the page of published snapshots selected by q, in
	// newest-first order (ties broken by ascending ID). The page costs
	// O(limit), not O(store size); an unknown cursor yields an empty
	// page (see ListQuery.Cursor). The error is reserved for fallible
	// backends; the in-memory index always returns nil.
	List(q ListQuery) ([]*core.Operation, error)
	// Update applies fn to a clone of the stored operation and
	// atomically publishes the clone, making read-modify-write
	// transitions atomic. Returns core.ErrNotFound if the ID is unknown.
	// fn may change only the mutable set (Status, UpdatedAt, CancelledAt,
	// Error, Result — core.DeltaEligible): any other change is refused
	// with an error, publishing and journaling nothing. A clone whose
	// mutable set is unchanged publishes and journals nothing either.
	//
	// The protocol is optimistic: fn runs with no lock held, against a
	// clone of a lock-free snapshot read, and the clone is published
	// only if nothing else was published for the ID in between;
	// otherwise the round is retried on the fresh snapshot, so fn can
	// be invoked more than once before one publish wins. fn must
	// therefore be effectively pure — derive everything from the clone
	// it is handed, and ASSIGN any captured variables from that
	// attempt's state rather than toggling them cumulatively, so the
	// attempt that publishes fully determines what the caller observes.
	//
	// The clone handed to the attempt that publishes IS the published
	// snapshot: when Update returns nil, the pointer fn was last handed
	// is what Get returns until the next publish, immutable from then
	// on, so a caller that wants the result keeps that pointer instead
	// of reading it back. Any other attempt's clone is garbage; if fn
	// changed nothing, its clone is an equal copy of the published
	// snapshot, not that pointer.
	Update(id string, fn func(op *core.Operation)) error
	// SweepTerminalBefore deletes every operation whose status is
	// terminal and whose UpdatedAt is before cutoff, returning how
	// many were removed; it is the only way an operation leaves the
	// store. Non-terminal operations are never touched.
	// The janitor calls this on every tick, so the scan walks the index
	// in place rather than snapshotting the store.
	SweepTerminalBefore(cutoff time.Time) int
	// Len returns the number of stored operations.
	Len() int
}
