package engine

// The store's per-shard state and its ordered index: a storeShard
// couples one map of the ID space with an opIndex keeping those
// operations in listing order, so List pages are produced in O(limit) by
// walking (and, across shards, merging) index tails instead of cloning
// and sorting the whole store per request.

import (
	"sort"
	"sync"
	"time"

	"opdaemon/internal/core"
)

// opBefore reports whether a sorts before the key (createdAt, id) in
// index order: ascending CreatedAt with ties broken by descending ID.
// Walking an index backwards therefore yields the public List order —
// newest first, ties broken by ascending ID.
func opBefore(a *core.Operation, createdAt time.Time, id string) bool {
	if c := a.CreatedAt.Compare(createdAt); c != 0 {
		return c < 0
	}
	return a.ID > id
}

// newerThan reports whether a sorts before b in the public newest-first
// order: descending CreatedAt with ties broken by ascending ID. It is
// the comparator the cross-shard merge uses.
func newerThan(a, b *core.Operation) bool {
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.After(b.CreatedAt)
	}
	return a.ID < b.ID
}

// opIndex holds one shard's operations sorted in index order (see
// opBefore). Almost every key a write looks up is near the newest
// end: a transition's replace is for an operation submitted moments
// ago, and a batch's operations share one CreatedAt, so ties ordered by
// descending ID land a few dozen entries from the tail rather than
// after it.
type opIndex struct {
	ops []*core.Operation
}

// search returns the position of the key (createdAt, id) in the index:
// the smallest i such that ops[i] does not sort before the key. It
// gallops from the newest end — probing n-1, n-3, n-7, n-15, … until an
// entry sorts before the key — then binary-searches that bracket alone,
// so a key d entries from the tail costs O(log d) comparisons on hot
// memory, and one at the oldest end at most about twice a plain binary
// search's.
func (ix *opIndex) search(createdAt time.Time, id string) int {
	ops := ix.ops
	// ops[lo] sorts before the key (lo == -1: none known to) and none of
	// ops[hi:] does.
	lo, hi := -1, len(ops)
	for step := 1; hi > 0; step *= 2 {
		p := max(hi-step, 0)
		if opBefore(ops[p], createdAt, id) {
			lo = p
			break
		}
		hi = p
	}
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool {
		return !opBefore(ops[lo+1+i], createdAt, id)
	})
}

// insert adds op, which must not already be present under its
// (CreatedAt, ID) key. A live submission's slot is the tail or near it,
// which search's first probes find.
func (ix *opIndex) insert(op *core.Operation) {
	i := ix.search(op.CreatedAt, op.ID)
	ix.ops = append(ix.ops, nil)
	copy(ix.ops[i+1:], ix.ops[i:])
	ix.ops[i] = op
}

// replace installs op at the position of its (CreatedAt, ID) key, which
// must be present. This is the copy-on-write publish: the index entry
// flips from the old immutable snapshot to the new one.
func (ix *opIndex) replace(op *core.Operation) {
	ix.ops[ix.search(op.CreatedAt, op.ID)] = op
}

// remove deletes the entry at the (createdAt, id) key, which must be
// present.
func (ix *opIndex) remove(createdAt time.Time, id string) {
	i := ix.search(createdAt, id)
	copy(ix.ops[i:], ix.ops[i+1:])
	ix.ops[len(ix.ops)-1] = nil // unpin the evicted snapshot
	ix.ops = ix.ops[:len(ix.ops)-1]
}

// storeShard is one partition of the ID space: a mutex-guarded map for
// point lookups plus the opIndex that keeps the partition ordered. A
// one-shard store is the single-lock store; the shard count picks how
// many there are, never which code runs.
//
// Copy-on-write invariant: every *core.Operation reachable from ops or
// the index is immutable. Update publishes a mutated clone in place of
// the old snapshot, so get and list hand out shared pointers with zero
// copying and readers outlive the lock safely. It is also what makes
// pointer identity a conflict check: while the map still holds the
// pointer a writer read earlier, nothing was published for that ID in
// between.
type storeShard struct {
	mu  sync.RWMutex
	ops map[string]*core.Operation
	ix  opIndex
}

// putLocked installs op (taking ownership — the caller must not mutate
// it afterwards), replacing any previous operation with the same ID.
// Callers hold the write lock.
func (sh *storeShard) putLocked(op *core.Operation) {
	if old, ok := sh.ops[op.ID]; ok {
		sh.ix.remove(old.CreatedAt, old.ID)
	}
	sh.ops[op.ID] = op
	sh.ix.insert(op)
}

// get returns the published snapshot — a shared immutable pointer, no
// clone, no allocation.
func (sh *storeShard) get(id string) (*core.Operation, error) {
	sh.mu.RLock()
	op, ok := sh.ops[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, core.ErrNotFound
	}
	return op, nil
}

// expiredTerminal appends to dst, in index order, every terminal
// operation last updated before cutoff: the sweep's eviction
// candidates, collected under the read lock alone.
func (sh *storeShard) expiredTerminal(dst []*core.Operation, cutoff time.Time) []*core.Operation {
	sh.mu.RLock()
	for _, op := range sh.ix.ops {
		if op.Status.Terminal() && op.UpdatedAt.Before(cutoff) {
			dst = append(dst, op)
		}
	}
	sh.mu.RUnlock()
	return dst
}

// evictLocked removes every candidate the shard still publishes and
// returns how many that was. A candidate the map no longer holds by
// pointer was evicted or republished since it was collected — a
// different snapshot, not this sweep's to evict — and is left alone.
// cands must be in index order, as expiredTerminal returns them, and is
// compacted in place to the evicted ones. tombs holds the candidates'
// framed tombstones back to back in the same order (empty in a store
// without a journal) and is compacted in step, so what comes back is
// exactly what the journal must record. Callers hold the write lock.
func (sh *storeShard) evictLocked(cands []*core.Operation, tombs []byte) (int, []byte) {
	gone, staged := cands[:0], tombs[:0]
	for _, op := range cands {
		var frame []byte
		if len(tombs) > 0 {
			n := walFrameHeader + int(walFrameLen(tombs))
			frame, tombs = tombs[:n], tombs[n:]
		}
		if sh.ops[op.ID] != op {
			continue
		}
		delete(sh.ops, op.ID)
		gone = append(gone, op)
		staged = append(staged, frame...)
	}
	// The evicted snapshots are all still in the index, in the order
	// they were collected, so one lock-step walk drops them.
	evicted := len(gone)
	kept := sh.ix.ops[:0]
	for _, op := range sh.ix.ops {
		if len(gone) > 0 && op == gone[0] {
			gone = gone[1:]
			continue
		}
		kept = append(kept, op)
	}
	clear(sh.ix.ops[len(kept):]) // unpin evicted snapshots
	sh.ix.ops = kept
	return evicted, staged
}

func (sh *storeShard) len() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.ops)
}

// listCursor is one shard's position in a List merge: the shard's
// index slice and the next position to emit, walking downwards (the
// slice is oldest-first, so downwards is newest-first).
type listCursor struct {
	ops []*core.Operation
	pos int
}

func (c *listCursor) current() *core.Operation { return c.ops[c.pos] }

// collectNewest merges the cursors newest-first and returns the page
// selected by q (status filter, limit). Cursor resolution — turning
// q.Cursor into per-shard start positions — is the caller's job, since
// it needs the shard locks; collectNewest only walks the runs the caller
// copied out, with no lock held. The page is built of shared immutable
// pointers.
//
// Cost: O(len(cursors)) to seed the heap plus O(scanned · log shards)
// to emit, where scanned == limit when no status filter is set. The
// only allocation is the output slice; the heap reuses cursors.
func collectNewest(cursors []listCursor, q ListQuery) []*core.Operation {
	// Drop exhausted shards, then heapify by newest-first current op.
	h := cursors[:0]
	total := 0
	for _, c := range cursors {
		if c.pos >= 0 {
			h = append(h, c)
			total += c.pos + 1
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	capHint := total
	if q.Limit > 0 && q.Limit < capHint {
		capHint = q.Limit
	}
	// Non-nil even when empty so the API layer marshals [] not null.
	out := make([]*core.Operation, 0, capHint)
	for len(h) > 0 {
		op := h[0].current()
		if q.Status == "" || op.Status == q.Status {
			out = append(out, op)
			if q.Limit > 0 && len(out) == q.Limit {
				return out
			}
		}
		h[0].pos--
		if h[0].pos < 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(h, 0)
		}
	}
	return out
}

// siftDown restores the heap property at i for a heap ordered by
// newest-first current operations.
func siftDown(h []listCursor, i int) {
	for {
		left, right := 2*i+1, 2*i+2
		top := i
		if left < len(h) && newerThan(h[left].current(), h[top].current()) {
			top = left
		}
		if right < len(h) && newerThan(h[right].current(), h[top].current()) {
			top = right
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// startPos returns the index position a List walk over sh begins at:
// the newest entry when key is nil, or the newest entry strictly older
// than the cursor operation key. -1 means the shard contributes nothing.
// Callers hold at least the read lock.
func (sh *storeShard) startPos(key *core.Operation) int {
	if key == nil {
		return len(sh.ix.ops) - 1
	}
	// Everything before the key's position sorts strictly older in
	// newest-first terms.
	return sh.ix.search(key.CreatedAt, key.ID) - 1
}
