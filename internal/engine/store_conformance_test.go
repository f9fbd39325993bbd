package engine

// Conformance suite for the Store interface. The store at several shard
// counts, with and without its journal, must pass the identical
// contract: copy-on-write
// immutability of published snapshots, atomic Update under contention,
// newest-first List ordering with a stable ID tie-break, and cursor
// pagination that tolerates TTL eviction.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// storeImpls enumerates the configurations under test: the memory-only
// store at several shard counts plus the journaled one, which must
// satisfy the identical contract (the log is invisible to the
// interface). The WAL variants get a per-test directory and a Close at
// cleanup. "mem" and "sharded-1" are the same one-shard configuration
// under the two names the suite's published test IDs use for it.
func storeImpls(t testing.TB) []struct {
	name string
	mk   func(t testing.TB) Store
} {
	mkWAL := func(sync WALSyncMode) func(t testing.TB) Store {
		return func(t testing.TB) Store {
			s, err := OpenWALStore(WALConfig{Dir: t.TempDir(), Sync: sync})
			if err != nil {
				t.Fatalf("OpenWALStore: %v", err)
			}
			t.Cleanup(func() {
				if err := s.Close(); err != nil {
					t.Errorf("WALStore.Close: %v", err)
				}
			})
			return s
		}
	}
	return []struct {
		name string
		mk   func(t testing.TB) Store
	}{
		{"mem", func(testing.TB) Store { return NewShardedStore(1) }},
		{"sharded-1", func(testing.TB) Store { return NewShardedStore(1) }},
		{"sharded-8", func(testing.TB) Store { return NewShardedStore(8) }},
		{"sharded-default", func(testing.TB) Store { return NewShardedStore(0) }},
		{"wal-none", mkWAL(WALSyncNone)},
		{"wal-group", mkWAL(WALSyncGroup)},
	}
}

func TestStoreConformance(t *testing.T) {
	for _, impl := range storeImpls(t) {
		t.Run(impl.name, func(t *testing.T) {
			runStoreConformance(t, impl.mk)
		})
	}
}

// mkOp builds a minimal queued operation at the given creation time.
func mkOp(id string, at time.Time) *core.Operation {
	return &core.Operation{
		ID:        id,
		Kind:      "test",
		Status:    core.StatusQueued,
		CreatedAt: at,
		UpdatedAt: at,
	}
}

// mkDone is mkOp settled done: the shape a sweep evicts once at is
// older than its cutoff.
func mkDone(id string, at time.Time) *core.Operation {
	op := mkOp(id, at)
	op.Status = core.StatusDone
	return op
}

// listAll returns the full newest-first listing, failing the test on
// error.
func listAll(t *testing.T, s Store) []*core.Operation {
	t.Helper()
	ops, err := s.List(ListQuery{})
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	return ops
}

// listIDs flattens a page to its IDs for order assertions.
func listIDs(ops []*core.Operation) []string {
	ids := make([]string, len(ops))
	for i, op := range ops {
		ids[i] = op.ID
	}
	return ids
}

// runStoreConformance runs the full contract against fresh stores from
// mk.
func runStoreConformance(t *testing.T, mk func(t testing.TB) Store) {
	t0 := time.Unix(1000, 0)

	t.Run("GetNotFound", func(t *testing.T) {
		s := mk(t)
		if _, err := s.Get("missing"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("Get(missing) = %v, want ErrNotFound", err)
		}
	})

	t.Run("UpdateNotFound", func(t *testing.T) {
		s := mk(t)
		err := s.Update("missing", func(*core.Operation) { t.Error("fn called for missing op") })
		if !errors.Is(err, core.ErrNotFound) {
			t.Errorf("Update(missing) = %v, want ErrNotFound", err)
		}
	})

	// The copy-on-write contract: snapshots handed out by Get and List
	// are immutable — a later Update must never be observable through
	// a previously returned pointer, because Update publishes a fresh
	// copy instead of mutating in place.
	t.Run("PublishedSnapshotsAreImmutable", func(t *testing.T) {
		s := mk(t)
		s.Put(mkOp("a", t0))
		before, err := s.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		pageBefore := listAll(t, s)
		if err := s.Update("a", func(op *core.Operation) {
			op.Status = core.StatusRunning
			op.UpdatedAt = t0.Add(time.Minute)
		}); err != nil {
			t.Fatal(err)
		}
		if before.Status != core.StatusQueued || !before.UpdatedAt.Equal(t0) {
			t.Errorf("Update mutated a published snapshot in place: status=%s updated=%v",
				before.Status, before.UpdatedAt)
		}
		if pageBefore[0].Status != core.StatusQueued {
			t.Errorf("Update mutated a listed snapshot in place: status=%s", pageBefore[0].Status)
		}
		after, err := s.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if after.Status != core.StatusRunning {
			t.Errorf("Get after Update = %s, want running (fresh copy published)", after.Status)
		}
	})

	t.Run("PutBatchStoresAll", func(t *testing.T) {
		s := mk(t)
		ops := make([]*core.Operation, 10)
		for i := range ops {
			ops[i] = mkOp(fmt.Sprintf("op-%02d", i), t0.Add(time.Duration(i)*time.Second))
		}
		s.PutBatch(ops)
		if got := s.Len(); got != len(ops) {
			t.Fatalf("Len after PutBatch = %d, want %d", got, len(ops))
		}
		for _, op := range ops {
			got, err := s.Get(op.ID)
			if err != nil {
				t.Fatalf("Get(%s): %v", op.ID, err)
			}
			if got.Status != core.StatusQueued {
				t.Errorf("batched op %s status = %s, want queued", op.ID, got.Status)
			}
		}
	})

	t.Run("PutReplaces", func(t *testing.T) {
		s := mk(t)
		s.Put(mkOp("a", t0))
		replacement := mkOp("a", t0)
		replacement.Status = core.StatusRunning
		s.Put(replacement)
		got, err := s.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != core.StatusRunning {
			t.Errorf("Put did not replace: status = %s", got.Status)
		}
		if s.Len() != 1 {
			t.Errorf("Len after replace = %d, want 1", s.Len())
		}
		// The listing order reads the index, not the map: it must hand
		// out the replacement too.
		if page := listAll(t, s); len(page) != 1 || page[0].Status != core.StatusRunning {
			t.Errorf("List after replace does not hand out the replacement alone: %d operations %v", len(page), listIDs(page))
		}
	})

	t.Run("PutReplaceWithNewCreatedAtReorders", func(t *testing.T) {
		s := mk(t)
		s.Put(mkOp("a", t0))
		s.Put(mkOp("b", t0.Add(time.Second)))
		// Re-put a with a newer CreatedAt: the index entry must move,
		// not duplicate.
		s.Put(mkOp("a", t0.Add(2*time.Second)))
		want := []string{"a", "b"}
		if got := listIDs(listAll(t, s)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("List after re-put = %v, want %v", got, want)
		}
		if s.Len() != 2 {
			t.Errorf("Len after re-put = %d, want 2", s.Len())
		}
	})

	t.Run("ListNewestFirst", func(t *testing.T) {
		s := mk(t)
		// Insert out of order; two share a CreatedAt to exercise the
		// ID tie-break.
		s.Put(mkOp("mid-b", t0.Add(time.Second)))
		s.Put(mkOp("old", t0))
		s.Put(mkOp("new", t0.Add(2*time.Second)))
		s.Put(mkOp("mid-a", t0.Add(time.Second)))
		want := []string{"new", "mid-a", "mid-b", "old"}
		if got := listIDs(listAll(t, s)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("List order = %v, want %v", got, want)
		}
	})

	t.Run("ListLimit", func(t *testing.T) {
		s := mk(t)
		for i := 0; i < 5; i++ {
			s.Put(mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second)))
		}
		page, err := s.List(ListQuery{Limit: 2})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"op-4", "op-3"}; fmt.Sprint(listIDs(page)) != fmt.Sprint(want) {
			t.Errorf("List(limit=2) = %v, want %v", listIDs(page), want)
		}
		if page, _ := s.List(ListQuery{Limit: 100}); len(page) != 5 {
			t.Errorf("List(limit=100) returned %d ops, want all 5", len(page))
		}
	})

	t.Run("ListStatusFilter", func(t *testing.T) {
		s := mk(t)
		for i := 0; i < 6; i++ {
			op := mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second))
			if i%2 == 0 {
				op.Status = core.StatusDone
			}
			s.Put(op)
		}
		done, err := s.List(ListQuery{Status: core.StatusDone})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"op-4", "op-2", "op-0"}; fmt.Sprint(listIDs(done)) != fmt.Sprint(want) {
			t.Errorf("List(status=done) = %v, want %v", listIDs(done), want)
		}
		capped, _ := s.List(ListQuery{Status: core.StatusDone, Limit: 2})
		if want := []string{"op-4", "op-2"}; fmt.Sprint(listIDs(capped)) != fmt.Sprint(want) {
			t.Errorf("List(status=done, limit=2) = %v, want %v", listIDs(capped), want)
		}
	})

	t.Run("CursorPagination", func(t *testing.T) {
		s := mk(t)
		const n = 7
		for i := 0; i < n; i++ {
			s.Put(mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second)))
		}
		full := listIDs(listAll(t, s))

		// Walk the whole store in pages of 2 and require the
		// concatenation to equal the one-shot listing exactly.
		var paged []string
		cursor := ""
		for {
			page, err := s.List(ListQuery{Cursor: cursor, Limit: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(page) == 0 {
				break
			}
			paged = append(paged, listIDs(page)...)
			cursor = page[len(page)-1].ID
		}
		if fmt.Sprint(paged) != fmt.Sprint(full) {
			t.Errorf("paged walk = %v, want %v", paged, full)
		}

		// A cursor without a limit returns the whole remainder.
		rest, err := s.List(ListQuery{Cursor: "op-4"})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"op-3", "op-2", "op-1", "op-0"}; fmt.Sprint(listIDs(rest)) != fmt.Sprint(want) {
			t.Errorf("List(cursor=op-4) = %v, want %v", listIDs(rest), want)
		}
	})

	t.Run("CursorWithTies", func(t *testing.T) {
		s := mk(t)
		// All four share CreatedAt; order is ascending ID, and a
		// cursor in the middle of the tie must not skip or repeat.
		for _, id := range []string{"c", "a", "d", "b"} {
			s.Put(mkOp(id, t0))
		}
		page, err := s.List(ListQuery{Cursor: "b", Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"c", "d"}; fmt.Sprint(listIDs(page)) != fmt.Sprint(want) {
			t.Errorf("List(cursor=b) among ties = %v, want %v", listIDs(page), want)
		}
	})

	t.Run("CursorWithStatusFilter", func(t *testing.T) {
		s := mk(t)
		for i := 0; i < 6; i++ {
			op := mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second))
			if i%2 == 0 {
				op.Status = core.StatusDone
			}
			s.Put(op)
		}
		// The cursor may name an op outside the filter; the page holds
		// only matching ops strictly after it.
		page, err := s.List(ListQuery{Status: core.StatusDone, Cursor: "op-3", Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"op-2", "op-0"}; fmt.Sprint(listIDs(page)) != fmt.Sprint(want) {
			t.Errorf("List(status=done, cursor=op-3) = %v, want %v", listIDs(page), want)
		}
	})

	t.Run("CursorUnknownYieldsEmptyPage", func(t *testing.T) {
		s := mk(t)
		s.Put(mkOp("a", t0))
		page, err := s.List(ListQuery{Cursor: "never-existed", Limit: 5})
		if err != nil {
			t.Fatalf("List(unknown cursor) = %v, want empty page, not error", err)
		}
		if page == nil || len(page) != 0 {
			t.Errorf("List(unknown cursor) = %v, want non-nil empty page", page)
		}
	})

	t.Run("CursorToleratesEviction", func(t *testing.T) {
		s := mk(t)
		cutoff := t0.Add(time.Minute)
		for i := 0; i < 6; i++ {
			op := mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second))
			if i == 2 || i == 3 {
				op.Status = core.StatusDone // evictable
			}
			s.Put(op)
		}
		if got := s.SweepTerminalBefore(cutoff); got != 2 {
			t.Fatalf("sweep evicted %d, want 2", got)
		}
		// A surviving cursor resumes correctly across the hole left by
		// eviction.
		page, err := s.List(ListQuery{Cursor: "op-4", Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"op-1", "op-0"}; fmt.Sprint(listIDs(page)) != fmt.Sprint(want) {
			t.Errorf("List(cursor=op-4) after eviction = %v, want %v", listIDs(page), want)
		}
		// The evicted op's ID as cursor yields an empty page: the
		// client fell behind retention and must restart from the top.
		page, err = s.List(ListQuery{Cursor: "op-2", Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(page) != 0 {
			t.Errorf("List(evicted cursor) = %v, want empty page", listIDs(page))
		}
	})

	t.Run("UpdateDoesNotReorder", func(t *testing.T) {
		s := mk(t)
		for i := 0; i < 4; i++ {
			s.Put(mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second)))
		}
		before := listIDs(listAll(t, s))
		if err := s.Update("op-1", func(op *core.Operation) {
			op.Status = core.StatusDone
			op.UpdatedAt = t0.Add(time.Hour) // UpdatedAt is not the sort key
		}); err != nil {
			t.Fatal(err)
		}
		after := listIDs(listAll(t, s))
		if fmt.Sprint(before) != fmt.Sprint(after) {
			t.Errorf("Update reordered the listing: %v -> %v", before, after)
		}
	})

	t.Run("UpdateAtomicUnderContention", func(t *testing.T) {
		s := mk(t)
		s.Put(mkOp("ctr", t0))
		const goroutines, updates = 8, 200
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < updates; i++ {
					err := s.Update("ctr", func(op *core.Operation) {
						// Read-modify-write; lost updates show up as a
						// final time short of the expected total.
						op.UpdatedAt = op.UpdatedAt.Add(time.Second)
					})
					if err != nil {
						t.Errorf("Update: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		got, err := s.Get("ctr")
		if err != nil {
			t.Fatal(err)
		}
		want := t0.Add(goroutines * updates * time.Second)
		if !got.UpdatedAt.Equal(want) {
			t.Errorf("UpdatedAt after %d atomic updates = %v, want %v (lost updates)",
				goroutines*updates, got.UpdatedAt, want)
		}
	})

	// The retention guarantee the engine's publish path is built on:
	// once Update returns nil, the clone fn was last handed IS the
	// published snapshot, so the caller keeps it instead of reading it
	// back.
	t.Run("UpdateCloneIsPublishedSnapshot", func(t *testing.T) {
		s := mk(t)
		s.Put(mkOp("a", t0))
		var kept *core.Operation
		if err := s.Update("a", func(op *core.Operation) {
			op.Status = core.StatusRunning
			kept = op
		}); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get("a"); err != nil || got != kept {
			t.Fatalf("Get after Update = %p (%v), want the clone fn was handed, %p", got, err, kept)
		}

		// A conflicting publish between the snapshot read and the
		// publish forces a retry; fn runs with no lock held, so writing
		// from inside the first attempt produces that conflict every
		// time. The pointer to keep is the last attempt's.
		var attempts []*core.Operation
		if err := s.Update("a", func(op *core.Operation) {
			attempts = append(attempts, op)
			if len(attempts) == 1 {
				if err := s.Update("a", func(in *core.Operation) { in.Error = "concurrent writer" }); err != nil {
					t.Errorf("conflicting Update: %v", err)
				}
			}
			op.Status = core.StatusDone
		}); err != nil {
			t.Fatal(err)
		}
		if len(attempts) != 2 {
			t.Fatalf("fn ran %d times, want 2 (one lost attempt, one that published)", len(attempts))
		}
		got, err := s.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if got != attempts[1] || got == attempts[0] {
			t.Errorf("Get after a retried Update = %p, want the last attempt's clone %p, never the lost one %p",
				got, attempts[1], attempts[0])
		}
		if got.Status != core.StatusDone || got.Error != "concurrent writer" {
			t.Errorf("published {%s %q}, want both writes: {done \"concurrent writer\"}", got.Status, got.Error)
		}
	})

	// Update may change only the mutable set. A callback that touches
	// anything else is refused whole — the legal change riding along
	// with it included — and nothing is published, so the index key can
	// never move.
	t.Run("UpdateRefusesImmutableFields", func(t *testing.T) {
		s := mk(t)
		s.Put(mkOp("a", t0))
		s.Put(mkOp("b", t0.Add(time.Second)))
		base, err := s.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"ID", "Kind", "Priority", "Client", "Deadline", "CreatedAt", "Params"} {
			err := s.Update("a", func(op *core.Operation) {
				op.Status = core.StatusRunning
				switch field {
				case "ID":
					op.ID = "z"
				case "Kind":
					op.Kind = "other"
				case "Priority":
					op.Priority = core.PriorityHigh
				case "Client":
					op.Client = "someone"
				case "Deadline":
					op.Deadline = time.Hour
				case "CreatedAt":
					op.CreatedAt = t0.Add(time.Hour)
				case "Params":
					op.Params = map[string]any{"k": "v"}
				}
			})
			if !errors.Is(err, errImmutableUpdate) {
				t.Errorf("Update changing %s = %v, want errImmutableUpdate", field, err)
			}
			if got, err := s.Get("a"); err != nil || got != base {
				t.Errorf("after the refused %s change Get(a) = %p (%v), want the untouched snapshot %p", field, got, err, base)
			}
		}
		if _, err := s.Get("z"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("Get(z) = %v, want ErrNotFound: a refused ID move published", err)
		}
		if got := listIDs(listAll(t, s)); s.Len() != 2 || fmt.Sprint(got) != "[b a]" {
			t.Errorf("after refused updates Len = %d, List = %v; want 2, [b a]", s.Len(), got)
		}
	})

	// An Update whose callback changes nothing publishes nothing: Cancel
	// of a settled operation is this shape, and must not swap pointers.
	t.Run("UpdateNoChangePublishesNothing", func(t *testing.T) {
		s := mk(t)
		s.Put(mkOp("a", t0))
		base, err := s.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Update("a", func(op *core.Operation) {
				op.Status, op.UpdatedAt = core.StatusQueued, t0 // the values it already has
			}); err != nil {
				t.Fatalf("no-change Update: %v", err)
			}
		}
		if got, err := s.Get("a"); err != nil || got != base {
			t.Errorf("Get after no-change Updates = %p (%v), want the untouched snapshot %p", got, err, base)
		}
		if s.Len() != 1 {
			t.Errorf("Len = %d, want 1", s.Len())
		}

		// Changing nothing is a decision about the base fn was handed; if
		// that base was replaced meanwhile, the round retries on the fresh
		// snapshot like any other conflict.
		var seen []string
		if err := s.Update("a", func(op *core.Operation) {
			seen = append(seen, op.Error)
			if len(seen) == 1 {
				if err := s.Update("a", func(in *core.Operation) { in.Error = "concurrent writer" }); err != nil {
					t.Errorf("conflicting Update: %v", err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 2 || seen[1] != "concurrent writer" {
			t.Errorf("no-change Update racing a publish saw bases %q, want a retry on the concurrent writer's", seen)
		}
	})

	t.Run("ListConcurrentWithUpdates", func(t *testing.T) {
		// Pagination while workers transition: pages must always be
		// well-formed (no nils, no duplicates, correct order), and old
		// pages must stay internally consistent.
		s := mk(t)
		const n = 64
		for i := 0; i < n; i++ {
			s.Put(mkOp(fmt.Sprintf("op-%02d", i), t0.Add(time.Duration(i)*time.Second)))
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("op-%02d", i%n)
				_ = s.Update(id, func(op *core.Operation) {
					op.UpdatedAt = op.UpdatedAt.Add(time.Millisecond)
				})
			}
		}()
		for round := 0; round < 50; round++ {
			cursor := ""
			seen := make(map[string]bool, n)
			for {
				page, err := s.List(ListQuery{Cursor: cursor, Limit: 7})
				if err != nil {
					t.Fatalf("List: %v", err)
				}
				if len(page) == 0 {
					break
				}
				for _, op := range page {
					if op == nil {
						t.Fatal("List page contains nil")
					}
					if seen[op.ID] {
						t.Fatalf("List pages repeated %s", op.ID)
					}
					seen[op.ID] = true
				}
				cursor = page[len(page)-1].ID
			}
			if len(seen) != n {
				t.Fatalf("paged walk saw %d ops, want %d", len(seen), n)
			}
		}
		close(stop)
		wg.Wait()
	})

	t.Run("DeleteIdempotent", func(t *testing.T) {
		s := mk(t)
		s.Put(mkDone("a", t0))
		cutoff := t0.Add(time.Second)
		if got := s.SweepTerminalBefore(cutoff); got != 1 {
			t.Errorf("sweep evicted %d, want 1", got)
		}
		if _, err := s.Get("a"); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("Get after the sweep = %v, want ErrNotFound", err)
		}
		if got := s.SweepTerminalBefore(cutoff); got != 0 { // evicting again must be a no-op
			t.Errorf("second sweep evicted %d, want 0", got)
		}
		if s.Len() != 0 {
			t.Errorf("Len after the sweeps = %d, want 0", s.Len())
		}
	})

	t.Run("DeleteDecrementsLen", func(t *testing.T) {
		s := mk(t)
		const n = 10
		for i := 0; i < n; i++ {
			s.Put(mkDone(fmt.Sprintf("op-%02d", i), t0.Add(time.Duration(i))))
		}
		for i := 0; i < n; i++ {
			if got := s.SweepTerminalBefore(t0.Add(time.Duration(i + 1))); got != 1 {
				t.Fatalf("sweep %d evicted %d ops, want 1", i+1, got)
			}
			if got, want := s.Len(), n-i-1; got != want {
				t.Fatalf("Len after evicting %d ops = %d, want %d", i+1, got, want)
			}
		}
		if got := len(listAll(t, s)); got != 0 {
			t.Errorf("List after evicting everything has %d ops, want 0", got)
		}
	})

	t.Run("DeleteConcurrentWithUpdate", func(t *testing.T) {
		// The janitor sweeps terminal operations while workers update
		// them and others; race one sweep against updates of an expired
		// operation and a running one. Every Update must either apply
		// atomically or report ErrNotFound, an evicted operation never
		// reappears, and the running one is never evicted.
		s := mk(t)
		cutoff := t0.Add(time.Hour)
		const rounds = 100
		for r := 0; r < rounds; r++ {
			id, live := fmt.Sprintf("op-%03d", r), fmt.Sprintf("live-%03d", r)
			running := mkOp(live, t0)
			running.Status = core.StatusRunning
			s.PutBatch([]*core.Operation{mkDone(id, t0), running})
			evicted := 0
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					for _, target := range []string{id, live} {
						err := s.Update(target, func(op *core.Operation) {
							op.UpdatedAt = op.UpdatedAt.Add(time.Second)
						})
						if err != nil && !errors.Is(err, core.ErrNotFound) {
							t.Errorf("Update racing the sweep: %v", err)
							return
						}
					}
				}
			}()
			go func() {
				defer wg.Done()
				evicted = s.SweepTerminalBefore(cutoff)
			}()
			wg.Wait()
			if evicted == 0 {
				// An update republished the candidate under the sweep,
				// which leaves it to the next tick.
				evicted = s.SweepTerminalBefore(cutoff)
			}
			if evicted != 1 {
				t.Fatalf("round %d: sweeps evicted %d ops, want exactly %s", r, evicted, id)
			}
			if _, err := s.Get(id); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("round %d: op resurrected after its eviction: %v", r, err)
			}
			if _, err := s.Get(live); err != nil {
				t.Fatalf("round %d: sweep evicted the running %s: %v", r, live, err)
			}
		}
		if got := s.Len(); got != rounds {
			t.Errorf("Len after concurrent sweep rounds = %d, want %d running ops", got, rounds)
		}
	})

	t.Run("SweepTerminalBefore", func(t *testing.T) {
		s := mk(t)
		mkAt := func(id string, status core.Status, at time.Time) {
			op := mkOp(id, t0)
			op.Status = status
			op.UpdatedAt = at
			s.Put(op)
		}
		cutoff := t0.Add(time.Minute)
		mkAt("old-done", core.StatusDone, t0)                        // evict
		mkAt("old-failed", core.StatusFailed, t0)                    // evict
		mkAt("old-cancelled", core.StatusCancelled, t0)              // evict
		mkAt("old-queued", core.StatusQueued, t0)                    // keep: not terminal
		mkAt("old-running", core.StatusRunning, t0)                  // keep: not terminal
		mkAt("fresh-done", core.StatusDone, cutoff.Add(time.Second)) // keep: too fresh
		mkAt("at-cutoff", core.StatusDone, cutoff)                   // keep: not strictly before
		if got := s.SweepTerminalBefore(cutoff); got != 3 {
			t.Errorf("SweepTerminalBefore evicted %d, want 3", got)
		}
		for _, id := range []string{"old-done", "old-failed", "old-cancelled"} {
			if _, err := s.Get(id); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("Get(%s) after sweep = %v, want ErrNotFound", id, err)
			}
		}
		for _, id := range []string{"old-queued", "old-running", "fresh-done", "at-cutoff"} {
			if _, err := s.Get(id); err != nil {
				t.Errorf("sweep evicted %s: %v", id, err)
			}
		}
		if got := s.Len(); got != 4 {
			t.Errorf("Len after sweep = %d, want 4", got)
		}
		if got := len(listAll(t, s)); got != 4 {
			t.Errorf("List after sweep has %d ops, want 4 (index compacted with map)", got)
		}
		if got := s.SweepTerminalBefore(cutoff); got != 0 {
			t.Errorf("second sweep evicted %d, want 0 (idempotent)", got)
		}
	})

	t.Run("LenCountsEverything", func(t *testing.T) {
		s := mk(t)
		const n = 100
		for i := 0; i < n; i++ {
			s.Put(mkOp(fmt.Sprintf("op-%03d", i), t0.Add(time.Duration(i))))
		}
		if got := s.Len(); got != n {
			t.Errorf("Len = %d, want %d", got, n)
		}
		if got := len(listAll(t, s)); got != n {
			t.Errorf("len(List()) = %d, want %d", got, n)
		}
	})
}

func TestNewShardedStoreRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
	}{
		{-1, DefaultShardCount()},
		{0, DefaultShardCount()},
		{1, 1},
		{2, 2},
		{3, 4},
		{16, 16},
		{17, 32},
		{maxShardCount, maxShardCount},
		{maxShardCount + 1, maxShardCount},
		{1 << 62, maxShardCount}, // would overflow the round-up without the clamp
	} {
		s := NewShardedStore(tc.n).(*shardedStore)
		if got := len(s.shards); got != tc.want {
			t.Errorf("NewShardedStore(%d) has %d shards, want %d", tc.n, got, tc.want)
		}
		if s.mask != uint32(len(s.shards)-1) {
			t.Errorf("NewShardedStore(%d) mask = %d, want %d", tc.n, s.mask, len(s.shards)-1)
		}
	}
}

func TestDefaultShardCountTracksGOMAXPROCS(t *testing.T) {
	got := DefaultShardCount()
	if got != nextPowerOfTwo(got) {
		t.Errorf("DefaultShardCount() = %d, want a power of two", got)
	}
	if got < 1 || got > maxShardCount {
		t.Errorf("DefaultShardCount() = %d, out of range [1, %d]", got, maxShardCount)
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {9, 16}, {1000, 1024},
	} {
		if got := nextPowerOfTwo(tc.n); got != tc.want {
			t.Errorf("nextPowerOfTwo(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestShardedStoreSpreadsKeys sanity-checks the hash: real IDs from
// core.NewID must not collapse into a few shards.
func TestShardedStoreSpreadsKeys(t *testing.T) {
	s := NewShardedStore(8).(*shardedStore)
	const n = 4096
	counts := make([]int, len(s.shards))
	for i := 0; i < n; i++ {
		counts[s.shardIndex(core.NewID())]++
	}
	// Perfectly uniform would be 512 per shard; flag anything worse
	// than a 4x skew, which would indicate a broken hash.
	for i, c := range counts {
		if c < n/len(counts)/4 || c > n/len(counts)*4 {
			t.Errorf("shard %d holds %d of %d keys — hash is badly skewed (%v)", i, c, n, counts)
		}
	}
}

// TestSweepEvictsOnlyWhatItCollected pins the sweep's second pass, which
// no black-box history can drive on purpose: between collecting
// candidates and taking the write lock, one candidate is republished
// (same ID, new snapshot) and another sweep evicts one. Neither is this
// sweep's to evict any more; the rest go, from map and index alike, and
// the tombstones handed back are exactly theirs, in order.
func TestSweepEvictsOnlyWhatItCollected(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := NewShardedStore(1).(*shardedStore)
	sh := s.shards[0]
	for i, id := range []string{"a", "b", "c", "d", "e", "live"} {
		op := mkOp(id, t0.Add(time.Duration(i)*time.Second))
		if id != "live" {
			op.Status = core.StatusDone
		}
		s.Put(op)
	}
	cands := sh.expiredTerminal(nil, t0.Add(time.Hour))
	if got := listIDs(cands); fmt.Sprint(got) != "[a b c d e]" {
		t.Fatalf("candidates = %v, want [a b c d e] in index order", got)
	}
	var tombs []byte
	for _, op := range cands {
		tombs = appendDeleteRecord(tombs, op.ID)
	}

	again := mkDone("b", t0.Add(time.Second))
	s.Put(again)
	// Another sweep's write pass got to d first.
	sh.mu.Lock()
	sh.evictLocked([]*core.Operation{cands[3]}, nil)
	sh.mu.Unlock()

	sh.mu.Lock()
	n, staged := sh.evictLocked(cands, tombs)
	sh.mu.Unlock()
	if n != 3 {
		t.Errorf("evicted %d, want 3 (a, c, e)", n)
	}
	if got := listIDs(listAll(t, s)); fmt.Sprint(got) != "[live b]" {
		t.Errorf("after the sweep List = %v, want [live b]", got)
	}
	if got, err := s.Get("b"); err != nil || got != again {
		t.Errorf("Get(b) = (%p, %v), want the republished snapshot %p", got, err, again)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	var deleted []string
	if _, err := walReplay(staged, func(typ byte, body []byte) error {
		if typ != walRecDelete {
			t.Errorf("staged record type %d, want a tombstone", typ)
		}
		deleted = append(deleted, string(body))
		return nil
	}); err != nil {
		t.Fatalf("staged tombstones do not replay: %v", err)
	}
	if fmt.Sprint(deleted) != "[a c e]" {
		t.Errorf("staged tombstones = %v, want [a c e]", deleted)
	}
}

// TestListHoldsOneShardLock: a page never holds one shard while it waits
// for another. With shard 1 write-locked, a List parks there; a Put to
// shard 0 must still go through, or every writer on the shards the page
// already passed would queue behind the one it is waiting for.
func TestListHoldsOneShardLock(t *testing.T) {
	s := newShardedStore(2)
	id := "op-0"
	for i := 1; s.shardIndex(id) != 0; i++ {
		id = fmt.Sprintf("op-%d", i)
	}
	s.shards[1].mu.Lock()
	listed := make(chan struct{})
	go func() {
		defer close(listed)
		s.List(ListQuery{Limit: 10})
	}()
	//lint:allow opdaemon/lockscope the test holds shard 1 on purpose, so that the List parks there
	time.Sleep(50 * time.Millisecond) // let the List park on shard 1
	put := make(chan struct{})
	go func() {
		defer close(put)
		s.Put(mkOp(id, time.Unix(1000, 0)))
	}()
	ok := closesWithin(put, time.Second)
	s.shards[1].mu.Unlock()
	<-listed
	<-put
	if !ok {
		t.Fatal("a Put to shard 0 waited on a List parked on shard 1")
	}
}

// closesWithin reports whether done closes before d elapses. A helper,
// so that a test may wait with a shard lock held.
func closesWithin(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}
