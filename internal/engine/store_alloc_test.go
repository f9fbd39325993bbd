package engine

// Allocation regression tests pinning the read-path guarantees the
// copy-on-write refactor bought: Get never allocates (it returns the
// published snapshot pointer), and a List page's allocations depend on
// the limit, never on how many operations the store holds. These run
// as ordinary tests — not benchmarks — so `go test ./...` fails the
// moment a change sneaks a clone or a sort back into the hot path.

import (
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/raceflag"
)

// allocImpls enumerates the shard counts whose allocation profile is
// pinned: one shard ("mem": the single-mutex store) and a fixed multi-shard count, so the merge path is exercised
// even on single-core hosts.
func allocImpls() []struct {
	name string
	mk   func() Store
} {
	return []struct {
		name string
		mk   func() Store
	}{
		{"mem", func() Store { return NewShardedStore(1) }},
		{"sharded-8", func() Store { return NewShardedStore(8) }},
	}
}

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates; alloc pinning runs in non-race builds")
	}
}

func TestGetIsZeroAlloc(t *testing.T) {
	skipIfRace(t)
	for _, impl := range allocImpls() {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.mk()
			ops := prepopulate(s, 1024)
			id := ops[len(ops)/2].ID
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := s.Get(id); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Get allocates %.1f objects/op, want 0 (must return the published snapshot)", allocs)
			}
		})
	}
}

func TestListAllocsIndependentOfStoreSize(t *testing.T) {
	skipIfRace(t)
	const limit = 50
	for _, impl := range allocImpls() {
		t.Run(impl.name, func(t *testing.T) {
			perSize := make(map[int]float64)
			for _, size := range []int{1_000, 10_000} {
				s := impl.mk()
				prepopulate(s, size)
				perSize[size] = testing.AllocsPerRun(200, func() {
					page, err := s.List(ListQuery{Limit: limit})
					if err != nil {
						t.Fatal(err)
					}
					if len(page) != limit {
						t.Fatalf("List returned %d ops, want %d", len(page), limit)
					}
				})
			}
			if perSize[1_000] != perSize[10_000] {
				t.Errorf("List(limit=%d) allocations scale with store size: %.1f at 1k ops vs %.1f at 10k ops",
					limit, perSize[1_000], perSize[10_000])
			}
			// The absolute count matters too: a page is the output
			// slice plus the merge scaffolding, nowhere near one
			// allocation per element.
			if perSize[10_000] > 4 {
				t.Errorf("List(limit=%d) costs %.1f allocations, want <= 4 (output slice + merge state)",
					limit, perSize[10_000])
			}
		})
	}
}

func TestListPagedWalkMatchesUnbounded(t *testing.T) {
	// Property check at a size no hand-written case covers: paging
	// through 10k random-ID operations in 97-op pages must reproduce
	// the unbounded listing exactly, on every implementation.
	for _, impl := range allocImpls() {
		t.Run(impl.name, func(t *testing.T) {
			s := impl.mk()
			prepopulate(s, 10_000)
			full, err := s.List(ListQuery{})
			if err != nil {
				t.Fatal(err)
			}
			var pagedIDs []string
			cursor := ""
			for {
				page, err := s.List(ListQuery{Cursor: cursor, Limit: 97})
				if err != nil {
					t.Fatal(err)
				}
				if len(page) == 0 {
					break
				}
				for _, op := range page {
					pagedIDs = append(pagedIDs, op.ID)
				}
				cursor = page[len(page)-1].ID
			}
			if len(pagedIDs) != len(full) {
				t.Fatalf("paged walk saw %d ops, unbounded List saw %d", len(pagedIDs), len(full))
			}
			for i, op := range full {
				if pagedIDs[i] != op.ID {
					t.Fatalf("paged walk diverges at %d: %s != %s", i, pagedIDs[i], op.ID)
				}
			}
		})
	}
}

// TestNoticeAppendAllocsOnlyForReaders: with no feed reader and no
// long-poll waiter — the daemon's normal state — a transition's publish
// and a batch's birth notices touch no channel and allocate nothing;
// the broadcast channel exists only between a reader's subscription and
// the notice that wakes it.
func TestNoticeAppendAllocsOnlyForReaders(t *testing.T) {
	skipIfRace(t)
	r := newInflight(64)
	at := time.Unix(1000, 0)
	snap := &core.Operation{ID: "id", Kind: "kind", Status: core.StatusRunning, UpdatedAt: at}
	ops := []*core.Operation{{ID: "a", Kind: "k", CreatedAt: at}, {ID: "b", Kind: "k", CreatedAt: at}}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.publish(snap)
		r.born(ops)
	}); allocs != 0 {
		t.Errorf("publish with no reader allocates %.1f objects, want 0", allocs)
	}
	ch := r.waitChan()
	r.publish(snap)
	select {
	case <-ch:
	default:
		t.Error("publish did not close the channel a reader had fetched")
	}
}

// TestWaiterSubscribeAllocs pins what parking one long-poll costs the
// collector: the waiter is a bare capacity-one channel, which the
// runtime allocates as two objects (the channel and its buffer, split
// because the element is a pointer), plus the backing array of the ID's
// waiter list.
func TestWaiterSubscribeAllocs(t *testing.T) {
	skipIfRace(t)
	r := newInflight(64)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.unsubscribe("op", r.subscribe("op"))
	}); allocs != 3 {
		t.Errorf("subscribe plus unsubscribe allocates %.1f objects, want 3", allocs)
	}
}
