package engine

// Allocation regression tests pinning the read-path guarantees the
// copy-on-write refactor bought: Get never allocates (it returns the
// published snapshot pointer), and a List page's allocations depend on
// the limit, never on how many operations the store holds. These run
// as ordinary tests — not benchmarks — so `go test ./...` fails the
// moment a change sneaks a clone or a sort back into the hot path.

import (
	"fmt"
	"os"
	"runtime"
	"slices"
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

// TestJournaledWriteAllocsMatchMemory: a journal encodes into pooled
// buffers, a commit generation is a number, not an object, and a batch
// of up to 16 operations finds its shards on the stack, so a re-put of
// a batch allocates nothing, on the memory store and on the journal,
// whatever the shard count; and a journaled Update followed by Flush
// allocates exactly what the memory store does. The journal runs under
// WALSyncGroup with a no-op fsync, and every call waits for its commit
// (PutBatch as admission, Update through Flush), so each run detaches
// and ends a generation of its own.
func TestJournaledWriteAllocsMatchMemory(t *testing.T) {
	skipIfRace(t)
	t0 := time.Unix(1000, 0)
	ops := make([]*core.Operation, 16)
	for i := range ops {
		ops[i] = mkOp(fmt.Sprintf("op-%02d", i), t0.Add(time.Duration(i)*time.Second))
	}
	for _, shards := range []int{1, 2, 16} {
		wal, err := OpenWALStore(WALConfig{Dir: t.TempDir(), Sync: WALSyncGroup, shards: shards,
			syncHook: func(*os.File) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		defer wal.Close()
		stores := []struct {
			name  string
			s     Store
			flush func() error
		}{{"memory", NewShardedStore(shards), func() error { return nil }}, {"journal", wal, wal.Flush}}

		var update [2]float64
		for i, st := range stores {
			for _, n := range []int{1, 10, 16} {
				batch := ops[:n]
				st.s.PutBatch(batch)
				if allocs := testing.AllocsPerRun(100, func() { st.s.PutBatch(batch) }); allocs != 0 {
					t.Errorf("%s, %d shards: re-put of a batch of %d allocates %.1f objects, want 0",
						st.name, shards, n, allocs)
				}
			}
			update[i] = testing.AllocsPerRun(100, func() {
				if err := st.s.Update(ops[0].ID, func(op *core.Operation) {
					op.UpdatedAt = op.UpdatedAt.Add(time.Nanosecond)
				}); err != nil {
					t.Fatal(err)
				}
				if err := st.flush(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if update[1] != update[0] {
			t.Errorf("Update+Flush, %d shards: journal allocates %.1f objects, memory %.1f", shards, update[1], update[0])
		}
	}
}

// TestJournaledSweepAllocsMatchMemory: a sweep sizes each shard's
// tombstone buffer once, to the exact frame bytes, so on the journal a
// large sweep allocates a handful of objects more than on the memory
// store, however many operations it evicts. Each store fills and sweeps
// three times on 2 shards; the second and third sweeps are compared,
// after pools and maps have warmed.
func TestJournaledSweepAllocsMatchMemory(t *testing.T) {
	skipIfRace(t)
	const n, shards = 75_000, 2
	wal, err := OpenWALStore(WALConfig{Dir: t.TempDir(), Sync: WALSyncGroup, shards: shards,
		syncHook: func(*os.File) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	stores := []struct {
		name string
		s    Store
	}{{"memory", NewShardedStore(shards)}, {"journal", wal}}
	t0 := time.Unix(1000, 0)
	ops := make([]*core.Operation, n)
	var sweeps [2][2]uint64
	for round := range 3 {
		for i, st := range stores {
			for j := range ops {
				// IDs as long as core.NewID's, so each shard's
				// tombstones outgrow the encode pool's cap as the
				// daemon's do.
				ops[j] = mkDone(fmt.Sprintf("%032d", round*n+j), t0)
			}
			for batch := range slices.Chunk(ops, 1000) {
				st.s.PutBatch(batch)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			evicted := st.s.SweepTerminalBefore(t0.Add(time.Second))
			runtime.ReadMemStats(&after)
			if evicted != n {
				t.Fatalf("%s: sweep %d evicted %d operations, want %d", st.name, round+1, evicted, n)
			}
			if round > 0 {
				sweeps[round-1][i] = after.Mallocs - before.Mallocs
			}
		}
	}
	for round, got := range sweeps {
		t.Logf("sweep %d: memory %d objects, journal %d", round+2, got[0], got[1])
		if got[1] > got[0]+8 {
			t.Errorf("sweep %d of %d operations: journal allocates %d objects, memory %d; want at most 8 more",
				round+2, n, got[1], got[0])
		}
	}
}

// TestWALStatsAllocs: a health poll's WAL counters come from one
// critical section and a copy of the commit-size ring on the stack, so
// reading them allocates nothing, once commits have filled the ring
// and before.
func TestWALStatsAllocs(t *testing.T) {
	skipIfRace(t)
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncGroup, syncHook: func(*os.File) error { return nil }})
	defer s.Close()
	for i := range 100 {
		s.Put(mkOp(fmt.Sprintf("op-%d", i), time.Unix(1000, 0)))
		if i == 0 || i == 99 {
			if st := s.WALStats(); st.BatchP50 != 1 {
				t.Fatalf("WALStats().BatchP50 = %v after %d puts, want 1", st.BatchP50, i+1)
			}
			if allocs := testing.AllocsPerRun(100, func() { s.WALStats() }); allocs != 0 {
				t.Errorf("WALStats after %d commits allocates %.1f objects, want 0", i+1, allocs)
			}
		}
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
	_, _, ch := r.since(NoticeQuery{After: r.last()}, true)
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
