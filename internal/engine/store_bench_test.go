package engine

// The store benchmarks opbench cannot replace: contended variants at one
// shard (a single lock) against the shard count the store ships with,
// the WAL under each sync policy, cold recovery, a batch's shape across
// shard counts, and the unbounded listing. What one uncontended Get,
// Put, batch-10 PutBatch, Update or List page costs is opbench's store.*
// and wal.* rows (bench/README.md); at -cpu 1 a *Parallel benchmark here
// is its own serial baseline. Run via `make bench` or:
//
//	go test -bench=. -benchmem -benchtime=100x -run '^$' ./internal/engine/

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"opdaemon/internal/core"
)

type benchImpl struct {
	name string
	mk   func() Store
}

// benchImpls pairs each shard count with a label: one shard as the
// uncontended baseline, and the count the daemon ships with on this
// hardware.
func benchImpls() []benchImpl {
	impls := []benchImpl{{"sharded-1", func() Store { return NewShardedStore(1) }}}
	if n := DefaultShardCount(); n > 1 { // at GOMAXPROCS 1 the two rows are the same store
		impls = append(impls, benchImpl{fmt.Sprintf("sharded-%d", n), func() Store { return NewShardedStore(0) }})
	}
	return impls
}

// prepopulate fills the store with n operations and returns them so
// benchmark loops can reuse the IDs without allocating.
func prepopulate(s Store, n int) []*core.Operation {
	t0 := time.Unix(1000, 0)
	ops := make([]*core.Operation, n)
	for i := range ops {
		ops[i] = mkOp(core.NewID(), t0.Add(time.Duration(i)*time.Millisecond))
	}
	s.PutBatch(ops)
	return ops
}

// BenchmarkStoreGetPutParallel hammers Put+Get from GOMAXPROCS
// goroutines over a shared key set — the contention profile of many
// API clients submitting and polling at once. This is the benchmark
// sharding must win against the single lock.
func BenchmarkStoreGetPutParallel(b *testing.B) {
	for _, impl := range benchImpls() {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk()
			ops := prepopulate(s, 4096)
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Stride goroutines across the key space so they
				// touch different shards, as real distinct operations
				// do.
				i := int(next.Add(1)) * 31
				for pb.Next() {
					op := ops[i%len(ops)]
					i++
					s.Put(op)
					if _, err := s.Get(op.ID); err != nil {
						// b.Fatal must not run on a RunParallel
						// worker goroutine.
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkStoreUpdateParallel measures contended read-modify-write
// transitions, the engine's hot path when workers complete operations
// while clients poll. Copy-on-write moved the snapshot allocation
// here, off the read path — expect exactly one alloc/op.
func BenchmarkStoreUpdateParallel(b *testing.B) {
	for _, impl := range benchImpls() {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk()
			ops := prepopulate(s, 4096)
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)) * 31
				for pb.Next() {
					op := ops[i%len(ops)]
					i++
					err := s.Update(op.ID, func(op *core.Operation) {
						op.UpdatedAt = op.UpdatedAt.Add(time.Nanosecond)
					})
					if err != nil {
						// b.Fatal must not run on a RunParallel
						// worker goroutine.
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// walBenchModes are the sync policies the WAL benchmarks compare:
// always is the per-write fsync floor, group is the group-commit
// design point, none isolates the framing/staging overhead from disk.
var walBenchModes = []WALSyncMode{WALSyncAlways, WALSyncGroup, WALSyncNone}

// openBenchWAL builds a WAL store in a fresh per-benchmark directory.
func openBenchWAL(b *testing.B, mode WALSyncMode) *WALStore {
	b.Helper()
	s, err := OpenWALStore(WALConfig{Dir: b.TempDir(), Sync: mode})
	if err != nil {
		b.Fatalf("OpenWALStore: %v", err)
	}
	b.Cleanup(func() {
		if err := s.Close(); err != nil {
			b.Errorf("WALStore.Close: %v", err)
		}
	})
	return s
}

// BenchmarkStoreWALPutParallel is the group-commit demonstration:
// concurrent writers board the same batch and share one fsync, so
// group's per-op cost collapses toward always's divided by the batch
// size while always still serialises one fsync per generation. At
// -cpu 1 these rows are the lone-writer cost of each policy.
func BenchmarkStoreWALPutParallel(b *testing.B) {
	for _, mode := range walBenchModes {
		b.Run(string(mode), func(b *testing.B) {
			s := openBenchWAL(b, mode)
			ops := prepopulate(s, 4096)
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)) * 31
				for pb.Next() {
					s.Put(ops[i%len(ops)])
					i++
				}
			})
		})
	}
}

// BenchmarkStoreWALUpdateParallel measures contended transitions
// against the log. Under group mode updates do not wait for the fsync
// (recovery semantics absorb the loss window), so this should track
// the in-memory BenchmarkStoreUpdateParallel plus encoding cost.
func BenchmarkStoreWALUpdateParallel(b *testing.B) {
	for _, mode := range walBenchModes {
		b.Run(string(mode), func(b *testing.B) {
			s := openBenchWAL(b, mode)
			ops := prepopulate(s, 4096)
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)) * 31
				for pb.Next() {
					op := ops[i%len(ops)]
					i++
					err := s.Update(op.ID, func(op *core.Operation) {
						op.UpdatedAt = op.UpdatedAt.Add(time.Nanosecond)
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkWALRecovery measures boot-time replay: open a log holding
// 100k operations, rebuild the index, close. This is the cost a
// restart pays, and compaction exists to bound it; its -cpu 1,2 rows are
// the evidence that parallel replay pays.
func BenchmarkWALRecovery(b *testing.B) {
	const n = 100_000
	dir := b.TempDir()
	s, err := OpenWALStore(WALConfig{Dir: dir, Sync: WALSyncNone})
	if err != nil {
		b.Fatalf("OpenWALStore: %v", err)
	}
	prepopulate(s, n)
	if err := s.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenWALStore(WALConfig{Dir: dir, Sync: WALSyncNone})
		if err != nil {
			b.Fatalf("OpenWALStore (recovery): %v", err)
		}
		if r.Len() != n {
			b.Fatalf("recovered %d ops, want %d", r.Len(), n)
		}
		if err := r.Close(); err != nil {
			b.Fatalf("Close: %v", err)
		}
	}
}

// BenchmarkStorePutBatch re-puts one batch of memory-store operations:
// a batch's shape cost (hashing each ID, grouping the batch by shard, one
// lock per shard met) plus each re-put's in-place index replace, a
// search from the newest end. Two shards is what every gated opbench
// run uses; 16 is a wide host's default.
func BenchmarkStorePutBatch(b *testing.B) {
	for _, shards := range []int{2, 16} {
		for _, n := range []int{10, 1024} {
			b.Run(fmt.Sprintf("sharded-%d/batch-%d", shards, n), func(b *testing.B) {
				s := NewShardedStore(shards)
				ops := prepopulate(s, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.PutBatch(ops)
				}
			})
		}
	}
}

// BenchmarkStoreListAll measures the unbounded listing (no limit) —
// the worst case the cursor API exists to let clients avoid.
func BenchmarkStoreListAll(b *testing.B) {
	const size = 4096
	for _, impl := range benchImpls() {
		b.Run(impl.name, func(b *testing.B) {
			s := impl.mk()
			prepopulate(s, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page, err := s.List(ListQuery{})
				if err != nil {
					b.Fatal(err)
				}
				if len(page) != size {
					b.Fatalf("List returned %d ops, want %d", len(page), size)
				}
			}
		})
	}
}
