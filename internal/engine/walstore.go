package engine

// WALStore is the durable Store: the in-memory sharded store for the
// unchanged read path (0-alloc Get, O(limit) cursor List) layered over
// the append-only log in wal.go for persistence.
//
// The one invariant that shapes every mutation below: the log must
// record mutations in the same per-ID order the memory index publishes
// them, or replay could resurrect a stale state. Each mutation
// therefore stages its encoded record into the WAL batch buffer while
// still holding the shard's write lock — apply and stage are atomic
// per record. That nests walBatch.mu inside storeShard.mu (the one
// sanctioned lock nesting, policed by lockscope), and it is why writers
// never touch the file themselves: file I/O under a shard lock would
// stall every operation on the shard for an fsync.
//
// The second invariant: records are ENCODED before the shard lock is
// taken (lockscope's codec rule machine-enforces it). The lock covers
// only apply + staging of a prepared buffer, so its hold time is a few
// pointer writes and a memcpy, not a marshal. Put and Delete encode
// up front; Update encodes optimistically from a lock-free snapshot
// read and retries on the rare conflicting publish (detected by
// pointer identity — published operations are immutable, so the map
// still holding the same pointer proves nothing intervened).
//
// Updates whose mutation is a pure lifecycle transition log a compact
// delta record (id + mutable fields) instead of a full snapshot.
// Every delta chain is bounded by walDeltaChainMax: the store counts
// consecutive deltas per ID (per-shard maps, mutated only under the
// shard's write lock) and logs a fresh full record when the chain
// would grow past the bound, so replay work and torn-tail blast
// radius per op stay O(1).

import (
	"fmt"
	"log"
	"os"
	"time"

	"opdaemon/internal/core"
)

// WALConfig configures OpenWALStore. Zero values pick the defaults
// documented per field.
type WALConfig struct {
	// Dir is the log directory, created if absent. Required.
	Dir string
	// Sync is the fsync policy (default WALSyncGroup).
	Sync WALSyncMode
	// SegmentBytes rotates the open segment once it exceeds this size
	// (default 16 MiB).
	SegmentBytes int64
	// MaxSegments is how many closed segments may accumulate before
	// the committer folds them into a snapshot (default 8).
	MaxSegments int
	// Shards is the in-memory index's shard count, with the same
	// semantics as NewShardedStore (default DefaultShardCount).
	Shards int
	// Clock returns the current time; overridable in tests.
	Clock func() time.Time
	// syncHook replaces (*os.File).Sync for every fsync the log
	// issues. Tests only, like wal.die.
	syncHook func(*os.File) error
}

// withDefaults resolves the zero values.
func (cfg WALConfig) withDefaults() WALConfig {
	if cfg.Sync == "" {
		cfg.Sync = WALSyncGroup
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 16 << 20
	}
	if cfg.MaxSegments <= 0 {
		cfg.MaxSegments = 8
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.syncHook == nil {
		cfg.syncHook = (*os.File).Sync
	}
	return cfg
}

// sweepCompactThreshold is how many evictions one SweepTerminalBefore
// must produce before the store asks the WAL to compact: small steady
// sweeps ride along until segment-count compaction triggers, mass
// evictions reclaim replay time promptly.
const sweepCompactThreshold = 1024

// walDeltaChainMax bounds how many consecutive delta records one
// operation may accumulate before the next update logs a full
// snapshot again. Engine lifecycles log 2–3 updates per op, so the
// bound exists for pathological callers, not the steady state.
const walDeltaChainMax = 16

// WALStore is a persistent Store; see the package comment above and
// docs/persistence.md. Close must be called to flush staged records;
// use OpenWALStore to build one.
type WALStore struct {
	inner *shardedStore
	wal   *wal
	// deltaN counts each live delta chain's length, one map per shard,
	// indexed in lockstep with inner.shards and mutated only under that
	// shard's write lock. An absent entry means "last logged record was
	// a full snapshot".
	deltaN []map[string]uint8
}

// Compile-time interface checks: a Store the engine can use, and the
// durable extension Engine.Stats surfaces.
var (
	_ Store        = (*WALStore)(nil)
	_ durableStore = (*WALStore)(nil)
)

// OpenWALStore opens (or creates) the log directory, replays snapshot
// plus segment suffix into a fresh in-memory index — repairing a torn
// tail on the way — and starts the group-commit loop. The returned
// store is ready for traffic; the caller owns Close.
func OpenWALStore(cfg WALConfig) (*WALStore, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: WALConfig.Dir must be set")
	}
	if !cfg.Sync.Valid() {
		return nil, fmt.Errorf("wal: unknown sync mode %q (want %s, %s, or %s)",
			cfg.Sync, WALSyncAlways, WALSyncGroup, WALSyncNone)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", cfg.Dir, err)
	}
	state, layout, err := recoverWALState(cfg.Dir)
	if err != nil {
		return nil, err
	}
	w, err := newWAL(cfg, layout)
	if err != nil {
		return nil, err
	}
	inner := NewShardedStore(cfg.Shards).(*shardedStore)
	if len(state) > 0 {
		ops := make([]*core.Operation, 0, len(state))
		for _, op := range state {
			ops = append(ops, op)
		}
		inner.bulkLoad(ops)
	}
	deltaN := make([]map[string]uint8, len(inner.shards))
	for i := range deltaN {
		deltaN[i] = make(map[string]uint8)
	}
	s := &WALStore{inner: inner, wal: w, deltaN: deltaN}
	w.snapshotFn = s.dumpState
	w.start()
	return s, nil
}

// Close flushes staged records, stops the committer, and closes the
// open segment. The store must not be used afterwards.
func (s *WALStore) Close() error {
	return s.wal.close()
}

// Flush forces a commit of everything staged so far and waits for it —
// a durability barrier for callers (and tests) that need one outside
// the per-mutation policy.
func (s *WALStore) Flush() error {
	return s.wal.flush()
}

// WALStats reports the log's observability counters; Engine.Stats
// surfaces them when the engine's store is durable.
func (s *WALStore) WALStats() WALStats {
	return s.wal.snapshotStats()
}

// dumpState is the compactor's full-state snapshot source: the
// unbounded listing, which snapshots each shard under its own lock and
// merges lock-free.
func (s *WALStore) dumpState() []*core.Operation {
	ops, err := s.inner.List(ListQuery{})
	if err != nil {
		// The in-memory inner store cannot fail; keep the compactor
		// honest anyway.
		log.Printf("engine: wal snapshot listing state: %v", err)
		return nil
	}
	return ops
}

// Put inserts or replaces the operation and waits out the sync
// policy's admission durability (see WALSyncMode). The record is
// encoded into a pooled buffer before the lock; the critical section
// is apply + stage only.
func (s *WALStore) Put(op *core.Operation) {
	buf := getEncBuf()
	rec, err := encodeOpRecordV2(*buf, op)
	if err != nil {
		// Memory-only fallback: the mutation still applies (matching
		// the in-memory stores) but will not survive a restart.
		log.Printf("engine: %v; operation is not durable", err)
	}
	i := s.inner.shardIndex(op.ID)
	sh := s.inner.shards[i]
	sh.mu.Lock()
	sh.putLocked(op)
	delete(s.deltaN[i], op.ID)
	g := s.wal.stage(rec, 1)
	sh.mu.Unlock()
	s.wal.wake()
	*buf = rec
	putEncBuf(buf)
	s.wal.admitWait(g)
}

// PutBatch inserts or replaces every operation, staging each shard's
// records inside that shard's critical section, then waking the
// committer once and waiting for durability once for the whole batch.
func (s *WALStore) PutBatch(ops []*core.Operation) {
	if len(ops) == 1 {
		s.Put(ops[0])
		return
	}
	buckets := make([][]*core.Operation, len(s.inner.shards))
	for _, op := range ops {
		i := s.inner.shardIndex(op.ID)
		buckets[i] = append(buckets[i], op)
	}
	var last *walGen
	buf := getEncBuf()
	for i, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		// Encode the bucket outside the lock — the records capture the
		// operations as handed over, which ownership transfer makes
		// stable — and stage them inside it, keeping log order equal
		// to publish order.
		frames := (*buf)[:0]
		recs := 0
		for _, op := range bucket {
			next, err := encodeOpRecordV2(frames, op)
			if err != nil {
				log.Printf("engine: %v; operation is not durable", err)
				frames = next // encoder rewound to the frame mark
				continue
			}
			frames = next
			recs++
		}
		sh := s.inner.shards[i]
		sh.mu.Lock()
		for _, op := range bucket {
			sh.putLocked(op)
			delete(s.deltaN[i], op.ID)
		}
		if g := s.wal.stage(frames, recs); g != nil {
			last = g
		}
		sh.mu.Unlock()
		*buf = frames
	}
	putEncBuf(buf)
	// One wake after the last bucket: the committer commits the moment
	// it is woken, so waking per bucket would split this batch over two
	// generations and make it wait out two fsyncs. Another writer's wake
	// can still split it; waiting on the newest ticket covers every
	// staged record regardless, because generations commit in order.
	s.wal.wake()
	s.wal.admitWait(last)
}

// Get returns the published snapshot — the unchanged in-memory read
// path.
func (s *WALStore) Get(id string) (*core.Operation, error) {
	return s.inner.Get(id)
}

// List pages the in-memory index; see shardedStore.List.
func (s *WALStore) List(q ListQuery) ([]*core.Operation, error) {
	return s.inner.List(q)
}

// Update applies fn to a private clone of the published snapshot,
// encodes the result with no lock held, then publishes clone and
// staged record atomically under the shard's write lock. Conflicts are
// detected optimistically: published snapshots are immutable, so if
// the shard still maps id to the same pointer read before encoding,
// nothing intervened and the publish is ordered correctly; otherwise
// the whole read-mutate-encode round retries against the fresh
// snapshot (so fn may run more than once — see Store.Update's
// contract). Contention on one ID is engine-rare (a transition race
// with Cancel), so retries are too.
//
// A pure lifecycle transition logs a compact delta record; anything
// that touched immutable-by-convention fields — or a delta chain at
// its bound — logs a full snapshot. Under WALSyncAlways the caller
// waits for the fsync; group mode logs transitions asynchronously (see
// WALSyncMode).
func (s *WALStore) Update(id string, fn func(op *core.Operation)) error {
	i := s.inner.shardIndex(id)
	sh := s.inner.shards[i]
	deltas := s.deltaN[i]
	for {
		sh.mu.RLock()
		old, ok := sh.ops[id]
		var chain uint8
		if ok {
			chain = deltas[id]
		}
		sh.mu.RUnlock()
		if !ok {
			return core.ErrNotFound
		}

		c := old.Clone()
		fn(c)
		sameKey := c.ID == old.ID && c.CreatedAt.Equal(old.CreatedAt)
		asDelta := sameKey && chain+1 < walDeltaChainMax && core.DeltaEligible(old, c)

		buf := getEncBuf()
		rec := *buf
		if asDelta {
			rec = encodeDeltaRecordV2(rec, c)
		} else {
			if c.ID != old.ID {
				// fn moved the ID (nothing in the engine does): log the
				// old ID's disappearance so replay tracks it.
				rec = appendDeleteRecord(rec, old.ID)
			}
			var err error
			rec, err = encodeOpRecordV2(rec, c)
			if err != nil {
				log.Printf("engine: %v; update is not durable", err)
			}
		}

		sh.mu.Lock()
		if sh.ops[id] != old {
			// A conflicting publish (another update, a delete, a re-put)
			// landed between snapshot and lock: the clone and record
			// describe a stale base. Drop both and retry.
			sh.mu.Unlock()
			*buf = rec
			putEncBuf(buf)
			continue
		}
		if sameKey {
			sh.ops[id] = c
			sh.ix.replace(c)
		} else {
			delete(sh.ops, old.ID)
			sh.ops[c.ID] = c
			sh.ix.remove(old.CreatedAt, old.ID)
			sh.ix.insert(c)
		}
		if asDelta {
			deltas[id] = chain + 1
		} else {
			delete(deltas, id)
		}
		g := s.wal.stage(rec, 1)
		sh.mu.Unlock()
		s.wal.wake()
		*buf = rec
		putEncBuf(buf)
		s.wal.transitionWait(g)
		return nil
	}
}

// Delete removes the operation and stages its tombstone. The
// tombstone is encoded up front — wasted work when the operation turns
// out not to exist, but deletes of absent IDs are not a path worth a
// codec call inside the lock.
func (s *WALStore) Delete(id string) {
	buf := getEncBuf()
	rec := appendDeleteRecord(*buf, id)
	i := s.inner.shardIndex(id)
	sh := s.inner.shards[i]
	sh.mu.Lock()
	old, ok := sh.ops[id]
	if !ok {
		// Nothing stored means nothing to tombstone: replay of the
		// existing log already yields absence.
		sh.mu.Unlock()
		*buf = rec
		putEncBuf(buf)
		return
	}
	delete(sh.ops, id)
	delete(s.deltaN[i], id)
	sh.ix.remove(old.CreatedAt, old.ID)
	g := s.wal.stage(rec, 1)
	sh.mu.Unlock()
	s.wal.wake()
	*buf = rec
	putEncBuf(buf)
	s.wal.transitionWait(g)
}

// SweepTerminalBefore evicts expired terminal operations shard by
// shard. Each shard takes two passes so no tombstone is encoded under
// the lock: a read-locked pass collects eviction candidates, the
// tombstones are encoded lock-free, and a write-locked pass re-checks
// each candidate by pointer identity (a re-Put between the passes
// publishes a different snapshot and is left alone), evicts the
// confirmed ones, and stages their pre-encoded frames. A mass eviction
// additionally requests a compaction so the reclaimed history stops
// costing replay time.
func (s *WALStore) SweepTerminalBefore(cutoff time.Time) int {
	evicted := 0
	var last *walGen
	buf := getEncBuf()
	var cands []*core.Operation
	var offs []int
	for i, sh := range s.inner.shards {
		cands = cands[:0]
		sh.mu.RLock()
		for _, op := range sh.ix.ops {
			if op.Status.Terminal() && op.UpdatedAt.Before(cutoff) {
				cands = append(cands, op)
			}
		}
		sh.mu.RUnlock()
		if len(cands) == 0 {
			continue
		}

		// Encode every candidate's tombstone contiguously, remembering
		// frame boundaries so the confirm pass can stage per-candidate
		// slices.
		rec := (*buf)[:0]
		offs = offs[:0]
		for _, op := range cands {
			offs = append(offs, len(rec))
			rec = appendDeleteRecord(rec, op.ID)
		}
		offs = append(offs, len(rec))
		*buf = rec

		sh.mu.Lock()
		var frames []byte
		recs := 0
		confirmed := make(map[string]bool, len(cands))
		for ci, op := range cands {
			if sh.ops[op.ID] != op {
				continue // republished since the scan; not ours to evict
			}
			delete(sh.ops, op.ID)
			delete(s.deltaN[i], op.ID)
			confirmed[op.ID] = true
			frames = append(frames, rec[offs[ci]:offs[ci+1]]...)
			recs++
		}
		if recs > 0 {
			kept := sh.ix.ops[:0]
			for _, op := range sh.ix.ops {
				if !confirmed[op.ID] {
					kept = append(kept, op)
				}
			}
			for j := len(kept); j < len(sh.ix.ops); j++ {
				sh.ix.ops[j] = nil // unpin evicted snapshots
			}
			sh.ix.ops = kept
			if g := s.wal.stage(frames, recs); g != nil {
				last = g
			}
		}
		sh.mu.Unlock()
		evicted += recs
	}
	putEncBuf(buf)
	if evicted >= sweepCompactThreshold {
		s.wal.requestCompact() // wakes the committer itself
	} else {
		s.wal.wake()
	}
	s.wal.transitionWait(last)
	return evicted
}

// Len counts the stored operations.
func (s *WALStore) Len() int {
	return s.inner.Len()
}

// closeAbrupt is the crash-simulation hook for the recovery tests: the
// committer exits without the final flush, dropping staged records the
// way a killed process would.
func (s *WALStore) closeAbrupt() {
	s.wal.abort()
}
