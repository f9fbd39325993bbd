package engine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"log"
	"runtime"
	"sort"
	"sync"
	"time"

	"opdaemon/internal/core"
)

// DefaultShardCount is the shard count NewShardedStore picks when the
// caller passes n <= 0: the next power of two at or above
// runtime.GOMAXPROCS(0). Lock contention scales with the number of
// goroutines the scheduler can actually run at once, so the default
// tracks the hardware instead of hardcoding a count — one shard on a
// single-core container, 16 on a 16-way host. Raise it explicitly
// (e.g. the daemon's -store-shards flag) to trade memory for extra
// headroom under skewed load.
func DefaultShardCount() int {
	return nextPowerOfTwo(runtime.GOMAXPROCS(0))
}

// shardedStore is the Store: power-of-two shards, each a separately
// locked map plus an ordered index, optionally journaled. Operations are
// assigned to shards by a maphash of their ID (per-process random seed),
// so goroutines touching different operations almost always contend on
// different locks; with one shard it is the single-mutex store.
//
// Every mutation follows one protocol, whether or not there is a journal
// behind it:
//
//  1. Encode the record with no lock held, and only when journaled
//     (lockscope's codec rule machine-enforces the "no lock" half), so a
//     critical section is a few pointer writes and a memcpy, never a
//     marshal.
//  2. Apply to memory and stage the prepared bytes under the shard's
//     write lock. The journal must record mutations in the same per-ID
//     order the index publishes them, or replay could resurrect a stale
//     state; doing both in one critical section is what guarantees it.
//     That nests walBatch.mu inside storeShard.mu — the one sanctioned
//     lock nesting, policed by lockscope — and it is why writers never
//     touch the file themselves: file I/O under a shard lock would stall
//     every operation on the shard for an fsync.
//  3. Wake the committer and wait out the sync policy after the unlock.
//
// Without a journal steps 1 and 3 vanish: log is nil and every *wal
// method the store calls is a no-op on a nil receiver.
type shardedStore struct {
	shards []*storeShard
	// mask is len(shards)-1; with a power-of-two shard count,
	// hash&mask selects a shard without a modulo.
	mask uint32
	// log is the journal OpenWALStore attaches; nil for a memory-only
	// store.
	log *wal
}

// maxShardCount bounds the shard count. 2^16 shards is far beyond any
// useful lock granularity, and the cap keeps the power-of-two
// round-up below integer-overflow territory.
const maxShardCount = 1 << 16

// ShardCount is the shard count a store asked for n gets: the
// GOMAXPROCS-scaled default for n <= 0, the maxShardCount clamp, then
// the power-of-two round-up the mask needs.
func ShardCount(n int) int {
	if n <= 0 {
		n = DefaultShardCount()
	}
	return nextPowerOfTwo(min(n, maxShardCount))
}

// NewShardedStore returns an empty memory-only Store partitioned across
// n hash-selected shards. n is rounded up to the next power of two so
// shard selection is a bit mask; n <= 0 selects DefaultShardCount() and
// n > 65536 is clamped there. n == 1 is the single-mutex store, useful
// as the uncontended baseline in benchmarks.
func NewShardedStore(n int) Store {
	return newShardedStore(n)
}

// newShardedStore builds an empty store with no journal; OpenWALStore
// attaches one after replaying into it.
func newShardedStore(n int) *shardedStore {
	n = ShardCount(n)
	s := &shardedStore{
		shards: make([]*storeShard, n),
		mask:   uint32(n - 1),
	}
	for i := range s.shards {
		s.shards[i] = &storeShard{ops: make(map[string]*core.Operation)}
	}
	return s
}

// nextPowerOfTwo returns the smallest power of two >= n, for n >= 1.
func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shard maps an operation ID to its partition.
func (s *shardedStore) shard(id string) *storeShard {
	return s.shards[s.shardIndex(id)]
}

// encBuf returns a pooled record buffer when there is a journal to
// encode for and nil otherwise; putEncBuf takes either back.
func (s *shardedStore) encBuf() *[]byte {
	if s.log == nil {
		return nil
	}
	return getEncBuf()
}

// Put inserts or replaces the operation and waits out the sync policy's
// admission durability (see WALSyncMode): a batch of one.
func (s *shardedStore) Put(op *core.Operation) {
	ops := [1]*core.Operation{op}
	s.PutBatch(ops[:])
}

// PutBatch inserts or replaces every operation, taking each shard's
// lock at most once, then wakes the committer once and waits for
// durability once for the whole batch.
func (s *shardedStore) PutBatch(ops []*core.Operation) {
	if len(ops) == 0 {
		return
	}
	buf := s.encBuf()
	var last *walGen
	if len(ops) == 1 || len(s.shards) == 1 {
		// One bucket by construction. Single-op batches (every Submit
		// routes through here) must skip the bucket table — its
		// O(shard-count) allocation would dominate the hot path it
		// exists to amortise.
		last = s.putBucket(s.shard(ops[0].ID), ops, buf)
	} else {
		for i, bucket := range s.bucket(ops) {
			if len(bucket) == 0 {
				continue
			}
			if g := s.putBucket(s.shards[i], bucket, buf); g != nil {
				last = g
			}
		}
	}
	putEncBuf(buf)
	// One wake after the last bucket: the committer commits the moment
	// it is woken, so waking per bucket would split this batch over two
	// generations and make it wait out two fsyncs. Another writer's wake
	// can still split it; waiting on the newest ticket covers every
	// staged record regardless, because generations commit in order.
	s.log.wake()
	s.log.admitWait(last)
}

// putBucket publishes ops, all of which hash to sh, in one critical
// section and returns the ticket of the generation their records
// boarded. The records are encoded before the lock — they capture the
// operations as handed over, which ownership transfer makes stable —
// and staged inside it, keeping log order equal to publish order.
func (s *shardedStore) putBucket(sh *storeShard, ops []*core.Operation, buf *[]byte) *walGen {
	var frames []byte
	recs := 0
	if buf != nil {
		frames = (*buf)[:0]
		for _, op := range ops {
			next, err := encodeOpRecordV2(frames, op)
			frames = next // on error the encoder rewound to the frame mark
			if err != nil {
				// Memory-only fallback: the mutation still applies but
				// will not survive a restart.
				log.Printf("engine: %v; operation is not durable", err)
				continue
			}
			recs++
		}
		*buf = frames
	}
	sh.mu.Lock()
	for _, op := range ops {
		sh.putLocked(op)
	}
	g := s.log.stage(frames, recs)
	sh.mu.Unlock()
	return g
}

// bucket groups ops by shard index, outside any lock.
func (s *shardedStore) bucket(ops []*core.Operation) [][]*core.Operation {
	buckets := make([][]*core.Operation, len(s.shards))
	for _, op := range ops {
		i := s.shardIndex(op.ID)
		buckets[i] = append(buckets[i], op)
	}
	return buckets
}

// indexAll builds every shard's index from its map, for a store whose
// maps were filled without one: recovery replay keeps only the maps,
// since an index kept in step would cost an ordered insert, replace or
// remove per record. One sort per shard, the shards in parallel, replaces
// them. For a store not yet serving traffic; nothing is locked.
func (s *shardedStore) indexAll() {
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix := make([]*core.Operation, 0, len(sh.ops))
			for _, op := range sh.ops {
				ix = append(ix, op)
			}
			sort.Slice(ix, func(a, b int) bool {
				return opBefore(ix[a], ix[b].CreatedAt, ix[b].ID)
			})
			sh.ix.ops = ix
		}()
	}
	wg.Wait()
}

// shardSeed keys the shard hash. One process-wide random seed keeps
// shard assignment stable for the process lifetime while preventing an
// external party from predicting (and deliberately skewing) the
// distribution.
var shardSeed = maphash.MakeSeed()

// shardIndex hashes an operation ID to a shard index using the
// runtime's maphash — the same hardware-accelerated, allocation-free
// hash Go maps use, so shard selection costs single-digit nanoseconds
// even for long keys.
func (s *shardedStore) shardIndex(id string) int {
	return int(uint32(maphash.String(shardSeed, id)) & s.mask)
}

func (s *shardedStore) Get(id string) (*core.Operation, error) {
	return s.shard(id).get(id)
}

// List k-way-merges the shard index tails newest-first. It visits the
// shards in turn and, under each shard's read lock alone, copies the run
// at or below the cursor into one shared buffer (pointer copies: the
// snapshots are immutable), then merges the runs lock-free. A bounded
// unfiltered page copies at most q.Limit entries per shard, since no
// shard can contribute more. List never holds one shard while it waits
// for another, so a writer queued on one cannot stall the others.
//
// List is not a cross-shard point-in-time snapshot (an op stored
// concurrently may or may not appear), matching the interface contract
// which only promises per-op snapshot consistency.
func (s *shardedStore) List(q ListQuery) ([]*core.Operation, error) {
	// Resolve the cursor up front via its shard's own lock: an
	// unknown cursor is an empty page, and a known one contributes
	// only its immutable (CreatedAt, ID) key — still a correct resume
	// point even if the op is evicted before the merge below runs.
	var key *core.Operation
	if q.Cursor != "" {
		op, err := s.shard(q.Cursor).get(q.Cursor)
		if err != nil {
			return []*core.Operation{}, nil
		}
		key = op
	}

	cursors := make([]listCursor, len(s.shards))
	var runs []*core.Operation
	for i, sh := range s.shards {
		sh.mu.RLock()
		end := sh.startPos(key) + 1
		from := 0
		if q.Limit > 0 && q.Status == "" {
			from = max(0, end-q.Limit)
		}
		if i == 0 {
			// The hash balances the shards, so the first run sizes the
			// buffer for all of them, never beyond what is stored.
			runs = make([]*core.Operation, 0, len(s.shards)*(end-from))
		}
		runs = append(runs, sh.ix.ops[from:end]...)
		sh.mu.RUnlock()
		// A later append may move runs; this run stays where it is.
		n := end - from
		cursors[i] = listCursor{ops: runs[len(runs)-n:], pos: n - 1}
	}
	return collectNewest(cursors, q), nil
}

// errImmutableUpdate is Update's refusal of a callback that changed a
// field outside the mutable set.
var errImmutableUpdate = errors.New("update may change only status, updated_at, cancelled_at, error and result")

// Update applies fn to a private clone of a lock-free snapshot read,
// encodes the result (when journaled) with no lock held, then publishes
// clone and staged record atomically under the shard's write lock — but
// only if the shard still maps id to the pointer read at the start.
// Published snapshots are immutable, so the same pointer proves nothing
// intervened and the publish is ordered correctly; otherwise the whole
// read-mutate-encode round retries against the fresh snapshot (so fn may
// run more than once — see Store.Update's contract). Contention on one
// ID is engine-rare (a transition race with Cancel), so retries are too.
//
// Only the mutable set may change (core.DeltaEligible), so the index key
// never moves and every update journals one delta record. Under
// WALSyncAlways the caller waits for the fsync; group mode logs
// transitions asynchronously (see WALSyncMode).
func (s *shardedStore) Update(id string, fn func(op *core.Operation)) error {
	sh := s.shard(id)
	for {
		sh.mu.RLock()
		old, ok := sh.ops[id]
		sh.mu.RUnlock()
		if !ok {
			return core.ErrNotFound
		}

		c := old.Clone()
		fn(c)
		if !core.DeltaEligible(old, c) {
			return fmt.Errorf("engine: %s: %w", id, errImmutableUpdate)
		}
		if sameMutable(old, c) {
			// fn changed nothing: there is nothing to publish or journal,
			// provided what fn decided against is still the published
			// snapshot.
			sh.mu.RLock()
			current := sh.ops[id] == old
			sh.mu.RUnlock()
			if current {
				return nil
			}
			continue
		}
		buf := s.encBuf()
		var rec []byte
		if buf != nil {
			rec = encodeDeltaRecordV2(*buf, c)
			*buf = rec
		}

		sh.mu.Lock()
		if sh.ops[id] != old {
			// A conflicting publish (another update, an eviction, a re-put)
			// landed between snapshot and lock: the clone and record
			// describe a stale base. Drop both and retry.
			sh.mu.Unlock()
			putEncBuf(buf)
			continue
		}
		sh.ops[id] = c
		sh.ix.replace(c)
		g := s.log.stage(rec, 1)
		sh.mu.Unlock()
		s.log.wake()
		putEncBuf(buf)
		s.log.transitionWait(g)
		return nil
	}
}

// sameMutable reports whether b carries a's mutable set unchanged.
func sameMutable(a, b *core.Operation) bool {
	return a.Status == b.Status && a.UpdatedAt.Equal(b.UpdatedAt) &&
		a.CancelledAt.Equal(b.CancelledAt) && a.Error == b.Error &&
		bytes.Equal(a.Result, b.Result)
}

// SweepTerminalBefore is the only way an operation leaves the store. It
// evicts expired terminal operations one shard at a time — it never
// holds more than one lock, so per-operation traffic on other shards is
// unaffected. Each shard takes two passes so no tombstone is encoded
// under the lock and a tick that finds nothing expired never takes a
// write lock: a read-locked pass collects candidates, their tombstones
// are encoded lock-free (when journaled), and a write-locked pass evicts
// the candidates still published and stages exactly their frames.
func (s *shardedStore) SweepTerminalBefore(cutoff time.Time) int {
	evicted := 0
	var last *walGen
	buf := s.encBuf()
	var cands []*core.Operation
	for _, sh := range s.shards {
		cands = sh.expiredTerminal(cands[:0], cutoff)
		if len(cands) == 0 {
			continue
		}
		var tombs []byte
		if buf != nil {
			tombs = (*buf)[:0]
			for _, op := range cands {
				tombs = appendDeleteRecord(tombs, op.ID)
			}
			*buf = tombs
		}
		sh.mu.Lock()
		n, staged := sh.evictLocked(cands, tombs)
		if g := s.log.stage(staged, n); g != nil {
			last = g
		}
		sh.mu.Unlock()
		evicted += n
	}
	putEncBuf(buf)
	if last != nil {
		s.log.wake()
	}
	s.log.transitionWait(last)
	return evicted
}

func (s *shardedStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.len()
	}
	return n
}
