package engine

// WALStore is the durable Store: the sharded store with its journal
// attached. Reads (0-alloc Get, O(limit) cursor List) and every mutation
// are shardedStore's own — see store_sharded.go for the one mutation
// protocol and why apply and stage share a critical section — and the
// append-only log in wal.go persists what they stage. What lives here
// is the handle around that pair: opening (recovery, wiring, start) and
// the durable extras Close, Flush and WALStats.

import (
	"fmt"
	"os"

	"opdaemon/internal/core"
)

// WALConfig configures OpenWALStore. Zero values pick the defaults
// documented per field.
type WALConfig struct {
	// Dir is the log directory, created if absent. Required.
	Dir string
	// Sync is the fsync policy (default WALSyncGroup).
	Sync WALSyncMode
	// segBytes overrides walSegBytes and maxSegs overrides walMaxSegs.
	// Tests only, like shards.
	segBytes int64
	maxSegs  int
	// shards is the in-memory index's shard count, with the same
	// semantics as NewShardedStore (default DefaultShardCount). Tests
	// only, like syncHook.
	shards int
	// syncHook replaces (*os.File).Sync for every fsync the log
	// issues. Tests only, like wal.die.
	syncHook func(*os.File) error
	// fillHook replaces (*os.File).WriteAt for the writes that zero-fill
	// a segment being prepared. Tests only, like syncHook.
	fillHook func(f *os.File, b []byte, off int64) (int, error)
}

// withDefaults resolves the zero values.
func (cfg WALConfig) withDefaults() WALConfig {
	if cfg.Sync == "" {
		cfg.Sync = WALSyncGroup
	}
	if cfg.segBytes <= 0 {
		cfg.segBytes = walSegBytes
	}
	if cfg.maxSegs <= 0 {
		cfg.maxSegs = walMaxSegs
	}
	if cfg.syncHook == nil {
		cfg.syncHook = (*os.File).Sync
	}
	if cfg.fillHook == nil {
		cfg.fillHook = (*os.File).WriteAt
	}
	return cfg
}

// WALStore is a persistent Store: the sharded store recovery replayed
// into, with the log attached; see the package comment above and
// docs/persistence.md. Close must be called to flush staged records;
// use OpenWALStore to build one.
type WALStore struct {
	*shardedStore
}

// Compile-time interface checks: a Store the engine can use, and the
// durable extension Engine.Stats surfaces.
var (
	_ Store        = (*WALStore)(nil)
	_ durableStore = (*WALStore)(nil)
)

// OpenWALStore opens (or creates) the log directory, replays snapshot
// plus segment suffix straight into a fresh sharded store — repairing a
// torn tail on the way — then attaches the log to it and starts the
// group-commit loop. The returned store is ready for traffic; the caller
// owns Close.
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
	s, layout, err := recoverWALState(cfg.Dir, cfg.shards)
	if err != nil {
		return nil, err
	}
	w, err := newWAL(cfg, layout)
	if err != nil {
		return nil, err
	}
	s.log = w
	// The compactor's full-state snapshot source is the unbounded
	// listing, which snapshots each shard under its own lock and merges
	// lock-free.
	w.snapshotFn = func() []*core.Operation {
		ops, _ := s.List(ListQuery{}) // the in-memory index cannot fail
		return ops
	}
	w.start()
	return &WALStore{s}, nil
}

// Close flushes staged records, stops the committer, and closes the
// open segment. Its error is the first commit that ever failed, if one
// did, even when the final fsync succeeds. The store must not be used
// afterwards.
func (s *WALStore) Close() error {
	return s.log.close()
}

// Flush forces a commit of everything staged so far and waits for it —
// a durability barrier for callers (and tests) that need one outside
// the per-mutation policy.
func (s *WALStore) Flush() error {
	return s.log.flush()
}

// WALStats reports the log's observability counters; Engine.Stats
// surfaces them when the engine's store is durable.
func (s *WALStore) WALStats() WALStats {
	return s.log.snapshotStats()
}

// closeAbrupt is the crash-simulation hook for the recovery tests: the
// committer exits without the final flush, dropping staged records the
// way a killed process would.
func (s *WALStore) closeAbrupt() {
	s.log.abort()
}
