// Package engine schedules and executes operations on a bounded worker
// pool, recording their lifecycle in a Store. It is the only writer of
// operation state; the API layer reads snapshots through the engine.
//
// Every operation runs under its own context.Context, derived from the
// engine's run context: cancelling the operation (Cancel), exceeding
// its per-kind deadline, or shutting the engine down all signal the
// handler through that one context, and the engine records the
// corresponding terminal state when the handler returns.
package engine

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"opdaemon/internal/core"
)

// Handler executes one kind of operation. It receives the operation's
// own context — cancelled when the operation is aborted, its deadline
// expires, or the engine shuts down — and the operation's published
// snapshot (immutable and shared; read it, never mutate it), and
// returns a JSON-serialisable result or an error. A result that is
// already JSON may be returned as a json.RawMessage: the engine checks
// it and publishes those very bytes instead of encoding a value again,
// so the handler must never modify them afterwards (a handler with a
// constant result can return one shared value). Handlers that honour
// ctx are cancellable; handlers that ignore it run to completion
// regardless.
type Handler func(ctx context.Context, op *core.Operation) (any, error)

// registration is a handler plus its per-kind execution options.
type registration struct {
	h Handler
	// deadline bounds one execution of this kind; zero is unbounded.
	deadline time.Duration
}

// RegisterOption tunes one kind's registration; WithDeadline makes one.
type RegisterOption struct{ deadline time.Duration }

// WithDeadline bounds each execution of the kind: the operation's
// context is cancelled after d and the operation is recorded as failed
// with a deadline error. d <= 0 means no per-kind bound.
func WithDeadline(d time.Duration) RegisterOption {
	return RegisterOption{deadline: max(d, 0)}
}

// Config tunes an Engine. Zero values pick the defaults documented per
// field.
type Config struct {
	// Workers is the number of concurrent executors (default 4).
	Workers int
	// QueueDepth bounds the number of accepted operations no worker
	// has picked up yet (default 1024). Submissions beyond it fail
	// fast with core.ErrQueueFull instead of blocking the API.
	QueueDepth int
	// Store holds operation state (default
	// NewShardedStore(DefaultShardCount)).
	Store Store
	// Clock returns the current time; overridable in tests.
	Clock func() time.Time
	// OpTTL is how long terminal operations are retained. Zero keeps
	// them forever; a positive TTL starts a janitor goroutine that
	// evicts terminal operations whose last update is older than the
	// TTL, bounding store memory under sustained load.
	OpTTL time.Duration
	// GCInterval is how often the janitor sweeps (default OpTTL/2,
	// floored at one second). Ignored when OpTTL is zero.
	GCInterval time.Duration
	// noticeRing overrides noticeRingSize. Tests only.
	noticeRing int
}

// Engine owns the operation lifecycle: it accepts submissions, runs
// them on a worker pool, and exposes read access to their state.
type Engine struct {
	store      Store
	clock      func() time.Time
	workers    int
	opTTL      time.Duration
	gcInterval time.Duration
	// sched holds accepted-but-undispatched operations in priority
	// bands of per-client round-robin queues, and owns admission: the
	// depth bound, shutdown's closed flag, the drain rate and the
	// wake-up of idle workers all live behind its one mutex (see
	// schedQueue).
	sched       *schedQueue
	drained     chan struct{}
	janitorStop chan struct{}
	wg          sync.WaitGroup
	runCtx      context.Context
	runStop     context.CancelFunc
	// handlers is the published handler table, immutable once stored:
	// Register swaps in a copy, so readers load it and take no lock.
	handlers atomic.Pointer[map[string]registration]

	// inflight is the side table beside the store (see watch.go): the
	// running handlers' cancel functions, which Cancel looks up, the
	// long-poll waiters behind AwaitChange, which every published
	// transition wakes by operation ID, and the bounded notices ring
	// behind Notices/AwaitNotices. It has its own lock, so it does not
	// contend with the store; its publish is the single fan-out point
	// after a state change lands in the store.
	inflight *inflight
}

// New builds and starts an engine; workers begin draining the queue
// immediately, and a janitor goroutine starts when OpTTL is set.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.Store == nil {
		cfg.Store = NewShardedStore(0)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.noticeRing <= 0 {
		cfg.noticeRing = noticeRingSize
	}
	if cfg.OpTTL > 0 && cfg.GCInterval <= 0 {
		cfg.GCInterval = cfg.OpTTL / 2
		if cfg.GCInterval < time.Second {
			cfg.GCInterval = time.Second
		}
	}
	// The engine's run context is the process-lifetime root that every
	// handler context derives from; it is cancelled by Shutdown, not by
	// any caller, so a detached root is the correct shape here.
	//lint:allow opdaemon/ctxdiscipline engine run-root is owned by Shutdown, not a caller
	ctx, stop := context.WithCancel(context.Background())
	e := &Engine{
		store:       cfg.Store,
		clock:       cfg.Clock,
		workers:     cfg.Workers,
		opTTL:       cfg.OpTTL,
		gcInterval:  cfg.GCInterval,
		sched:       newSchedQueue(cfg.QueueDepth),
		drained:     make(chan struct{}),
		janitorStop: make(chan struct{}),
		runCtx:      ctx,
		runStop:     stop,
		inflight:    newInflight(cfg.noticeRing),
	}
	e.handlers.Store(&map[string]registration{})
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	if e.opTTL > 0 {
		e.wg.Add(1)
		go e.janitor()
	}
	return e
}

// Register installs the handler for an operation kind. Registering
// after submissions have started is safe; re-registering replaces the
// previous handler and its options.
func (e *Engine) Register(kind string, h Handler, opts ...RegisterOption) {
	reg := registration{h: h}
	for _, opt := range opts {
		reg.deadline = opt.deadline
	}
	for {
		old := e.handlers.Load()
		next := maps.Clone(*old)
		next[kind] = reg
		if e.handlers.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Kinds returns the registered operation kinds in sorted order, for
// diagnostics.
func (e *Engine) Kinds() []string {
	return slices.Sorted(maps.Keys(*e.handlers.Load()))
}

// Stats is a point-in-time saturation snapshot, cheap enough to serve
// on every health poll.
type Stats struct {
	// Workers is the configured executor count.
	Workers int `json:"workers"`
	// QueueDepth is the number of accepted operations no worker has
	// picked up yet: those scheduled for dispatch plus those admitted
	// and still being stored.
	QueueDepth int `json:"queue_depth"`
	// QueueCapacity is the configured queue bound; submissions beyond
	// it fail fast.
	QueueCapacity int `json:"queue_capacity"`
	// StoreLen is the number of operations currently retained.
	StoreLen int `json:"store_len"`
	// WatchWaiters is the number of long-poll waiters currently
	// registered.
	WatchWaiters int `json:"watch_waiters"`
	// LastNotice is the newest sequence number assigned in the notices
	// feed (0 before the first transition).
	LastNotice uint64 `json:"last_notice"`
	// QueueBands is the scheduled (not yet dispatched) operation count
	// per priority band.
	QueueBands map[string]int `json:"queue_bands"`
	// QueueClients is the scheduled operation count per client key,
	// aggregated across bands. Anonymous submissions share the ""
	// key.
	QueueClients map[string]int `json:"queue_clients"`
	// DrainPerSec is the observed dequeue rate over the trailing
	// window, the denominator of Retry-After.
	DrainPerSec float64 `json:"drain_per_sec"`
	// Durable reports whether the store persists state across restarts
	// (a WAL backend); the embedded WAL counters are zero when it is false.
	Durable bool `json:"durable"`
	WALStats
}

// durableStore is the optional extension a persistent Store
// implements; Stats surfaces its counters when the engine's store has
// them.
type durableStore interface {
	WALStats() WALStats
}

// Stats reports queue and store saturation from one consistent reading
// of the scheduler; QueueDepth also counts operations admitted but not
// yet scheduled, which QueueBands and QueueClients cannot attribute yet.
func (e *Engine) Stats() Stats {
	depth, rate, bands, clients := e.sched.depths(e.clock())
	waiters, last := e.inflight.counts()
	st := Stats{
		Workers:       e.workers,
		QueueDepth:    depth,
		QueueCapacity: e.sched.capacity,
		StoreLen:      e.store.Len(),
		WatchWaiters:  waiters,
		LastNotice:    last,
		QueueBands:    bands,
		QueueClients:  clients,
		DrainPerSec:   rate,
	}
	if ds, ok := e.store.(durableStore); ok {
		st.Durable, st.WALStats = true, ds.WALStats()
	}
	return st
}

// retryCeiling bounds RetryAfter so refused clients never back off for
// longer than the queue could plausibly take to drain.
const retryCeiling = 30 * time.Second

// RetryAfter estimates how long a refused client should wait before
// resubmitting: current queue depth over the observed drain rate,
// clamped to [1s, 30s]. With no observed drain (cold start, wedged
// handlers) it returns the ceiling — the honest answer is "a while".
func (e *Engine) RetryAfter() time.Duration {
	depth, rate := e.sched.depth(e.clock())
	if rate <= 0 {
		return retryCeiling
	}
	d := time.Duration(math.Ceil(float64(depth)/rate)) * time.Second
	if d < time.Second {
		return time.Second
	}
	if d > retryCeiling {
		return retryCeiling
	}
	return d
}

// BatchItem describes one operation in a batch submission. It is the
// wire type of the submit body, so the API's decoder builds the
// engine's input directly.
type BatchItem = core.SubmitItem

// SubmitOption tunes one Submit or SubmitBatch call; AsClient makes one.
type SubmitOption struct{ client string }

// AsClient attributes the submission to a client key; the scheduler's
// fair queueing guarantees each key its share of dispatches, so one
// hot tenant cannot starve the rest. Empty (the default) pools the
// submission with all other anonymous work.
func AsClient(key string) SubmitOption {
	return SubmitOption{client: key}
}

// Submit validates and enqueues an operation of the given kind,
// returning its queued snapshot. It fails fast with
// core.ErrUnknownKind, core.ErrShuttingDown or core.ErrQueueFull. The
// context covers admission only — a caller that has already given up
// (request aborted, client gone) is rejected with its ctx error instead
// of enqueuing work nobody will read; it does not bound the operation's
// execution, which is governed by the kind's deadline.
func (e *Engine) Submit(ctx context.Context, kind string, params map[string]any, opts ...SubmitOption) (*core.Operation, error) {
	ops, err := e.SubmitBatch(ctx, []BatchItem{{Kind: kind, Params: params}}, opts...)
	if err != nil {
		return nil, core.UnwrapSingle(err)
	}
	return ops[0], nil
}

// SubmitBatch validates and enqueues a batch of operations atomically:
// either every item is accepted and queued snapshots are returned in
// batch order, or nothing is enqueued. Validation failures are
// reported per item through *core.BatchError; capacity and shutdown
// failures (core.ErrQueueFull, core.ErrShuttingDown) apply to the batch
// as a whole. Store writes are amortised into a single PutBatch call, so
// large batches take each store lock O(shards) times instead of
// O(items). The context covers admission only (see Submit): once the
// batch is validated and admitted it commits, so a context cancelled
// mid-flight never yields a half-enqueued batch. Nothing of a refused batch is ever stored, and a
// batch admitted just before Shutdown is drained with the rest.
func (e *Engine) SubmitBatch(ctx context.Context, items []BatchItem, opts ...SubmitOption) ([]*core.Operation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, &core.InvalidError{Field: "batch", Reason: "must contain at least one item"}
	}
	if len(items) > e.sched.capacity {
		// Such a batch can never be accepted, so reject it as a
		// client error rather than ErrQueueFull, whose "retry later"
		// semantics would have the client retry forever.
		return nil, &core.InvalidError{
			Field:  "batch",
			Reason: fmt.Sprintf("size %d exceeds queue capacity %d", len(items), e.sched.capacity),
		}
	}
	var client string
	for _, opt := range opts {
		client = opt.client
	}

	// Validate every item before touching the queue or store, so a
	// rejected batch leaves no trace and the client learns about all
	// bad items in one round trip. One load of the handler table covers
	// the whole loop, so every item is checked against the same
	// registrations. The kind's deadline and the item's priority go
	// straight into the operation record here, so it carries the
	// attributes it was accepted under even if the kind is re-registered
	// before a worker picks it up.
	var berr *core.BatchError
	ops := make([]*core.Operation, len(items))
	for i, it := range items {
		ops[i] = &core.Operation{
			Kind:     it.Kind,
			Params:   it.Params,
			Status:   core.StatusQueued,
			Priority: cmp.Or(it.Priority, core.PriorityNormal),
			Client:   client,
		}
	}
	handlers := *e.handlers.Load()
	for i, it := range items {
		var err error
		switch {
		case it.Kind == "":
			err = &core.InvalidError{Field: "kind", Reason: "must not be empty"}
		case it.Priority != "" && !it.Priority.Valid():
			err = &core.InvalidError{
				Field:  "priority",
				Reason: fmt.Sprintf("must be low, normal, or high, got %q", it.Priority),
			}
		default:
			reg, ok := handlers[it.Kind]
			if !ok {
				err = fmt.Errorf("%w: %q", core.ErrUnknownKind, it.Kind)
				break
			}
			ops[i].Deadline = reg.deadline
		}
		if err != nil {
			if berr == nil {
				berr = &core.BatchError{Total: len(items)}
			}
			berr.Items = append(berr.Items, core.BatchItemError{Index: i, Err: err})
		}
	}
	if berr != nil {
		return nil, berr
	}

	// now keeps its monotonic reading for the scheduler's ageing
	// arithmetic; what is recorded on the operations does not (see
	// stamp).
	now := e.clock()
	born := now.Round(0)
	for _, op := range ops {
		op.ID = core.NewID()
		op.CreatedAt, op.UpdatedAt = born, born
	}

	// Admission is decided before anything is stored, so a refused
	// batch is never visible through Get/List, and what is admitted is
	// stored with no lock held, so a (possibly slow, pluggable) PutBatch
	// does not serialize submitters. From here the batch commits: its
	// reservation counts as queue depth and Shutdown's drain waits for it.
	if err := e.sched.reserve(len(ops)); err != nil {
		return nil, err
	}
	e.store.PutBatch(ops)
	// Record the birth transitions in the feed so a notices watcher
	// sees new operations appear, not just settle — and before commit
	// lets a worker at them, or a fast operation's running notice could
	// precede its queued one. No waiter wake: a client cannot hold a
	// waiter for an ID it has not been handed yet, and the submit
	// response already carries the queued snapshot.
	e.inflight.born(ops)
	e.sched.commit(ops, now)
	return ops, nil
}

// Get returns the operation's published snapshot, or core.ErrNotFound.
// The snapshot is an immutable shared pointer — it never changes, and
// callers must not mutate it.
func (e *Engine) Get(id string) (*core.Operation, error) {
	return e.store.Get(id)
}

// List returns the page of published snapshots selected by q, newest
// first (ties broken by ascending ID). An unfiltered page costs
// O(limit), not O(store size); a status-filtered one copies every
// retained entry. See ListQuery for cursor and filter semantics.
func (e *Engine) List(q ListQuery) ([]*core.Operation, error) {
	return e.store.List(q)
}

// Cancel aborts the operation and returns the snapshot it published. A
// queued operation moves straight to cancelled and its handler never
// runs; a running operation has its context cancelled with
// core.ErrCancelled and settles as cancelled once the handler
// returns — the returned snapshot may still show it running, so
// callers poll for the terminal state. Cancel returns
// core.ErrNotFound for an unknown ID and core.ErrAlreadyTerminal for
// an operation that already settled (including one whose handler
// finished in the race window before the cancel landed).
func (e *Engine) Cancel(id string) (*core.Operation, error) {
	cancelled, running := false, false
	var snap *core.Operation
	err := e.store.Update(id, func(op *core.Operation) {
		// Update may invoke fn more than once (optimistic stores retry
		// on conflict), so captured state is reset and assigned from
		// this attempt's snapshot alone — never toggled cumulatively.
		// The clone of the attempt that publishes is the published
		// snapshot (Update's contract), so it is what Cancel returns; a
		// repeated cancel of a running operation changes nothing and
		// returns an equal copy.
		cancelled, running = false, false
		snap = op
		switch op.Status {
		case core.StatusQueued:
			// queued → cancelled is always a legal step, so this cannot
			// refuse; Transition stamps UpdatedAt and CancelledAt.
			op.Transition(core.StatusCancelled, e.stamp())
			op.Error = core.ErrCancelled.Error()
			cancelled = true
		case core.StatusRunning:
			// Stamp the request time now — the handler may take a
			// while to unwind, and CancelledAt records when the abort
			// was asked for, not when it finished. The status stays
			// running until the handler returns.
			if op.CancelledAt.IsZero() {
				op.CancelledAt = e.stamp()
			}
			running = true
		}
	})
	if err != nil {
		return nil, err
	}
	if cancelled {
		// The queued→cancelled step bypasses transitioner.do, so it
		// publishes here. The running branch does not: stamping
		// CancelledAt is not a status change, and the terminal
		// transition recorded when the handler unwinds publishes then.
		e.inflight.publish(snap)
	}
	if running {
		// The cancel function is installed before the queued→running
		// transition and retired only after the terminal one, so a
		// store status of running guarantees it is present — unless
		// the handler finished in between, in which case the missing
		// entry (or cancelling the dead context) is a harmless no-op
		// and the poll shows the operation's actual outcome.
		e.inflight.cancel(id, core.ErrCancelled)
	}
	if !cancelled && !running {
		return nil, fmt.Errorf("%w: %s", core.ErrAlreadyTerminal, id)
	}
	return snap, nil
}

// Shutdown stops accepting submissions, drains queued operations —
// including any batch admitted before the call and still being stored —
// and waits for in-flight handlers and any janitor sweep to finish. If
// ctx expires first, the handlers' run context is cancelled — and with
// it every in-flight operation's context, the same path Cancel uses —
// and Shutdown returns ctx.Err() immediately; a handler that ignores
// its context may still be running, so the caller decides whether to
// wait longer or exit. Concurrent and repeated calls all observe the
// same drain.
func (e *Engine) Shutdown(ctx context.Context) error {
	if e.sched.close() {
		close(e.janitorStop)
		go func() {
			e.wg.Wait()
			close(e.drained)
		}()
	}

	select {
	case <-e.drained:
		e.runStop()
		return nil
	case <-ctx.Done():
		e.runStop()
		// Both channels may be ready at once; prefer reporting a
		// completed drain over a coin-flip deadline error.
		select {
		case <-e.drained:
			return nil
		default:
			return ctx.Err()
		}
	}
}

// Recover re-arms the work a freshly opened durable store replayed:
// operations recorded as queued are re-enqueued for dispatch (oldest
// first, so recovered work keeps its original ordering), and
// operations recorded as running are settled as failed with
// core.ErrInterrupted — their handlers' in-memory progress died with
// the previous process, and silently re-executing half-done work is
// worse than an honest failure the client can retry. Call it once,
// after New and handler registration, before serving traffic. It
// returns how many operations were requeued and how many were marked
// interrupted; recovered queued work goes through the same admission
// as a submission, and what the queue's capacity no longer admits is
// also marked interrupted rather than dropped. The context bounds the
// walk, not the recovered operations' execution.
func (e *Engine) Recover(ctx context.Context) (requeued, interrupted int, err error) {
	ops, err := e.store.List(ListQuery{})
	if err != nil {
		return 0, 0, fmt.Errorf("listing store for recovery: %w", err)
	}
	tr := newTransitioner(e)
	// List is newest-first; walk backwards so requeueing preserves the
	// original submission order within each band.
	const logEvery = 50_000
	for i := len(ops) - 1; i >= 0; i-- {
		if cerr := ctx.Err(); cerr != nil {
			return requeued, interrupted, cerr
		}
		if walked := len(ops) - i; walked%logEvery == 0 {
			// A big replayed store takes a while to re-arm; say so
			// instead of booting silently.
			log.Printf("engine: recovery scanned %d/%d operations (%d requeued, %d interrupted)",
				walked, len(ops), requeued, interrupted)
		}
		op := ops[i]
		switch op.Status {
		case core.StatusRunning:
			if tr.do(op.ID, core.StatusFailed, nil, core.ErrInterrupted) {
				interrupted++
			}
		case core.StatusQueued:
			switch err := e.sched.reserve(1); {
			case err == nil:
				// Re-announce the queued operation in the (empty after
				// restart) notices feed, mirroring SubmitBatch's birth
				// notice.
				e.inflight.born(ops[i : i+1])
				e.sched.commit(ops[i:i+1], e.clock())
				requeued++
			case errors.Is(err, core.ErrShuttingDown):
				return requeued, interrupted, err
			default:
				// More recovered work than the queue admits; failing the
				// overflow honestly beats dropping it silently.
				if tr.do(op.ID, core.StatusFailed, nil, core.ErrInterrupted) {
					interrupted++
				}
			}
		}
	}
	return requeued, interrupted, nil
}

// janitor periodically evicts expired terminal operations until
// Shutdown stops it; Shutdown's drain waits for a sweep in progress.
func (e *Engine) janitor() {
	defer e.wg.Done()
	t := time.NewTicker(e.gcInterval)
	defer t.Stop()
	for {
		select {
		case <-e.janitorStop:
			return
		case <-t.C:
			// select picks at random when a tick and the stop are both
			// ready: once Shutdown has begun, start no new sweep.
			select {
			case <-e.janitorStop:
				return
			default:
			}
			if n := e.GC(); n > 0 {
				log.Printf("engine: janitor evicted %d terminal operations older than %s", n, e.opTTL)
			}
		}
	}
}

// GC evicts terminal operations whose last update is older than the
// configured TTL and returns how many it removed. Queued and running
// operations are never evicted — a terminal status can never regress,
// so sweeping by status is race-free. GC is a no-op when no TTL is
// configured; the janitor calls it on every tick, and tests may call
// it directly. The sweep runs inside the store (no clones, no
// sorting), so a large retained history doesn't turn every tick into
// an allocation storm.
func (e *Engine) GC() int {
	if e.opTTL <= 0 {
		return 0
	}
	return e.store.SweepTerminalBefore(e.clock().Add(-e.opTTL))
}

func (e *Engine) worker() {
	defer e.wg.Done()
	// One call record serves every transition this worker ever makes.
	tr := newTransitioner(e)
	// Which operation runs next is decided here, at dispatch time, by
	// the scheduler's priority/fairness order rather than by arrival
	// order. The clock is read outside the scheduler's lock, and again
	// after every park: take returns empty-handed from one rather than
	// dispatch on a reading that predates the wait.
	for {
		now := e.clock()
		op, done := e.sched.take(now)
		if done {
			return
		}
		if op != nil {
			e.run(tr, op)
		}
	}
}

// run executes one dispatched operation. op is the queued snapshot the
// scheduler carried from SubmitBatch (or Recover) — what the handler is
// handed; whether the operation is still queued is decided by the
// running transition, not by re-reading the store.
func (e *Engine) run(tr *transitioner, op *core.Operation) {
	id := op.ID
	reg, ok := (*e.handlers.Load())[op.Kind]
	if !ok {
		tr.do(id, core.StatusFailed, nil, fmt.Errorf("%w: %q", core.ErrUnknownKind, op.Kind))
		return
	}

	// The operation's own context: child of the engine run context
	// (shutdown deadline), cancellable by Cancel with a cause, and
	// bounded by the deadline fixed at submission.
	ctx, cancel := context.WithCancelCause(e.runCtx)
	defer cancel(nil)
	if op.Deadline > 0 {
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(ctx, op.Deadline)
		defer cancelDeadline()
	}

	// Publish the cancel func before the running transition and
	// retire it only after the terminal one, so Cancel observing
	// status running always finds it.
	e.inflight.install(id, cancel)
	defer e.inflight.retire(id)

	if !tr.do(id, core.StatusRunning, nil, nil) {
		// Cancelled while queued; never run the handler.
		return
	}
	result, err := e.invoke(ctx, reg.h, op)
	if err != nil && errors.Is(context.Cause(ctx), core.ErrCancelled) {
		// The client asked for cancellation and the handler gave up;
		// record cancelled no matter what error it returned. A
		// handler that completed successfully despite the cancel
		// keeps its result instead.
		tr.do(id, core.StatusCancelled, nil, core.ErrCancelled)
		return
	}
	if err != nil {
		tr.do(id, core.StatusFailed, nil, err)
		return
	}
	raw, err := encodeResult(result)
	if err != nil {
		tr.do(id, core.StatusFailed, nil, fmt.Errorf("result not serializable: %w", err))
		return
	}
	tr.do(id, core.StatusDone, raw, nil)
}

// encodeResult turns a handler's return value into the bytes stored as
// the operation's Result. A json.RawMessage already in encoding/json's
// output form is published as it is — no copy, no second encoding;
// anything else is encoded to exactly what json.Marshal would produce.
func encodeResult(result any) (json.RawMessage, error) {
	if result == nil {
		return nil, nil
	}
	if raw, ok := result.(json.RawMessage); ok && core.CanonicalJSON(raw) {
		return raw, nil
	}
	return core.AppendJSONValue(nil, result)
}

// invoke runs the handler, converting a panic into an error so one
// bad handler fails its operation instead of killing the daemon.
func (e *Engine) invoke(ctx context.Context, h Handler, op *core.Operation) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("engine: handler for %s (kind %s) panicked: %v", op.ID, op.Kind, r)
			result, err = nil, fmt.Errorf("handler panicked: %v", r)
		}
	}()
	return h(ctx, op)
}

// stamp is the time the engine records on an operation: the clock's
// reading without its monotonic part. The store index orders by these
// fields while JSON and the WAL publish the wall clock only, so a
// monotonic reading would make the order before a restart differ from
// the order after it.
func (e *Engine) stamp() time.Time {
	return e.clock().Round(0)
}

// transitioner makes lifecycle transitions: do atomically moves an
// operation to its next status, refusing illegal steps so terminal
// states are never overwritten, and publishes every applied step to the
// waiters and the notices feed.
//
// It is a reusable call record because a closure handed to Store.Update
// escapes, and so does every local it captures: written inline, each
// transition cost four heap objects. The record and its bound apply
// method are allocated once and reused for every call. Not safe for
// concurrent use; each worker owns one.
type transitioner struct {
	e     *Engine
	apply func(op *core.Operation)
	// Inputs of the call in progress.
	next   core.Status
	result json.RawMessage
	cause  error
	// Outputs, assigned (never toggled) by every apply attempt, so the
	// one that publishes decides them: Update may invoke fn more than
	// once. snap is that attempt's clone — once Update returns nil, the
	// published snapshot.
	applied bool
	snap    *core.Operation
}

func newTransitioner(e *Engine) *transitioner {
	t := &transitioner{e: e}
	t.apply = t.applyTo
	return t
}

// do reports whether the step was applied, so callers can tell a
// recorded transition from one pre-empted by a concurrent cancel.
func (t *transitioner) do(id string, next core.Status, result json.RawMessage, cause error) bool {
	t.next, t.result, t.cause = next, result, cause
	err := t.e.store.Update(id, t.apply)
	snap := t.snap
	t.result, t.cause, t.snap = nil, nil, nil // do not pin them until the next call
	if err != nil {
		// core.ErrNotFound from the running transition is not a failure:
		// the operation was cancelled while queued and the janitor
		// evicted it before a worker reached its scheduler item, so it
		// ended as the client asked and there is nothing left to run.
		// Any other failed write would strand the operation in its
		// previous state with no trace, so it is logged.
		if next != core.StatusRunning || !errors.Is(err, core.ErrNotFound) {
			log.Printf("engine: recording %s transition for %s: %v", next, id, err)
		}
		return false
	}
	if t.applied {
		t.e.inflight.publish(snap)
	}
	return t.applied
}

// applyTo is the Update callback. Transition refuses illegal steps and
// stamps UpdatedAt; it keeps the request-time CancelledAt stamp Cancel
// already recorded, backfilling only if a cancel bypassed Cancel
// (shouldn't happen).
func (t *transitioner) applyTo(op *core.Operation) {
	t.snap = op
	t.applied = op.Transition(t.next, t.e.stamp())
	if !t.applied {
		return
	}
	if t.result != nil {
		//lint:allow opdaemon/opmutate op is Update's private clone; opmutate only recognises the callback when it is a literal at the call
		op.Result = t.result
	}
	if t.cause != nil {
		//lint:allow opdaemon/opmutate op is Update's private clone; opmutate only recognises the callback when it is a literal at the call
		op.Error = t.cause.Error()
	}
}
