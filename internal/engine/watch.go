package engine

// The push read path and the cancel path share one side table, inflight:
// what the engine keeps per operation ID beside the store — the running
// handler's cancel function and the parked long-poll waiters. Every
// applied state transition wakes exactly the waiters registered for
// that operation ID — no scan over other operations, no polling timers.
// The table is one mutex over two maps: it is taken a handful of times
// per operation for a few map operations each, and the mutex profile
// (docs/performance.md) puts its share of contention delay below the
// notices ring's single mutex, so it is not sharded.
//
// Race discipline (pinned by watch_conformance_test.go):
//
//   - Waiters subscribe BEFORE checking current state, never after.
//     AwaitChange registers its waiter, then reads the snapshot; a
//     transition that publishes before the read is seen by the read,
//     and one that publishes after it must run notify after the
//     subscribe, so it finds the waiter. Check-then-subscribe would
//     leave a window where a transition slips between the check and
//     the registration and the waiter sleeps forever.
//   - notify detaches the waiter list under the lock and sends only
//     after unlock (the lockscope analyzer forbids channel operations
//     inside inflight critical sections). The sends can never block: a
//     watcher's channel has capacity one, and once detached from the
//     map no other notify or unsubscribe can reach it, so each watcher
//     sees at most one send in its lifetime.
//   - unsubscribe is idempotent and safe after a wake already consumed
//     the watcher: it removes the watcher only if still registered.
//   - A worker installs the cancel function BEFORE the queued→running
//     transition and retires it only AFTER the terminal one, so Cancel
//     observing status running always finds it; cancel looks it up
//     under the lock and invokes it after unlock (a call through a
//     function value is as forbidden there as a send).

import (
	"context"
	"sync"

	"opdaemon/internal/core"
)

// watcher is one registered long-poll waiter: a one-shot channel that
// receives the snapshot published by the transition that woke it.
type watcher struct {
	ch chan *core.Operation
}

// inflight is the table. Its name places its critical sections under
// the lockscope analyzer's no-blocking-under-lock contract.
type inflight struct {
	mu      sync.Mutex
	cancels map[string]context.CancelCauseFunc
	waiting map[string][]*watcher
	// n counts registered waiters so Stats never walks the map.
	n int
}

func newInflight() *inflight {
	return &inflight{
		cancels: make(map[string]context.CancelCauseFunc),
		waiting: make(map[string][]*watcher),
	}
}

// install publishes the operation's cancel function for cancel to
// find.
func (t *inflight) install(id string, fn context.CancelCauseFunc) {
	t.mu.Lock()
	t.cancels[id] = fn
	t.mu.Unlock()
}

// retire removes the operation's cancel function once it has settled.
func (t *inflight) retire(id string) {
	t.mu.Lock()
	delete(t.cancels, id)
	t.mu.Unlock()
}

// cancel invokes the operation's cancel function with the given cause,
// reporting whether an entry was present. A missing entry means the
// operation settled in the race window; the caller treats that as a
// harmless no-op.
func (t *inflight) cancel(id string, cause error) bool {
	t.mu.Lock()
	fn, ok := t.cancels[id]
	t.mu.Unlock()
	if ok {
		// Invoke outside the lock: context cancellation fans out to
		// registered children and need not serialize other operations'
		// installs, retires and wakes.
		fn(cause)
	}
	return ok
}

// subscribe registers a one-shot waiter for the operation's next
// transition. The caller must either receive from the watcher's
// channel or call unsubscribe (calling both is safe).
func (t *inflight) subscribe(id string) *watcher {
	w := &watcher{ch: make(chan *core.Operation, 1)}
	t.mu.Lock()
	t.waiting[id] = append(t.waiting[id], w)
	t.n++
	t.mu.Unlock()
	return w
}

// unsubscribe removes the waiter if it is still registered. A no-op
// when a notify already detached it (the pending buffered send is
// simply never received and gets collected with the watcher).
func (t *inflight) unsubscribe(id string, w *watcher) {
	t.mu.Lock()
	ws := t.waiting[id]
	for i, x := range ws {
		if x == w {
			ws[i] = ws[len(ws)-1]
			ws[len(ws)-1] = nil // unpin the detached watcher
			ws = ws[:len(ws)-1]
			if len(ws) == 0 {
				delete(t.waiting, id)
			} else {
				t.waiting[id] = ws
			}
			t.n--
			break
		}
	}
	t.mu.Unlock()
}

// notify wakes every waiter registered for the operation with the
// snapshot the transition published. The waiter list is detached under
// the lock and woken after it, so a slow receiver can never stall the
// table.
func (t *inflight) notify(snap *core.Operation) {
	t.mu.Lock()
	ws := t.waiting[snap.ID]
	if len(ws) == 0 {
		t.mu.Unlock()
		return
	}
	delete(t.waiting, snap.ID)
	t.n -= len(ws)
	t.mu.Unlock()
	for _, w := range ws {
		// Cannot block: capacity-one channel, and detaching under the
		// lock made this the only send the watcher will ever see.
		w.ch <- snap
	}
}

// waiters returns the number of registered waiters, for Stats and the
// conformance suite's leak checks.
func (t *inflight) waiters() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// AwaitChange blocks until the operation's published status differs
// from seen, returning the fresh snapshot. It returns immediately when
// the current status already differs or is terminal (a terminal status
// can never change, so waiting on one would sleep forever), and it
// returns core.ErrNotFound for an unknown ID. Cancelling ctx returns its
// error; the waiter is always deregistered before AwaitChange returns,
// so abandoned long-polls leave no trace in the table.
func (e *Engine) AwaitChange(ctx context.Context, id string, seen core.Status) (*core.Operation, error) {
	// Subscribe-then-check: registering first makes the later snapshot
	// read a linearization point — any transition it misses must
	// publish afterwards and therefore finds this waiter.
	w := e.inflight.subscribe(id)
	defer e.inflight.unsubscribe(id, w)
	op, err := e.store.Get(id)
	if err != nil {
		return nil, err
	}
	if op.Status != seen || op.Status.Terminal() {
		return op, nil
	}
	select {
	case snap := <-w.ch:
		return snap, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
