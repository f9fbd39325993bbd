package engine

// The read path and the cancel path share one side table, inflight:
// what the engine keeps beside the store — the running handlers' cancel
// functions, the long-poll waiters parked per operation ID, and the
// notices ring (notices.go) with its broadcast channel. Every applied
// state transition is one publish under the table's one mutex: it
// appends the notice, detaches exactly the waiters registered for that
// operation ID — no scan over other operations, no polling timers — and
// takes the ring's broadcast channel. The lock is taken a handful of
// times per operation for a few map and slice operations each, and the
// mutex profile (docs/performance.md) puts its share of contention delay
// near 1 %, so it is not sharded.
//
// Race discipline (pinned by watch_conformance_test.go):
//
//   - Waiters subscribe BEFORE checking current state, never after.
//     AwaitChange registers its waiter, then reads the snapshot; a
//     transition that publishes before the read is seen by the read,
//     and one that publishes after it must run publish after the
//     subscribe, so it finds the waiter. Check-then-subscribe would
//     leave a window where a transition slips between the check and
//     the registration and the waiter sleeps forever. AwaitNotices
//     fetches the broadcast channel before scanning the ring for the
//     same reason.
//   - publish detaches the waiter list and the broadcast channel under
//     the lock and closes and sends only after unlock (the lockscope
//     analyzer forbids channel operations inside inflight critical
//     sections). The sends can never block: a waiter is a capacity-one
//     channel, and once detached from the map no other publish or
//     unsubscribe can reach it, so each waiter sees at most one send in
//     its lifetime.
//   - unsubscribe is idempotent and safe after a wake already consumed
//     the waiter: it removes the waiter only if still registered.
//   - A worker installs the cancel function BEFORE the queued→running
//     transition and retires it only AFTER the terminal one, so Cancel
//     observing status running always finds it; cancel looks it up
//     under the lock and invokes it after unlock (a call through a
//     function value is as forbidden there as a send).

import (
	"context"
	"sync"
	"time"

	"opdaemon/internal/core"
)

// inflight is the table. Its name places its critical sections under
// the lockscope analyzer's no-blocking-under-lock contract.
type inflight struct {
	mu      sync.Mutex
	cancels map[string]context.CancelCauseFunc
	// waiting holds the one-shot long-poll waiters: each is woken by a
	// single send of the snapshot the transition published.
	waiting map[string][]chan *core.Operation
	// nwait counts registered waiters so Stats never walks the map.
	nwait int

	// ring is the notices ring: the notice with sequence s lives at
	// ring[(s-1) % len(ring)]; once the feed wraps, the oldest retained
	// sequence is seq-len(ring)+1.
	ring []Notice
	seq  uint64 // last assigned sequence; 0 before the first notice
	// changed is the channel the next notice closes; nil while no feed
	// reader has asked for one since the last notice.
	changed chan struct{}
	scanned uint64 // entries since has examined, for tests
}

func newInflight(ringSize int) *inflight {
	return &inflight{
		cancels: make(map[string]context.CancelCauseFunc),
		waiting: make(map[string][]chan *core.Operation),
		ring:    make([]Notice, ringSize),
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
		// installs, retires and publishes.
		fn(cause)
	}
	return ok
}

// subscribe registers a one-shot waiter for the operation's next
// transition. The caller must either receive from the channel or call
// unsubscribe (calling both is safe).
func (t *inflight) subscribe(id string) chan *core.Operation {
	w := make(chan *core.Operation, 1)
	t.mu.Lock()
	t.waiting[id] = append(t.waiting[id], w)
	t.nwait++
	t.mu.Unlock()
	return w
}

// unsubscribe removes the waiter if it is still registered. A no-op
// when a publish already detached it (the pending buffered send is
// simply never received and gets collected with the channel).
func (t *inflight) unsubscribe(id string, w chan *core.Operation) {
	t.mu.Lock()
	ws := t.waiting[id]
	for i, x := range ws {
		if x == w {
			ws[i] = ws[len(ws)-1]
			ws[len(ws)-1] = nil // unpin the detached waiter
			ws = ws[:len(ws)-1]
			if len(ws) == 0 {
				delete(t.waiting, id)
			} else {
				t.waiting[id] = ws
			}
			t.nwait--
			break
		}
	}
	t.mu.Unlock()
}

// note records one transition in the ring. Callers hold t.mu, take the
// broadcast channel a feed reader left and close it after unlock.
func (t *inflight) note(opID, kind string, status core.Status, at time.Time) {
	t.seq++
	t.ring[(t.seq-1)%uint64(len(t.ring))] = Notice{
		Seq:    t.seq,
		OpID:   opID,
		Kind:   kind,
		Status: status,
		Time:   at,
	}
}

// publish fans an applied state change out to the read path: it
// appends a notice to the feed and wakes the operation's long-poll
// waiters with snap, the snapshot the transition published. It runs
// after the store write commits, so a woken waiter re-reading the store
// can only see this state or a newer one — never the one it was waiting
// out.
func (t *inflight) publish(snap *core.Operation) {
	t.mu.Lock()
	t.note(snap.ID, snap.Kind, snap.Status, snap.UpdatedAt)
	changed := t.changed
	t.changed = nil
	ws := t.waiting[snap.ID]
	if ws != nil {
		delete(t.waiting, snap.ID)
		t.nwait -= len(ws)
	}
	t.mu.Unlock()
	if changed != nil {
		// Wake every blocked feed reader after unlock: each rescans the
		// ring at once, which needs the lock.
		close(changed)
	}
	for _, w := range ws {
		// Cannot block: capacity-one channel, and detaching under the
		// lock made this the only send the waiter will ever see.
		w <- snap
	}
}

// born records the birth of every operation of a batch under one lock
// acquisition, then wakes the feed readers once. It wakes no long-poll
// waiter: a client cannot hold one for an ID it has not been handed yet.
func (t *inflight) born(ops []*core.Operation) {
	t.mu.Lock()
	for _, op := range ops {
		t.note(op.ID, op.Kind, core.StatusQueued, op.CreatedAt)
	}
	changed := t.changed
	t.changed = nil
	t.mu.Unlock()
	if changed != nil {
		close(changed)
	}
}

// counts returns the registered waiters and the newest notice sequence
// from one critical section, for Stats.
func (t *inflight) counts() (waiters int, last uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nwait, t.seq
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
	case snap := <-w:
		return snap, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
