package engine

// Conformance suite for the waiter table and the notices feed — the
// contract tests the push read path lands with. The subscribe-
// then-check protocol is pinned by a hammer that races AwaitChange
// against concurrent transitions (a check-then-subscribe bug shows up
// here as a hang under -race), and the notices ring's cursor semantics
// are pinned including the wrap-around and MaxUint64 edge cases.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// newWatchEngine builds an engine whose worker pool is irrelevant to
// the test: operations are planted straight into the store and
// transitioned by hand, so every interleaving is test-controlled.
func newWatchEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Workers: 1})
	t.Cleanup(func() { e.Shutdown(context.Background()) })
	return e
}

// awaitResult carries one AwaitChange outcome across goroutines.
type awaitResult struct {
	op  *core.Operation
	err error
}

func TestAwaitChangeNoLostWakeups(t *testing.T) {
	// Race waiter registration against the transition it waits for, at
	// every interleaving the scheduler can produce. If AwaitChange
	// checked before subscribing, a transition landing in the gap would
	// strand the waiter until ctx timeout; with subscribe-then-check
	// every iteration must observe running promptly.
	e := newWatchEngine(t)
	t0 := time.Unix(1000, 0)

	const iters = 200
	for i := 0; i < iters; i++ {
		id := fmt.Sprintf("%032x", i)
		e.store.Put(mkOp(id, t0))

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		done := make(chan awaitResult, 1)
		go func() {
			op, err := e.AwaitChange(ctx, id, core.StatusQueued)
			done <- awaitResult{op, err}
		}()
		// No synchronization with the goroutine on purpose: some
		// iterations transition before the subscribe, some after, some
		// in the gap between subscribe and check.
		newTransitioner(e).do(id, core.StatusRunning, nil, nil)

		res := <-done
		cancel()
		if res.err != nil {
			t.Fatalf("iter %d: AwaitChange: %v (lost wakeup?)", i, res.err)
		}
		if res.op.Status != core.StatusRunning {
			t.Fatalf("iter %d: woke with status %s, want %s", i, res.op.Status, core.StatusRunning)
		}
	}
	if n := e.Stats().WatchWaiters; n != 0 {
		t.Errorf("hub leaked %d waiters", n)
	}
}

func TestAwaitChangeWakesOnCancel(t *testing.T) {
	// Both cancel paths must wake waiters: the queued→cancelled direct
	// step in Cancel (which bypasses the transitioner) and the terminal
	// transition recorded after a running handler honours its context.
	t.Run("QueuedDirectPath", func(t *testing.T) {
		e := newWatchEngine(t)
		e.store.Put(mkOp("00000000000000000000000000000abc", time.Unix(1000, 0)))

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done := make(chan awaitResult, 1)
		go func() {
			op, err := e.AwaitChange(ctx, "00000000000000000000000000000abc", core.StatusQueued)
			done <- awaitResult{op, err}
		}()
		// Let the waiter block (best effort; a wake before the block is
		// the immediate-return path, also correct).
		time.Sleep(5 * time.Millisecond)
		if _, err := e.Cancel("00000000000000000000000000000abc"); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
		res := <-done
		if res.err != nil {
			t.Fatalf("AwaitChange: %v", res.err)
		}
		if res.op.Status != core.StatusCancelled {
			t.Fatalf("woke with status %s, want %s", res.op.Status, core.StatusCancelled)
		}
	})

	t.Run("RunningHandlerPath", func(t *testing.T) {
		e := New(Config{Workers: 1})
		defer e.Shutdown(context.Background())
		started := make(chan struct{})
		e.Register("hang", func(ctx context.Context, _ *core.Operation) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		op, err := e.Submit(context.Background(), "hang", nil)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		<-started

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done := make(chan awaitResult, 1)
		go func() {
			next, err := e.AwaitChange(ctx, op.ID, core.StatusRunning)
			done <- awaitResult{next, err}
		}()
		time.Sleep(5 * time.Millisecond)
		if _, err := e.Cancel(op.ID); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
		res := <-done
		if res.err != nil {
			t.Fatalf("AwaitChange: %v", res.err)
		}
		if res.op.Status != core.StatusCancelled {
			t.Fatalf("woke with status %s, want %s", res.op.Status, core.StatusCancelled)
		}
	})
}

func TestAwaitChangeTerminalBeforeSubscribeReturnsImmediately(t *testing.T) {
	// A terminal status can never change, so a waiter arriving late —
	// even one passing the terminal status as `seen` — must return the
	// snapshot immediately instead of blocking out its timeout.
	e := newWatchEngine(t)
	t0 := time.Unix(1000, 0)
	op := mkOp("00000000000000000000000000000def", t0)
	op.Status = core.StatusDone
	e.store.Put(op)

	// An already-expired context proves no blocking path is taken: the
	// immediate-return check runs before the select.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := e.AwaitChange(ctx, op.ID, core.StatusDone)
	if err != nil {
		t.Fatalf("AwaitChange on terminal op: %v, want immediate snapshot", err)
	}
	if got.Status != core.StatusDone {
		t.Fatalf("status = %s, want %s", got.Status, core.StatusDone)
	}
}

func TestAwaitChangeUnknownID(t *testing.T) {
	e := newWatchEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := e.AwaitChange(ctx, "missing", core.StatusQueued); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("AwaitChange(missing) = %v, want ErrNotFound", err)
	}
	if n := e.Stats().WatchWaiters; n != 0 {
		t.Errorf("hub leaked %d waiters after not-found", n)
	}
}

func TestAwaitChangeContextCancelCleansUpWaiter(t *testing.T) {
	// An abandoned long-poll must deregister its waiter on the way out:
	// the hub's waiter count returns to zero the moment AwaitChange
	// returns, with no janitor or timeout needed.
	e := newWatchEngine(t)
	e.store.Put(mkOp("00000000000000000000000000000aaa", time.Unix(1000, 0)))

	const waiters = 16
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			_, err := e.AwaitChange(ctx, "00000000000000000000000000000aaa", core.StatusQueued)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("AwaitChange = %v, want context.Canceled", err)
			}
		}()
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	// Waiters register before blocking; poll briefly for all of them to
	// pass the subscribe.
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().WatchWaiters < waiters && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := e.Stats().WatchWaiters; n != waiters {
		t.Fatalf("registered waiters = %d, want %d", n, waiters)
	}
	cancel()
	wg.Wait()
	if n := e.Stats().WatchWaiters; n != 0 {
		t.Fatalf("waiters after context cancel = %d, want 0", n)
	}
}

func TestWatchHubUnsubscribeIdempotentAfterNotify(t *testing.T) {
	// publish detaches the waiter before sending, so a racing
	// unsubscribe (the AwaitChange defer) finds nothing to remove and
	// must not corrupt the count.
	h := newInflight(noticeRingSize)
	snap := mkOp("op", time.Unix(1000, 0))
	w := h.subscribe("op")
	h.publish(snap)
	if got := <-w; got != snap {
		t.Fatalf("wake snapshot = %v, want the published snapshot", got)
	}
	h.unsubscribe("op", w)
	h.unsubscribe("op", w) // double-unsubscribe is a no-op too
	if n := h.waiters(); n != 0 {
		t.Fatalf("waiters = %d, want 0", n)
	}
}

func TestWatchHubNotifyWakesAllWaitersForID(t *testing.T) {
	h := newInflight(noticeRingSize)
	snap := mkOp("op", time.Unix(1000, 0))
	const n = 8
	ws := make([]chan *core.Operation, n)
	for i := range ws {
		ws[i] = h.subscribe("op")
	}
	other := h.subscribe("other")
	h.publish(snap)
	for i, w := range ws {
		select {
		case got := <-w:
			// A waiter is woken with the snapshot the transition
			// published — the very pointer, never nil.
			if got == nil || got != snap {
				t.Fatalf("waiter %d woke with %v, want the published snapshot", i, got)
			}
		default:
			t.Fatalf("waiter %d not woken", i)
		}
	}
	select {
	case <-other:
		t.Fatal("waiter for a different id was woken")
	default:
	}
	if got := h.waiters(); got != 1 {
		t.Fatalf("waiters after publish = %d, want 1 (the other id)", got)
	}
	h.unsubscribe("other", other)
}

func TestInflightCancelFindsInstalledOnly(t *testing.T) {
	// cancel reaches the function a worker installed, with the cause,
	// and reports a retired (or never installed) entry as absent — the
	// no-op Cancel relies on when the handler finished first.
	h := newInflight(noticeRingSize)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	if h.cancel("op", core.ErrCancelled) {
		t.Fatal("cancel before install reported an entry")
	}
	h.install("op", cancel)
	if !h.cancel("op", core.ErrCancelled) {
		t.Fatal("cancel after install found no entry")
	}
	if got := context.Cause(ctx); !errors.Is(got, core.ErrCancelled) {
		t.Fatalf("context cause = %v, want %v", got, core.ErrCancelled)
	}
	h.retire("op")
	if h.cancel("op", core.ErrCancelled) {
		t.Fatal("cancel after retire reported an entry")
	}
}

func TestEngineLifecyclePublishesNotices(t *testing.T) {
	// One operation's full life must appear in the feed in order:
	// queued (birth), running, done.
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())
	e.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params["msg"], nil
	})
	op, err := e.Submit(context.Background(), "echo", map[string]any{"msg": "hi"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, e, op.ID)

	ns := e.Notices(NoticeQuery{})
	var got []core.Status
	for _, n := range ns {
		if n.OpID != op.ID {
			continue
		}
		if n.Kind != "echo" {
			t.Errorf("notice kind = %q, want %q", n.Kind, "echo")
		}
		got = append(got, n.Status)
	}
	want := []core.Status{core.StatusQueued, core.StatusRunning, core.StatusDone}
	if len(got) != len(want) {
		t.Fatalf("notice statuses = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("notice statuses = %v, want %v", got, want)
		}
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Seq <= ns[i-1].Seq {
			t.Fatalf("seqs not strictly increasing: %d then %d", ns[i-1].Seq, ns[i].Seq)
		}
	}
}

func TestNoticeRingCursorSemantics(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := newInflight(4)

	if got, _, _ := r.since(NoticeQuery{}, false); got != nil {
		t.Fatalf("empty ring since() = %v, want nil", got)
	}

	for i := 1; i <= 3; i++ {
		r.append(fmt.Sprintf("op%d", i), "k", core.StatusQueued, t0)
	}
	ns, _, _ := r.since(NoticeQuery{}, false)
	if len(ns) != 3 || ns[0].Seq != 1 || ns[2].Seq != 3 {
		t.Fatalf("since(0) = %+v, want seqs 1..3", ns)
	}
	if ns, _, _ = r.since(NoticeQuery{After: 2}, false); len(ns) != 1 || ns[0].Seq != 3 {
		t.Fatalf("since(2) = %+v, want just seq 3", ns)
	}
	// Caught-up and past-the-end cursors yield empty pages.
	if ns, _, _ = r.since(NoticeQuery{After: 3}, false); len(ns) != 0 {
		t.Fatalf("since(3) = %+v, want empty", ns)
	}
	if ns, _, _ = r.since(NoticeQuery{After: 99}, false); len(ns) != 0 {
		t.Fatalf("since(99) = %+v, want empty", ns)
	}
	// MaxUint64 must not wrap After+1 around to zero and replay the
	// whole ring.
	if ns, _, _ = r.since(NoticeQuery{After: math.MaxUint64}, false); len(ns) != 0 {
		t.Fatalf("since(MaxUint64) = %+v, want empty", ns)
	}

	// Overflow the capacity-4 ring: seqs 4..7 land, 1..3 fall off. A
	// cursor pointing into the evicted range resumes from the oldest
	// retained notice rather than erroring or replaying garbage.
	for i := 4; i <= 7; i++ {
		r.append(fmt.Sprintf("op%d", i), "k", core.StatusRunning, t0)
	}
	ns, _, _ = r.since(NoticeQuery{After: 1}, false)
	if len(ns) != 4 || ns[0].Seq != 4 || ns[3].Seq != 7 {
		t.Fatalf("since(1) after wrap = %+v, want seqs 4..7", ns)
	}
	if got := r.last(); got != 7 {
		t.Fatalf("last() = %d, want 7", got)
	}
}

func TestNoticeRingFiltersAndLimit(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := newInflight(16)
	r.append("a", "build", core.StatusQueued, t0)
	r.append("a", "build", core.StatusRunning, t0)
	r.append("b", "deploy", core.StatusQueued, t0)
	r.append("a", "build", core.StatusDone, t0)
	r.append("b", "deploy", core.StatusFailed, t0)

	ns, _, _ := r.since(NoticeQuery{Kinds: []string{"deploy"}}, false)
	if len(ns) != 2 || ns[0].OpID != "b" || ns[1].Status != core.StatusFailed {
		t.Fatalf("kind filter = %+v, want b's two notices", ns)
	}
	ns, _, _ = r.since(NoticeQuery{Statuses: []core.Status{core.StatusDone, core.StatusFailed}}, false)
	if len(ns) != 2 || ns[0].Status != core.StatusDone || ns[1].Status != core.StatusFailed {
		t.Fatalf("status filter = %+v, want done then failed", ns)
	}
	ns, _, _ = r.since(NoticeQuery{Limit: 2}, false)
	if len(ns) != 2 || ns[0].Seq != 1 || ns[1].Seq != 2 {
		t.Fatalf("limit page = %+v, want seqs 1,2", ns)
	}
	// Filters and limit compose: the limit counts matches, not scanned
	// entries.
	ns, through, _ := r.since(NoticeQuery{Kinds: []string{"build"}, Limit: 2}, false)
	if len(ns) != 2 || ns[1].Status != core.StatusRunning || through != 2 {
		t.Fatalf("filtered limit page = %+v through %d, want build queued,running through 2", ns, through)
	}
	// An empty page scanned through the newest notice, or stayed at a
	// cursor already past it.
	if ns, through, _ = r.since(NoticeQuery{After: 1, Kinds: []string{"none"}}, false); len(ns) != 0 || through != 5 {
		t.Fatalf("unmatched filter = %+v through %d, want empty through 5", ns, through)
	}
	if ns, through, _ = r.since(NoticeQuery{After: 9}, false); len(ns) != 0 || through != 9 {
		t.Fatalf("since(9) = %+v through %d, want empty through 9", ns, through)
	}
}

func TestAwaitNoticesWakesOnAppend(t *testing.T) {
	e := newWatchEngine(t)
	after := e.inflight.last()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type page struct {
		ns  []Notice
		err error
	}
	done := make(chan page, 1)
	go func() {
		ns, err := e.AwaitNotices(ctx, NoticeQuery{After: after})
		done <- page{ns, err}
	}()
	time.Sleep(5 * time.Millisecond)
	e.inflight.append("op", "k", core.StatusQueued, time.Unix(1000, 0))

	res := <-done
	if res.err != nil {
		t.Fatalf("AwaitNotices: %v", res.err)
	}
	if len(res.ns) != 1 || res.ns[0].OpID != "op" {
		t.Fatalf("page = %+v, want the appended notice", res.ns)
	}
}

// TestAwaitNoticesPageLeavesNoChannel: a feed read that finds a page
// returns it without creating the broadcast channel, which only a
// reader about to block needs; the next notice then has nothing to
// close.
func TestAwaitNoticesPageLeavesNoChannel(t *testing.T) {
	e := newWatchEngine(t)
	after := e.inflight.last()
	e.inflight.append("op", "k", core.StatusQueued, time.Unix(1000, 0))
	ns, err := e.AwaitNotices(context.Background(), NoticeQuery{After: after})
	if err != nil || len(ns) != 1 {
		t.Fatalf("AwaitNotices = %+v, %v, want the appended notice", ns, err)
	}
	if e.inflight.subscribed() {
		t.Error("a feed read that returned a page left a wake channel behind")
	}
}

func TestAwaitNoticesNoLostWakeups(t *testing.T) {
	// Race blocked readers against the appends they wait for. The
	// closed-channel protocol (an empty scan takes the wake channel in
	// its own critical section) must never sleep through an append.
	// Many readers follow the feed at once, and each round appends one
	// notice the moment every reader has returned the previous one, so
	// it lands while the last readers are between their scan and their
	// wait. Nothing is appended until every reader has reported, so no
	// later notice can rescue one that slept through its wake: a lost
	// wakeup surfaces as the context's timeout.
	e := newWatchEngine(t)
	const readers, rounds = 16, 200
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// One round's reports plus each reader's final error: no send blocks
	// after a failure.
	seen := make(chan error, 2*readers)
	start := e.inflight.last()
	for range readers {
		go func() {
			for after := start; after < start+rounds; {
				ns, err := e.AwaitNotices(ctx, NoticeQuery{After: after})
				if err != nil {
					seen <- err
					return
				}
				after = ns[len(ns)-1].Seq
				seen <- nil
			}
		}()
	}
	for i := range rounds {
		e.inflight.append("op", "k", core.StatusQueued, time.Unix(1000, 0))
		for range readers {
			if err := <-seen; err != nil {
				t.Fatalf("round %d: AwaitNotices: %v (lost wakeup?)", i, err)
			}
		}
	}
}

func TestAwaitNoticesContextCancel(t *testing.T) {
	e := newWatchEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.AwaitNotices(ctx, NoticeQuery{After: e.inflight.last()})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("AwaitNotices = %v, want context.Canceled", err)
	}
}

func TestAwaitNoticesFilteredSkipsNonMatching(t *testing.T) {
	// A reader filtered to terminal statuses must sleep through
	// non-matching appends and wake only for a match — without busy
	// returning empty pages in between.
	e := newWatchEngine(t)
	after := e.inflight.last()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type page struct {
		ns  []Notice
		err error
	}
	done := make(chan page, 1)
	go func() {
		ns, err := e.AwaitNotices(ctx, NoticeQuery{
			After:    after,
			Statuses: []core.Status{core.StatusDone},
		})
		done <- page{ns, err}
	}()
	time.Sleep(5 * time.Millisecond)
	e.inflight.append("op", "k", core.StatusQueued, time.Unix(1000, 0))
	e.inflight.append("op", "k", core.StatusRunning, time.Unix(1000, 0))
	select {
	case res := <-done:
		t.Fatalf("woke on non-matching notices: %+v, %v", res.ns, res.err)
	case <-time.After(20 * time.Millisecond):
	}
	e.inflight.append("op", "k", core.StatusDone, time.Unix(1000, 0))
	res := <-done
	if res.err != nil {
		t.Fatalf("AwaitNotices: %v", res.err)
	}
	if len(res.ns) != 1 || res.ns[0].Status != core.StatusDone {
		t.Fatalf("page = %+v, want just the done notice", res.ns)
	}
}

func TestAwaitNoticesFilteredScansEachNoticeOnce(t *testing.T) {
	// A filtered reader parked through n non-matching appends must
	// examine each notice once. Rescanning from its unchanged cursor on
	// every wake examines at least n(n-1)/2, under the lock every append
	// takes. Each append waits until the reader has re-subscribed, so it
	// wakes n times however the goroutines are scheduled.
	const n = 64
	e := newWatchEngine(t)
	r := e.inflight
	r.mu.Lock()
	after, base := r.seq, r.scanned
	r.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.AwaitNotices(ctx, NoticeQuery{After: after, Kinds: []string{"never"}})
		done <- err
	}()
	for i := 0; i < n; i++ {
		for !r.subscribed() {
			select {
			case err := <-done:
				t.Fatalf("append %d: AwaitNotices returned early: %v", i, err)
			default:
				runtime.Gosched()
			}
		}
		r.append("op", "k", core.StatusQueued, time.Unix(1000, 0))
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("AwaitNotices = %v, want context.Canceled", err)
	}
	r.mu.Lock()
	scanned := r.scanned - base
	r.mu.Unlock()
	if scanned > n {
		t.Fatalf("reader examined %d notices through %d non-matching appends, want at most %d", scanned, n, n)
	}
}

// subscribed reports whether a reader holds the channel the next notice
// closes.
func (t *inflight) subscribed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.changed != nil
}

// append publishes one transition with no store behind it.
func (t *inflight) append(opID, kind string, status core.Status, at time.Time) {
	t.publish(&core.Operation{ID: opID, Kind: kind, Status: status, UpdatedAt: at})
}

// waiters returns the number of registered long-poll waiters.
func (t *inflight) waiters() int {
	n, _ := t.counts()
	return n
}

// last returns the newest assigned notice sequence.
func (t *inflight) last() uint64 {
	_, seq := t.counts()
	return seq
}
