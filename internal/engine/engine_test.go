package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// waitOp polls until the operation satisfies pred or a 5s deadline
// expires. It is goroutine-safe (no t.Fatal) so concurrent tests can
// report the error themselves.
func waitOp(e *Engine, id string, pred func(*core.Operation) bool) (*core.Operation, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		op, err := e.Get(id)
		if err != nil {
			return nil, fmt.Errorf("get %q: %w", id, err)
		}
		if pred(op) {
			return op, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("op %q: timed out in status %s", id, op.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

func terminal(op *core.Operation) bool { return op.Status.Terminal() }

// listEngine lists one page through the engine, failing the test on
// error.
func listEngine(t *testing.T, e *Engine, q ListQuery) []*core.Operation {
	t.Helper()
	ops, err := e.List(q)
	if err != nil {
		t.Fatalf("List(%+v): %v", q, err)
	}
	return ops
}

// steppedClock is a fake engine clock that stands still until the test
// advances it; safe to read from submitter and worker goroutines.
func steppedClock() (clock func() time.Time, advance func(time.Duration)) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance = func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	return clock, advance
}

// waitStatus polls until the operation reaches a terminal status.
func waitStatus(t *testing.T, e *Engine, id string) *core.Operation {
	t.Helper()
	op, err := waitOp(e, id, terminal)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestSubmitRunsToDone(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Shutdown(context.Background())

	e.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params["msg"], nil
	})

	op, err := e.Submit(context.Background(), "echo", map[string]any{"msg": "hello"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if op.Status != core.StatusQueued {
		t.Errorf("submitted status = %s, want %s", op.Status, core.StatusQueued)
	}

	final := waitStatus(t, e, op.ID)
	if final.Status != core.StatusDone {
		t.Fatalf("final status = %s (error %q), want %s", final.Status, final.Error, core.StatusDone)
	}
	if string(final.Result) != `"hello"` {
		t.Errorf("result = %s, want %q marshalled", final.Result, "hello")
	}
	if final.Error != "" {
		t.Errorf("error = %q, want empty", final.Error)
	}
}

func TestFailedOperationPropagatesError(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())

	boom := errors.New("disk exploded")
	e.Register("explode", func(context.Context, *core.Operation) (any, error) {
		return nil, boom
	})

	op, err := e.Submit(context.Background(), "explode", nil)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitStatus(t, e, op.ID)
	if final.Status != core.StatusFailed {
		t.Fatalf("final status = %s, want %s", final.Status, core.StatusFailed)
	}
	if final.Error != boom.Error() {
		t.Errorf("error = %q, want %q", final.Error, boom.Error())
	}
	if final.Result != nil {
		t.Errorf("result = %s, want nil", final.Result)
	}
}

func TestPanickingHandlerFailsOperation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())

	e.Register("panic", func(context.Context, *core.Operation) (any, error) {
		panic("handler bug")
	})
	e.Register("ok", func(context.Context, *core.Operation) (any, error) {
		return "fine", nil
	})

	bad, err := e.Submit(context.Background(), "panic", nil)
	if err != nil {
		t.Fatalf("Submit(panic): %v", err)
	}
	final := waitStatus(t, e, bad.ID)
	if final.Status != core.StatusFailed {
		t.Fatalf("panicked op status = %s, want failed", final.Status)
	}
	if final.Error == "" {
		t.Error("panicked op has empty error message")
	}

	// The worker must survive the panic and keep processing.
	good, err := e.Submit(context.Background(), "ok", nil)
	if err != nil {
		t.Fatalf("Submit(ok): %v", err)
	}
	if final := waitStatus(t, e, good.ID); final.Status != core.StatusDone {
		t.Errorf("op after panic status = %s, want done", final.Status)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())

	if _, err := e.Submit(context.Background(), "nope", nil); !errors.Is(err, core.ErrUnknownKind) {
		t.Errorf("Submit(unknown kind) error = %v, want ErrUnknownKind", err)
	}
	var inv *core.InvalidError
	if _, err := e.Submit(context.Background(), "", nil); !errors.As(err, &inv) {
		t.Errorf("Submit(empty kind) error = %v, want *core.InvalidError", err)
	}
}

func TestGetUnknownID(t *testing.T) {
	e := New(Config{})
	defer e.Shutdown(context.Background())
	if _, err := e.Get("missing"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get(missing) error = %v, want ErrNotFound", err)
	}
}

func TestConcurrentSubmitPoll(t *testing.T) {
	e := New(Config{Workers: 8, QueueDepth: 4096})
	defer e.Shutdown(context.Background())

	e.Register("inc", func(_ context.Context, op *core.Operation) (any, error) {
		n, _ := op.Params["n"].(int)
		return n + 1, nil
	})

	const clients, perClient = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				op, err := e.Submit(context.Background(), "inc", map[string]any{"n": i})
				if err != nil {
					errs <- fmt.Errorf("client %d submit %d: %w", c, i, err)
					return
				}
				got, err := waitOp(e, op.ID, terminal)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				if got.Status != core.StatusDone {
					errs <- fmt.Errorf("client %d op %s: status %s (%s)", c, op.ID, got.Status, got.Error)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := len(listEngine(t, e, ListQuery{Status: core.StatusDone})); got != clients*perClient {
		t.Errorf("done operations = %d, want %d", got, clients*perClient)
	}
}

func TestListFilterAndOrder(t *testing.T) {
	// Clock is called from submitter and worker goroutines; guard it.
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(time.Second)
		return now
	}
	e := New(Config{Workers: 1, Clock: clock})
	defer e.Shutdown(context.Background())

	e.Register("ok", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	e.Register("bad", func(context.Context, *core.Operation) (any, error) { return nil, errors.New("x") })

	first, _ := e.Submit(context.Background(), "ok", nil)
	second, _ := e.Submit(context.Background(), "bad", nil)
	waitStatus(t, e, first.ID)
	waitStatus(t, e, second.ID)

	all := listEngine(t, e, ListQuery{})
	if len(all) != 2 {
		t.Fatalf("List({}) = %d ops, want 2", len(all))
	}
	if all[0].ID != second.ID {
		t.Errorf("newest-first order violated: got %s first, want %s", all[0].ID, second.ID)
	}
	failed := listEngine(t, e, ListQuery{Status: core.StatusFailed})
	if len(failed) != 1 || failed[0].ID != second.ID {
		t.Errorf("List(failed) = %v, want exactly %s", failed, second.ID)
	}
}

func TestShutdownDrainsQueue(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 256})

	var mu sync.Mutex
	ran := 0
	e.Register("slow", func(context.Context, *core.Operation) (any, error) {
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		ran++
		mu.Unlock()
		return nil, nil
	})

	const n = 50
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		op, err := e.Submit(context.Background(), "slow", nil)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, op.ID)
	}

	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	mu.Lock()
	if ran != n {
		t.Errorf("handlers ran = %d, want %d (queue not drained)", ran, n)
	}
	mu.Unlock()
	for _, id := range ids {
		op, err := e.Get(id)
		if err != nil {
			t.Fatalf("Get(%q): %v", id, err)
		}
		if op.Status != core.StatusDone {
			t.Errorf("op %s status = %s after drain, want done", id, op.Status)
		}
	}

	if _, err := e.Submit(context.Background(), "slow", nil); !errors.Is(err, core.ErrShuttingDown) {
		t.Errorf("Submit after shutdown error = %v, want ErrShuttingDown", err)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

func TestShutdownDeadlineCancelsHandlers(t *testing.T) {
	e := New(Config{Workers: 1})
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

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown error = %v, want DeadlineExceeded", err)
	}
	// Shutdown returns without waiting for handlers that ignore the
	// deadline; this one observes the cancelled run context, so the
	// operation must settle as failed shortly after.
	if final := waitStatus(t, e, op.ID); final.Status != core.StatusFailed {
		t.Errorf("status after cancelled shutdown = %s, want failed", final.Status)
	}
}

func TestSubmitBatchRunsAll(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Shutdown(context.Background())
	e.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params["i"], nil
	})

	const n = 20
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Kind: "echo", Params: map[string]any{"i": i}}
	}
	ops, err := e.SubmitBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(ops) != n {
		t.Fatalf("SubmitBatch returned %d ops, want %d", len(ops), n)
	}
	for i, op := range ops {
		if op.Status != core.StatusQueued {
			t.Errorf("op %d submitted status = %s, want queued", i, op.Status)
		}
		final := waitStatus(t, e, op.ID)
		if final.Status != core.StatusDone {
			t.Errorf("op %d status = %s (%s), want done", i, final.Status, final.Error)
		}
		if want := fmt.Sprintf("%d", i); string(final.Result) != want {
			t.Errorf("op %d result = %s, want %s (batch order preserved)", i, final.Result, want)
		}
	}
}

func TestSubmitBatchValidatesAtomically(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())
	e.Register("ok", func(context.Context, *core.Operation) (any, error) { return nil, nil })

	_, err := e.SubmitBatch(context.Background(), []BatchItem{
		{Kind: "ok"},
		{Kind: "nope"},
		{Kind: "ok"},
		{Kind: ""},
	})
	var berr *core.BatchError
	if !errors.As(err, &berr) {
		t.Fatalf("SubmitBatch error = %v, want *core.BatchError", err)
	}
	if berr.Total != 4 || len(berr.Items) != 2 {
		t.Fatalf("BatchError = %d invalid of %d, want 2 of 4", len(berr.Items), berr.Total)
	}
	if berr.Items[0].Index != 1 || !errors.Is(berr.Items[0].Err, core.ErrUnknownKind) {
		t.Errorf("first item error = index %d, %v; want index 1, ErrUnknownKind", berr.Items[0].Index, berr.Items[0].Err)
	}
	var inv *core.InvalidError
	if berr.Items[1].Index != 3 || !errors.As(berr.Items[1].Err, &inv) {
		t.Errorf("second item error = index %d, %v; want index 3, *core.InvalidError", berr.Items[1].Index, berr.Items[1].Err)
	}
	// Atomicity: the valid items must not have been stored or run.
	if got := len(listEngine(t, e, ListQuery{})); got != 0 {
		t.Errorf("store holds %d ops after rejected batch, want 0", got)
	}
}

func TestSubmitBatchEmpty(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())
	var inv *core.InvalidError
	if _, err := e.SubmitBatch(context.Background(), nil); !errors.As(err, &inv) {
		t.Errorf("SubmitBatch(nil) error = %v, want *core.InvalidError", err)
	}
}

func TestSubmitBatchQueueFullIsAllOrNothing(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 4})
	defer e.Shutdown(context.Background())

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Shutdown, so a failed check cannot hang the drain
	e.Register("block", func(context.Context, *core.Operation) (any, error) {
		<-gate
		return nil, nil
	})

	// Occupy the single worker, then fill one of the four queue slots,
	// so a 4-item batch would land one past capacity.
	first, err := e.Submit(context.Background(), "block", nil)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := waitOp(e, first.ID, func(op *core.Operation) bool {
		return op.Status == core.StatusRunning
	}); err != nil {
		t.Fatalf("first op never started running: %v", err)
	}
	if _, err := e.Submit(context.Background(), "block", nil); err != nil {
		t.Fatalf("Submit (fills one slot): %v", err)
	}

	items := []BatchItem{{Kind: "block"}, {Kind: "block"}, {Kind: "block"}, {Kind: "block"}}
	over, err := e.SubmitBatch(context.Background(), items)
	if !errors.Is(err, core.ErrQueueFull) {
		t.Fatalf("batch landing one past capacity = %v, want ErrQueueFull", err)
	}
	if over != nil {
		t.Errorf("overflowing batch returned ops %v, want nil", over)
	}
	if got := len(listEngine(t, e, ListQuery{})); got != 2 {
		t.Errorf("store holds %d ops after rejected batch, want 2 (no partial enqueue)", got)
	}

	// The refused batch held no slot: one item fewer lands exactly at
	// capacity and is admitted, and then the queue is full.
	fits, err := e.SubmitBatch(context.Background(), items[:3])
	if err != nil {
		t.Fatalf("batch landing exactly at capacity after rejected batch: %v", err)
	}
	if st := e.Stats(); st.QueueDepth != st.QueueCapacity {
		t.Errorf("QueueDepth = %d after a batch landing at capacity, want %d", st.QueueDepth, st.QueueCapacity)
	}
	if _, err := e.Submit(context.Background(), "block", nil); !errors.Is(err, core.ErrQueueFull) {
		t.Fatalf("submit on a queue at capacity = %v, want ErrQueueFull", err)
	}
	release()
	for _, op := range fits {
		waitStatus(t, e, op.ID)
	}
}

func TestSubmitBatchLargerThanQueueCapacity(t *testing.T) {
	// A batch larger than the queue can never be admitted, so it must be
	// a permanent InvalidError naming the capacity, not the retryable
	// ErrQueueFull, on an idle engine and on every attempt.
	e := New(Config{Workers: 1, QueueDepth: 2})
	defer e.Shutdown(context.Background())
	e.Register("ok", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	items := []BatchItem{{Kind: "ok"}, {Kind: "ok"}, {Kind: "ok"}}
	for attempt := 0; attempt < 2; attempt++ {
		var inv *core.InvalidError
		_, err := e.SubmitBatch(context.Background(), items)
		if !errors.As(err, &inv) || inv.Reason != "size 3 exceeds queue capacity 2" {
			t.Fatalf("batch of 3 on capacity 2: error = %v, want *core.InvalidError naming the capacity", err)
		}
	}
	if got := len(listEngine(t, e, ListQuery{})); got != 0 {
		t.Errorf("store holds %d ops after a batch over capacity, want 0", got)
	}
	if _, err := e.SubmitBatch(context.Background(), items[:2]); err != nil {
		t.Errorf("batch of 2 at queue capacity 2 = %v, want admitted", err)
	}
}

func TestSubmitBatchAfterShutdown(t *testing.T) {
	e := New(Config{Workers: 1})
	e.Register("ok", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := e.SubmitBatch(context.Background(), []BatchItem{{Kind: "ok"}}); !errors.Is(err, core.ErrShuttingDown) {
		t.Errorf("SubmitBatch after shutdown error = %v, want ErrShuttingDown", err)
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	defer e.Shutdown(context.Background())

	release := make(chan struct{})
	e.Register("block", func(context.Context, *core.Operation) (any, error) {
		<-release
		return nil, nil
	})
	ran := make(chan string, 8)
	e.Register("track", func(_ context.Context, op *core.Operation) (any, error) {
		ran <- op.ID
		return nil, nil
	})

	// Occupy the single worker so the tracked op stays queued.
	blocker, err := e.Submit(context.Background(), "block", nil)
	if err != nil {
		t.Fatalf("Submit(block): %v", err)
	}
	if _, err := waitOp(e, blocker.ID, func(op *core.Operation) bool {
		return op.Status == core.StatusRunning
	}); err != nil {
		t.Fatalf("blocker never started: %v", err)
	}
	queued, err := e.Submit(context.Background(), "track", nil)
	if err != nil {
		t.Fatalf("Submit(track): %v", err)
	}

	snap, err := e.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if snap.Status != core.StatusCancelled {
		t.Errorf("cancelled queued op status = %s, want cancelled immediately", snap.Status)
	}
	if snap.CancelledAt.IsZero() {
		t.Error("cancelled op has zero CancelledAt")
	}
	if snap.Error == "" {
		t.Error("cancelled op has empty error message")
	}

	// Release the worker; it must skip the cancelled op, not run it.
	close(release)
	waitStatus(t, e, blocker.ID)
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case id := <-ran:
		t.Errorf("handler ran for cancelled queued op %s", id)
	default:
	}
	final, err := e.Get(queued.ID)
	if err != nil {
		t.Fatalf("Get after drain: %v", err)
	}
	if final.Status != core.StatusCancelled {
		t.Errorf("status after drain = %s, want cancelled", final.Status)
	}
}

// TestCancelledThenEvictedIsSkippedSilently: Cancel leaves a cancelled
// queued operation's item in the scheduler, and with a TTL the janitor
// can evict the (terminal) operation before a worker reaches that item.
// The operation ended exactly as the client asked, so the worker skips
// it: no handler, no bogus failed transition, nothing logged.
func TestCancelledThenEvictedIsSkippedSilently(t *testing.T) {
	clock, advance := steppedClock()
	// GCInterval is huge so only the explicit GC() sweeps.
	e := New(Config{Workers: 1, Clock: clock, OpTTL: time.Minute, GCInterval: time.Hour})
	defer e.Shutdown(context.Background())
	release := make(chan struct{})
	e.Register("block", func(context.Context, *core.Operation) (any, error) {
		<-release
		return nil, nil
	})
	ran := make(chan string, 1)
	e.Register("track", func(_ context.Context, op *core.Operation) (any, error) {
		ran <- op.ID
		return nil, nil
	})

	blocker, err := e.Submit(context.Background(), "block", nil)
	if err != nil {
		t.Fatalf("Submit(block): %v", err)
	}
	if _, err := waitOp(e, blocker.ID, func(op *core.Operation) bool {
		return op.Status == core.StatusRunning
	}); err != nil {
		t.Fatalf("blocker never started: %v", err)
	}
	queued, err := e.Submit(context.Background(), "track", nil)
	if err != nil {
		t.Fatalf("Submit(track): %v", err)
	}
	if _, err := e.Cancel(queued.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	advance(2 * time.Minute)
	if n := e.GC(); n != 1 {
		t.Fatalf("GC past TTL evicted %d ops, want the cancelled one", n)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	close(release)
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case id := <-ran:
		t.Errorf("handler ran for cancelled, evicted op %s", id)
	default:
	}
	if logged.Len() != 0 {
		t.Errorf("skipping a cancelled, evicted operation logged:\n%s", logged.String())
	}
	if d := e.Stats().QueueDepth; d != 0 {
		t.Errorf("QueueDepth after drain = %d, want 0", d)
	}
}

// countingStore counts the store calls the engine makes on the
// transition path.
type countingStore struct {
	Store
	putBatch, update, get atomic.Int64
}

func (s *countingStore) PutBatch(ops []*core.Operation) {
	s.putBatch.Add(1)
	s.Store.PutBatch(ops)
}

func (s *countingStore) Update(id string, fn func(op *core.Operation)) error {
	s.update.Add(1)
	return s.Store.Update(id, fn)
}

func (s *countingStore) Get(id string) (*core.Operation, error) {
	s.get.Add(1)
	return s.Store.Get(id)
}

func (s *countingStore) calls() [3]int64 {
	return [3]int64{s.putBatch.Load(), s.update.Load(), s.get.Load()}
}

// TestStoreCallsPerLifecycle pins what one operation costs the store:
// every transition hands its snapshot forward, so nothing on the
// submit → done path or in Cancel reads back what it just wrote. The
// test watches the notices feed, which never touches the store.
func TestStoreCallsPerLifecycle(t *testing.T) {
	cs := &countingStore{Store: NewShardedStore(0)}
	e := New(Config{Workers: 1, Store: cs})
	defer e.Shutdown(context.Background())
	e.Register("noop", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	release := make(chan struct{})
	e.Register("block", func(context.Context, *core.Operation) (any, error) {
		<-release
		return nil, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	awaitNotice := func(id string, status core.Status) {
		t.Helper()
		q := NoticeQuery{Statuses: []core.Status{status}}
		for {
			ns, err := e.AwaitNotices(ctx, q)
			if err != nil {
				t.Fatalf("waiting for %s to be %s: %v", id, status, err)
			}
			for _, n := range ns {
				if n.OpID == id {
					return
				}
			}
			q.After = ns[len(ns)-1].Seq
		}
	}

	op, err := e.Submit(ctx, "noop", nil)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitNotice(op.ID, core.StatusDone)
	if got, want := cs.calls(), [3]int64{1, 2, 0}; got != want {
		t.Errorf("submit → done made %v {PutBatch, Update, Get} calls, want %v", got, want)
	}

	// Pin the worker, then cancel an operation that is still queued.
	blocker, err := e.Submit(ctx, "block", nil)
	if err != nil {
		t.Fatalf("Submit(block): %v", err)
	}
	awaitNotice(blocker.ID, core.StatusRunning)
	queued, err := e.Submit(ctx, "noop", nil)
	if err != nil {
		t.Fatalf("Submit(queued): %v", err)
	}
	before := cs.calls()
	snap, err := e.Cancel(queued.ID)
	if err != nil || snap.Status != core.StatusCancelled {
		t.Fatalf("Cancel = %+v, %v, want the cancelled snapshot", snap, err)
	}
	got := cs.calls()
	for i := range got {
		got[i] -= before[i]
	}
	if want := [3]int64{0, 1, 0}; got != want {
		t.Errorf("queued cancel made %v {PutBatch, Update, Get} calls, want %v", got, want)
	}
	if stored, err := e.Get(queued.ID); err != nil || stored != snap {
		t.Errorf("Get after Cancel = %p (%v), want the snapshot Cancel returned, %p", stored, err, snap)
	}
	close(release)
}

func TestCancelRunningSignalsContext(t *testing.T) {
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

	if _, err := e.Cancel(op.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final := waitStatus(t, e, op.ID)
	if final.Status != core.StatusCancelled {
		t.Fatalf("final status = %s (error %q), want cancelled", final.Status, final.Error)
	}
	if final.CancelledAt.IsZero() {
		t.Error("cancelled op has zero CancelledAt")
	}
	if final.Error != core.ErrCancelled.Error() {
		t.Errorf("error = %q, want %q", final.Error, core.ErrCancelled)
	}
}

func TestCancelErrors(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())
	e.Register("ok", func(context.Context, *core.Operation) (any, error) { return nil, nil })

	if _, err := e.Cancel("missing"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Cancel(missing) error = %v, want ErrNotFound", err)
	}
	op, err := e.Submit(context.Background(), "ok", nil)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStatus(t, e, op.ID)
	if _, err := e.Cancel(op.ID); !errors.Is(err, core.ErrAlreadyTerminal) {
		t.Errorf("Cancel(done op) error = %v, want ErrAlreadyTerminal", err)
	}
}

// TestRefusedCancelsJournalNothing: Cancel of a settled operation is an
// Update whose callback changes nothing, so a storm of them publishes
// nothing and journals nothing — under WALSyncAlways each would
// otherwise cost an fsync.
func TestRefusedCancelsJournalNothing(t *testing.T) {
	dir := t.TempDir()
	store := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer store.Close()
	e := New(Config{Workers: 1, Store: store})
	defer e.Shutdown(context.Background())
	e.Register("ok", func(context.Context, *core.Operation) (any, error) { return nil, nil })

	op, err := e.Submit(context.Background(), "ok", nil)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitStatus(t, e, op.ID)
	if err := store.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before := countWALRecordTypes(t, dir)
	for i := 0; i < 100; i++ {
		if _, err := e.Cancel(op.ID); !errors.Is(err, core.ErrAlreadyTerminal) {
			t.Fatalf("Cancel(done op) = %v, want ErrAlreadyTerminal", err)
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if after := countWALRecordTypes(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("100 refused cancels moved the WAL's record counts by type from %v to %v", before, after)
	}
	if got, err := e.Get(op.ID); err != nil || got != done {
		t.Errorf("Get after refused cancels = %p (%v), want the snapshot they left alone, %p", got, err, done)
	}
}

func TestPerKindDeadlineFailsSlowHandler(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())

	e.Register("slow", func(ctx context.Context, _ *core.Operation) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, WithDeadline(20*time.Millisecond))

	op, err := e.Submit(context.Background(), "slow", nil)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if op.Deadline != 20*time.Millisecond {
		t.Errorf("submitted snapshot deadline = %s, want 20ms", op.Deadline)
	}
	final := waitStatus(t, e, op.ID)
	if final.Status != core.StatusFailed {
		t.Fatalf("final status = %s, want failed (deadline, not cancel)", final.Status)
	}
	if final.Error != context.DeadlineExceeded.Error() {
		t.Errorf("error = %q, want %q", final.Error, context.DeadlineExceeded)
	}
}

func TestGCEvictsOnlyExpiredTerminal(t *testing.T) {
	clock, advance := steppedClock()

	// GCInterval is huge so only explicit GC() calls sweep, keeping
	// the test deterministic under the fake clock.
	e := New(Config{Workers: 2, Clock: clock, OpTTL: time.Minute, GCInterval: time.Hour})
	defer e.Shutdown(context.Background())

	e.Register("ok", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	release := make(chan struct{})
	defer close(release)
	e.Register("block", func(context.Context, *core.Operation) (any, error) {
		<-release
		return nil, nil
	})

	// A running op must never be evicted, no matter how old.
	running, err := e.Submit(context.Background(), "block", nil)
	if err != nil {
		t.Fatalf("Submit(block): %v", err)
	}
	if _, err := waitOp(e, running.ID, func(op *core.Operation) bool {
		return op.Status == core.StatusRunning
	}); err != nil {
		t.Fatalf("blocker never started: %v", err)
	}
	done, err := e.Submit(context.Background(), "ok", nil)
	if err != nil {
		t.Fatalf("Submit(ok): %v", err)
	}
	waitStatus(t, e, done.ID)

	// Nothing is older than the TTL yet.
	if n := e.GC(); n != 0 {
		t.Errorf("GC before TTL evicted %d ops, want 0", n)
	}
	advance(2 * time.Minute)
	if n := e.GC(); n != 1 {
		t.Errorf("GC past TTL evicted %d ops, want exactly the terminal one", n)
	}
	stillThere, err := e.Get(running.ID)
	if err != nil {
		t.Fatalf("running op evicted: %v", err)
	}
	if stillThere.Status != core.StatusRunning {
		t.Fatalf("running op status = %s mid-test, want running", stillThere.Status)
	}
	if _, err := e.Get(done.ID); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Get(evicted op) = %v, want ErrNotFound", err)
	}
}

func TestGCDisabledWithoutTTL(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())
	e.Register("ok", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	op, _ := e.Submit(context.Background(), "ok", nil)
	waitStatus(t, e, op.ID)
	if n := e.GC(); n != 0 {
		t.Errorf("GC without TTL evicted %d ops, want 0 (disabled)", n)
	}
	if _, err := e.Get(op.ID); err != nil {
		t.Errorf("op evicted with GC disabled: %v", err)
	}
}

func TestJanitorBoundsStoreUnderLoad(t *testing.T) {
	e := New(Config{Workers: 4, OpTTL: 30 * time.Millisecond, GCInterval: 10 * time.Millisecond})
	defer e.Shutdown(context.Background())
	e.Register("ok", func(context.Context, *core.Operation) (any, error) { return nil, nil })

	const n = 64
	for i := 0; i < n; i++ {
		if _, err := e.Submit(context.Background(), "ok", nil); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	// Every op settles quickly; the janitor must eventually evict all
	// of them without any manual GC call.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e.Stats().StoreLen == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never drained store: %d ops remain", e.Stats().StoreLen)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// blockingSweepStore parks every SweepTerminalBefore until release
// closes, announcing each call on entered.
type blockingSweepStore struct {
	Store
	entered chan struct{}
	release chan struct{}
}

func (s *blockingSweepStore) SweepTerminalBefore(cutoff time.Time) int {
	s.entered <- struct{}{}
	<-s.release
	return s.Store.SweepTerminalBefore(cutoff)
}

// TestShutdownWaitsForJanitor checks that Shutdown's drain waits out a
// janitor sweep in progress, so a caller that closes the store after
// Shutdown never races a sweep still writing to it.
func TestShutdownWaitsForJanitor(t *testing.T) {
	s := &blockingSweepStore{
		Store:   NewShardedStore(0),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	e := New(Config{Workers: 1, Store: s, OpTTL: time.Minute, GCInterval: time.Millisecond})
	<-s.entered

	shut := make(chan error, 1)
	go func() { shut <- e.Shutdown(context.Background()) }()
	select {
	case err := <-shut:
		close(s.release)
		t.Fatalf("Shutdown returned (%v) while a janitor sweep was still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(s.release)
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("Shutdown after the sweep ended = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned after the sweep ended")
	}
}

func TestStatsReportSaturation(t *testing.T) {
	e := New(Config{Workers: 3, QueueDepth: 7})
	defer e.Shutdown(context.Background())

	st := e.Stats()
	if st.Workers != 3 {
		t.Errorf("Workers = %d, want 3", st.Workers)
	}
	if st.QueueCapacity != 7 {
		t.Errorf("QueueCapacity = %d, want 7", st.QueueCapacity)
	}
	if st.QueueDepth != 0 || st.StoreLen != 0 {
		t.Errorf("idle engine reports depth=%d store=%d, want 0/0", st.QueueDepth, st.StoreLen)
	}

	release := make(chan struct{})
	e.Register("block", func(context.Context, *core.Operation) (any, error) {
		<-release
		return nil, nil
	})
	// Fill all workers plus two queued.
	for i := 0; i < 5; i++ {
		if _, err := e.Submit(context.Background(), "block", nil); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	// Wait until the three workers have dequeued (released slots).
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().QueueDepth != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth = %d, want 2 (3 running + 2 queued)", e.Stats().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.Stats().StoreLen; got != 5 {
		t.Errorf("StoreLen = %d, want 5", got)
	}
	close(release)
}

func TestQueueFull(t *testing.T) {
	var nanos atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return base.Add(time.Duration(nanos.Load())) }
	rec := &orderRecorder{}
	e, started, gate := gatedEngine(t, Config{QueueDepth: 5, Clock: clock}, rec)
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before the cleanup's Shutdown, so a failed check cannot hang the drain
	startBlocker(t, e, started)

	// The blocker occupies the worker without holding a queue slot, so
	// five queued ops reach capacity exactly and the next must fail fast.
	for i := 0; i < 5; i++ {
		submitTag(t, e, "filler")
	}
	over, err := e.Submit(context.Background(), "tag", map[string]any{"tag": "over"})
	if !errors.Is(err, core.ErrQueueFull) {
		t.Fatalf("submit at capacity = %v, want ErrQueueFull", err)
	}
	if over != nil {
		t.Errorf("overflow submission returned op %v, want nil", over)
	}
	if got := len(listEngine(t, e, ListQuery{})); got != 6 {
		t.Errorf("store holds %d ops after overflow, want 6 (no phantom record)", got)
	}
	st := e.Stats()
	if st.QueueDepth != st.QueueCapacity || st.QueueCapacity != 5 {
		t.Errorf("Stats at the bound: depth %d, capacity %d, want 5 and 5", st.QueueDepth, st.QueueCapacity)
	}
	if st.QueueBands[string(core.PriorityNormal)] != 5 {
		t.Errorf("Stats.QueueBands[normal] = %d, want 5 (bands: %v)", st.QueueBands[string(core.PriorityNormal)], st.QueueBands)
	}

	// Once the blocker's dequeue has left the meter's window there is
	// no drain history, and the estimate is the ceiling.
	nanos.Store(int64(meterWindow * time.Second))
	if ra := e.RetryAfter(); ra != retryCeiling {
		t.Errorf("RetryAfter with no drain history = %s, want %s", ra, retryCeiling)
	}

	release()
	drainTags(t, rec, 5)
	// With drain history and an empty queue the estimate floors at 1s.
	if ra := e.RetryAfter(); ra < time.Second || ra > retryCeiling {
		t.Errorf("RetryAfter after drain = %s, want within [1s, %s]", ra, retryCeiling)
	}
}

// TestRetryAfterAfterIdleSpell: a burst that drains after an idle
// minute is measured over the seconds it actually spans, not diluted by
// the idle part of the meter's window. 21 dequeues in the current second
// with 30 queued answer ceil(30/21) = 2s; averaging the burst over the
// whole ten-second window would answer ceil(30/2.1) = 15s.
func TestRetryAfterAfterIdleSpell(t *testing.T) {
	var nanos atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return base.Add(time.Duration(nanos.Load())) }
	rec := &orderRecorder{}
	e, started, gate := gatedEngine(t, Config{QueueDepth: 40, Clock: clock}, rec)
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	for i := 0; i < 5; i++ {
		submitTag(t, e, "old")
	}
	drainTags(t, rec, 5)
	nanos.Store(int64(time.Minute))
	for i := 0; i < 20; i++ {
		submitTag(t, e, "burst")
	}
	drainTags(t, rec, 25)
	startBlocker(t, e, started)
	for i := 0; i < 30; i++ {
		submitTag(t, e, "queued")
	}
	if ra := e.RetryAfter(); ra != 2*time.Second {
		t.Errorf("RetryAfter with 30 queued after 21 dequeues this second = %s, want 2s", ra)
	}
}

// TestStampsCarryNoMonotonicReading: the index orders by CreatedAt
// while JSON and the WAL publish the wall clock alone, so a timestamp
// that kept time.Now's monotonic reading could order two near-
// simultaneous operations one way in this process and the other way
// after a restart. Every field the engine stamps must be wall-clock
// only, and a WAL store must list in the same order before and after
// it is reopened.
func TestStampsCarryNoMonotonicReading(t *testing.T) {
	dir := t.TempDir()
	store := openWAL(t, dir, WALConfig{Sync: WALSyncNone})
	e := New(Config{Workers: 4, Store: store})
	e.Register("noop", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	started := make(chan struct{}, 1)
	e.Register("block", func(ctx context.Context, _ *core.Operation) (any, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})

	// Concurrent submitters, so many CreatedAt values are nanoseconds
	// apart; one cancelled operation, so CancelledAt is stamped too.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				items := []BatchItem{{Kind: "noop"}, {Kind: "noop"}}
				if _, err := e.SubmitBatch(context.Background(), items); err != nil {
					t.Errorf("SubmitBatch: %v", err)
					return
				}
			}
		}()
	}
	blocked, err := e.Submit(context.Background(), "block", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := e.Cancel(blocked.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	wg.Wait()
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	before := listEngine(t, e, ListQuery{})
	if len(before) != 4*50*2+1 {
		t.Fatalf("listed %d operations, want %d", len(before), 4*50*2+1)
	}
	for _, op := range before {
		if !op.Status.Terminal() {
			t.Fatalf("op %s still %s after Shutdown", op.ID, op.Status)
		}
		for name, at := range map[string]time.Time{"CreatedAt": op.CreatedAt, "UpdatedAt": op.UpdatedAt, "CancelledAt": op.CancelledAt} {
			// Round(0) strips the monotonic reading and nothing else, so
			// the two differ exactly when there was one.
			if at != at.Round(0) {
				t.Errorf("op %s (%s): %s carries a monotonic reading: %v", op.ID, op.Status, name, at)
			}
		}
	}
	if cancelled, err := e.Get(blocked.ID); err != nil || cancelled.CancelledAt.IsZero() {
		t.Errorf("cancelled op = %+v, %v; want CancelledAt stamped", cancelled, err)
	}

	if err := store.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened := openWAL(t, dir, WALConfig{Sync: WALSyncNone})
	defer reopened.Close()
	after, err := reopened.List(ListQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := listIDs(after), listIDs(before); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("List order changed across reopen\nbefore: %v\n after: %v", want, got)
	}
}

// TestResultEncoding: a json.RawMessage result already in canonical form
// is published as the very bytes the handler returned; anything else —
// values, and raw JSON that is spaced, unsafe or broken — comes out as
// json.Marshal would have encoded it, or fails the operation.
func TestResultEncoding(t *testing.T) {
	shared := json.RawMessage(`{"ok":true}`)
	for _, tc := range []struct {
		name    string
		result  any
		want    string // "" means the operation must fail
		aliased bool
	}{
		{"nil", nil, "", false},
		{"canonical raw", shared, `{"ok":true}`, true},
		{"spaced raw", json.RawMessage(` { "a" : 1 } `), `{"a":1}`, false},
		{"html raw", json.RawMessage(`"<b>"`), `"\u003cb\u003e"`, false},
		{"empty raw", json.RawMessage(nil), `null`, false},
		{"map", map[string]any{"b": 1.0, "a": "x"}, `{"a":"x","b":1}`, false},
		{"struct", struct{ N int }{3}, `{"N":3}`, false},
		{"broken raw", json.RawMessage(`{"a":`), "", false},
		{"channel", make(chan int), "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Workers: 1})
			defer e.Shutdown(context.Background())
			e.Register("k", func(context.Context, *core.Operation) (any, error) { return tc.result, nil })
			op, err := e.Submit(context.Background(), "k", nil)
			if err != nil {
				t.Fatal(err)
			}
			final := waitStatus(t, e, op.ID)
			if tc.want == "" && tc.result != nil {
				if final.Status != core.StatusFailed || !strings.Contains(final.Error, "result not serializable") {
					t.Fatalf("op = %s (%q), want failed as not serializable", final.Status, final.Error)
				}
				return
			}
			if final.Status != core.StatusDone || string(final.Result) != tc.want {
				t.Fatalf("op = %s result %q (%s), want done with %q", final.Status, final.Result, final.Error, tc.want)
			}
			if aliased := len(final.Result) > 0 && &final.Result[0] == &shared[0]; aliased != tc.aliased {
				t.Errorf("result shares the handler's bytes: %v, want %v", aliased, tc.aliased)
			}
		})
	}
}
