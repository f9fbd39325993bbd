package engine

// Conformance tests for the scheduler layer: priority ordering under
// contention, round-robin fairness bounds, the aging escape valve, and the
// admission-control shed path. They share a gate pattern — a blocker
// operation pins the single worker while the test shapes the queue, so
// dispatch order is decided entirely by the scheduler, never by
// submission racing.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// orderRecorder collects the order in which operations complete; with
// one worker that equals dispatch order.
type orderRecorder struct {
	mu    sync.Mutex
	order []string
}

func (r *orderRecorder) record(tag string) {
	r.mu.Lock()
	r.order = append(r.order, tag)
	r.mu.Unlock()
}

func (r *orderRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// gatedEngine builds a 1-worker engine whose "block" kind pins the
// worker until release is closed, and whose "tag" kind records its
// params["tag"] into rec on completion.
func gatedEngine(t *testing.T, cfg Config, rec *orderRecorder) (e *Engine, started chan struct{}, release chan struct{}) {
	t.Helper()
	cfg.Workers = 1
	e = New(cfg)
	t.Cleanup(func() { e.Shutdown(context.Background()) })
	started = make(chan struct{})
	release = make(chan struct{})
	e.Register("block", func(ctx context.Context, _ *core.Operation) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	e.Register("tag", func(_ context.Context, op *core.Operation) (any, error) {
		tag, _ := op.Params["tag"].(string)
		rec.record(tag)
		return nil, nil
	})
	return e, started, release
}

// startBlocker submits the gate operation and waits until it occupies
// the worker, so subsequent submissions queue instead of running.
func startBlocker(t *testing.T, e *Engine, started chan struct{}) string {
	t.Helper()
	op, err := e.Submit(context.Background(), "block", nil)
	if err != nil {
		t.Fatalf("submitting blocker: %v", err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocker never started")
	}
	return op.ID
}

// drainTags waits until want tags have been recorded.
func drainTags(t *testing.T, rec *orderRecorder, want int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := rec.snapshot()
		if len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("recorded %d of %d operations: %v", len(got), want, got)
		}
		time.Sleep(time.Millisecond)
	}
}

func submitTag(t *testing.T, e *Engine, tag string, opts ...SubmitOption) {
	t.Helper()
	submitTagAt(t, e, tag, "", opts...)
}

// submitTagAt submits a tag operation whose request item carries
// priority p; empty means normal.
func submitTagAt(t *testing.T, e *Engine, tag string, p core.Priority, opts ...SubmitOption) {
	t.Helper()
	item := BatchItem{Kind: "tag", Params: map[string]any{"tag": tag}, Priority: p}
	if _, err := e.SubmitBatch(context.Background(), []BatchItem{item}, opts...); err != nil {
		t.Fatalf("submitting %q: %v", tag, err)
	}
}

// frozenClock returns a clock that never advances, so no operation ever
// ages past promoteAfter and dispatch order is strict bands plus
// round-robin alone.
func frozenClock() func() time.Time {
	at := time.Unix(1_700_000_000, 0)
	return func() time.Time { return at }
}

// TestPriorityOrderingUnderContention pins the worker, enqueues a mix
// interleaved so FIFO would produce a shuffled order, and checks the
// strict policy drains high, then normal, then low.
func TestPriorityOrderingUnderContention(t *testing.T) {
	rec := &orderRecorder{}
	// A frozen clock keeps the aging valve shut, so the order is purely
	// strict.
	e, started, release := gatedEngine(t, Config{Clock: frozenClock()}, rec)
	startBlocker(t, e, started)

	for i := 0; i < 3; i++ {
		submitTagAt(t, e, "low", core.PriorityLow)
		submitTagAt(t, e, "normal", core.PriorityNormal)
		submitTagAt(t, e, "high", core.PriorityHigh)
	}
	close(release)
	got := drainTags(t, rec, 9)

	want := []string{"high", "high", "high", "normal", "normal", "normal", "low", "low", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestDefaultAndKindPriority checks the one priority rule: the request
// item's priority, else normal, published on the snapshot. A kind has
// no default of its own.
func TestDefaultAndKindPriority(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Shutdown(context.Background())
	e.Register("plain", func(context.Context, *core.Operation) (any, error) { return nil, nil })

	ops, err := e.SubmitBatch(context.Background(), []BatchItem{
		{Kind: "plain", Priority: core.PriorityLow},
		{Kind: "plain", Priority: core.PriorityHigh},
		{Kind: "plain"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []core.Priority{core.PriorityLow, core.PriorityHigh, core.PriorityNormal} {
		if ops[i].Priority != want {
			t.Errorf("item %d priority = %s, want %s", i, ops[i].Priority, want)
		}
	}
	op, err := e.Submit(context.Background(), "plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	if op.Priority != core.PriorityNormal {
		t.Errorf("unset priority = %s, want normal", op.Priority)
	}

	// A single item's invalid priority is its own InvalidError once
	// unwrapped, as the API does for a single-object body; in a batch it
	// rejects the whole batch.
	_, err = e.SubmitBatch(context.Background(), []BatchItem{{Kind: "plain", Priority: "urgent"}})
	var inv *core.InvalidError
	if !errors.As(core.UnwrapSingle(err), &inv) || inv.Field != "priority" {
		t.Errorf("invalid single-item priority error = %v, want InvalidError on priority", err)
	}
	if _, err := e.SubmitBatch(context.Background(), []BatchItem{{Kind: "plain"}, {Kind: "plain", Priority: "urgent"}}); err == nil {
		t.Error("batch with invalid item priority was accepted")
	}
}

// TestDRRFairnessBound pins the worker, lets one greedy client bury
// the queue under 30 operations, then adds 4 small clients with 3
// each. FIFO would drain all 30 greedy operations first; DRR must
// interleave so that when the last small-client operation completes,
// the greedy client has consumed no more than its round-robin share.
func TestDRRFairnessBound(t *testing.T) {
	rec := &orderRecorder{}
	e, started, release := gatedEngine(t, Config{Clock: frozenClock()}, rec)
	startBlocker(t, e, started)

	for i := 0; i < 30; i++ {
		submitTag(t, e, "greedy", AsClient("greedy"))
	}
	small := []string{"c1", "c2", "c3", "c4"}
	for i := 0; i < 3; i++ {
		for _, c := range small {
			submitTag(t, e, c, AsClient(c))
		}
	}
	close(release)
	got := drainTags(t, rec, 42)

	// Position of the last small-client completion.
	remaining := map[string]int{"c1": 3, "c2": 3, "c3": 3, "c4": 3}
	greedyBefore, lastSmall := 0, -1
	for i, tag := range got {
		if tag == "greedy" {
			if lastSmall == -1 {
				greedyBefore++
			}
			continue
		}
		remaining[tag]--
		if remaining[tag] == 0 {
			delete(remaining, tag)
			if len(remaining) == 0 {
				lastSmall = i
				greedyBefore = i + 1 - 12 // greedy ops among the first i+1
			}
		}
	}
	if lastSmall == -1 {
		t.Fatalf("small clients never finished: %v", got)
	}
	// Perfect round-robin serves at most one greedy op per round of 5
	// clients; 3 rounds drain the small clients, so ~3-4 greedy ops.
	// Allow slack for rotation order but stay far below FIFO's 30.
	if greedyBefore > 8 {
		t.Errorf("greedy client completed %d ops before the small clients finished (positions 0..%d), want <= 8: %v",
			greedyBefore, lastSmall, got)
	}
}

// TestAgingPromotesStarvedLow freezes time, buries one low-priority
// operation under a pile of high-priority work, then ages it past
// promoteAfter and checks the valve serves it long before the high
// band drains — but not before the 1-in-agedEvery cap allows.
func TestAgingPromotesStarvedLow(t *testing.T) {
	var nanos atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return base.Add(time.Duration(nanos.Load())) }

	rec := &orderRecorder{}
	e, started, release := gatedEngine(t, Config{Clock: clock}, rec)
	startBlocker(t, e, started)

	submitTagAt(t, e, "starved", core.PriorityLow)
	for i := 0; i < 50; i++ {
		submitTagAt(t, e, "high", core.PriorityHigh)
	}
	// Age everything past the promotion threshold, then open the gate.
	nanos.Store(int64(promoteAfter + time.Second))
	close(release)
	got := drainTags(t, rec, 51)

	pos := -1
	for i, tag := range got {
		if tag == "starved" {
			pos = i
			break
		}
	}
	if pos == -1 {
		t.Fatalf("starved op never completed: %v", got)
	}
	// The cap allows the first aged dispatch once sinceAged reaches
	// agedEvery — a handful of takes in, far before the 50 high ops
	// drain — and never on the very first dispatch.
	if pos > 2*agedEvery {
		t.Errorf("starved low op completed at position %d, want within %d (aging valve)", pos, 2*agedEvery)
	}
	if pos < 1 {
		t.Errorf("starved low op completed first; the 1-in-%d cap should serve high work before aging", agedEvery)
	}
}

// TestSchedArrivalStaysCompacted guards against a dispatch-path leak:
// after a steady state of commit/take rounds the band must hold nothing
// of the operations it dispatched — no client queue, an empty rotation
// and a zero count — so neither client keys nor queue storage outlive
// the work they held.
func TestSchedArrivalStaysCompacted(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	s := newSchedQueue(1024)
	ops := []*core.Operation{{ID: "op", Client: "client", Priority: core.PriorityNormal}}
	for i := 0; i < 1000; i++ {
		if err := s.reserve(1); err != nil {
			t.Fatalf("reserve on an empty queue: %v", err)
		}
		s.commit(ops, now)
		if op, _ := s.take(now); op == nil {
			t.Fatal("take on non-empty queue reported empty")
		}
	}
	b := &s.bands[1]
	if len(b.clients) != 0 || b.rotation.n != 0 || b.n != 0 {
		t.Errorf("band after steady-state drain: %d client queues, rotation %d, n %d, want 0/0/0",
			len(b.clients), b.rotation.n, b.n)
	}
}

// TestSchedSteadyStateAllocs pins the scheduler's share of the
// per-operation garbage: a batch-10 commit and the ten takes that
// dispatch it allocate nothing while the client stays queued, because
// the client's ring and the band's rotation reuse their storage. A
// client whose queue drains every round is logged, not pinned: its
// queue is rebuilt each round so that client keys cannot leak.
func TestSchedSteadyStateAllocs(t *testing.T) {
	skipIfRace(t)
	now := time.Unix(1_700_000_000, 0)
	batch := make([]*core.Operation, 10)
	for i := range batch {
		batch[i] = &core.Operation{ID: "op", Client: "client", Priority: core.PriorityNormal}
	}
	round := func(s *schedQueue) func() {
		return func() {
			if err := s.reserve(len(batch)); err != nil {
				t.Fatal(err)
			}
			s.commit(batch, now)
			for range batch {
				if op, _ := s.take(now); op == nil {
					t.Fatal("take on a non-empty queue dispatched nothing")
				}
			}
		}
	}
	queued := newSchedQueue(1024)
	if err := queued.reserve(1); err != nil {
		t.Fatal(err)
	}
	queued.commit(batch[:1], now) // one item always left: the client stays queued
	if allocs := testing.AllocsPerRun(1000, round(queued)); allocs != 0 {
		t.Errorf("batch-10 commit plus ten takes allocates %.1f objects, want 0", allocs)
	}
	t.Logf("batch-10 round whose client drains: %.1f objects",
		testing.AllocsPerRun(1000, round(newSchedQueue(1024))))
}

// TestShedDisabledByDefault pins that no configuration sheds below
// capacity: -queue-depth is the only admission bound, and a full queue
// refuses every overflow with ErrQueueFull.
func TestShedDisabledByDefault(t *testing.T) {
	rec := &orderRecorder{}
	e, started, release := gatedEngine(t, Config{QueueDepth: 2}, rec)
	defer close(release)
	startBlocker(t, e, started)

	submitTag(t, e, "a")
	submitTag(t, e, "b")
	if _, err := e.Submit(context.Background(), "tag", map[string]any{"tag": "c"}); !errors.Is(err, core.ErrQueueFull) {
		t.Fatalf("overfull submit = %v, want ErrQueueFull", err)
	}
	// Overflowing by more than one is the same refusal.
	over := []BatchItem{{Kind: "tag"}, {Kind: "tag"}}
	if _, err := e.SubmitBatch(context.Background(), over); !errors.Is(err, core.ErrQueueFull) {
		t.Fatalf("batch overflowing a full queue by two = %v, want ErrQueueFull", err)
	}
}

// TestSchedDepthsPerClient checks the per-client depth accounting that
// feeds Stats and /v1/health.
func TestSchedDepthsPerClient(t *testing.T) {
	rec := &orderRecorder{}
	e, started, release := gatedEngine(t, Config{}, rec)
	startBlocker(t, e, started)

	submitTagAt(t, e, "x", core.PriorityHigh, AsClient("alice"))
	submitTag(t, e, "x", AsClient("alice"))
	submitTag(t, e, "x", AsClient("bob"))

	st := e.Stats()
	if st.QueueClients["alice"] != 2 || st.QueueClients["bob"] != 1 {
		t.Errorf("QueueClients = %v, want alice:2 bob:1", st.QueueClients)
	}
	if st.QueueBands[string(core.PriorityHigh)] != 1 || st.QueueBands[string(core.PriorityNormal)] != 2 {
		t.Errorf("QueueBands = %v, want high:1 normal:2", st.QueueBands)
	}

	close(release)
	drainTags(t, rec, 3)
}

// TestDrainMeterRate pins the drain-rate arithmetic RetryAfter builds
// on: the records are averaged over the span from the oldest second that
// drained to now, capped at the window, so N records in the current
// second after no history are a rate of N.
func TestDrainMeterRate(t *testing.T) {
	var m drainMeter
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 20; i++ {
		m.record(now)
	}
	if got, want := m.rate(now), 20.0; got != want {
		t.Errorf("rate after 20 records in one second = %g, want %g", got, want)
	}
	// Records three seconds later span four seconds.
	for i := 0; i < 12; i++ {
		m.record(now.Add(3 * time.Second))
	}
	if got, want := m.rate(now.Add(3*time.Second)), 8.0; got != want {
		t.Errorf("rate over a four-second span = %g, want %g (32/4)", got, want)
	}
	// A query far in the future sees only stale buckets.
	if got := m.rate(now.Add(time.Hour)); got != 0 {
		t.Errorf("rate after idle hour = %g, want 0", got)
	}
}
