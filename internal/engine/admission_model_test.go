package engine

// Model-based test of admission: seeded goroutines submit batches sized
// around the queue's remaining capacity while a sampler polls Stats and
// List, handlers return at once, block on a gate or are cancelled while
// queued, and Shutdown fires at a random point of the history. What must
// hold however the race falls:
//
//   - observed queue depth never exceeds capacity;
//   - a refusal is ErrShuttingDown or ErrQueueFull, and nothing but
//     ErrShuttingDown once it was seen;
//   - a batch above capacity could never be admitted, so it is an
//     *core.InvalidError at any depth, before and after Shutdown, never
//     one of the retryable refusals;
//   - a batch is all-or-nothing: after a clean Shutdown the store holds
//     exactly the operations of the accepted batches, and no other ID
//     was ever visible through List;
//   - every accepted operation — one admitted while Shutdown was
//     closing the queue included — ended in exactly one terminal state,
//     its queued notice preceding its others; the workers have exited
//     and the queue is empty.
//
// A failure prints its seed; -modelseed N reruns that history (the
// goroutines' interleaving is the scheduler's, their draws are the
// seed's).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// slowPutStore widens the window between reserve and commit, where a
// Shutdown has to find the reservation and wait for it; its shutdownAt-th
// PutBatch starts that Shutdown itself, so the race is in most histories.
type slowPutStore struct {
	Store
	n          atomic.Int64
	shutdownAt int64
	shutdown   func()
}

func (s *slowPutStore) PutBatch(ops []*core.Operation) {
	switch n := s.n.Add(1); {
	case n == s.shutdownAt:
		s.shutdown()
		time.Sleep(200 * time.Microsecond)
	case n%3 == 0:
		time.Sleep(50 * time.Microsecond)
	}
	s.Store.PutBatch(ops)
}

type admissionRow struct {
	depth   int
	workers int
}

func (r admissionRow) String() string {
	return fmt.Sprintf("depth=%d/workers=%d", r.depth, r.workers)
}

// admissionRun is one history: an engine, what its submitters were
// granted, and what the sampler saw.
type admissionRun struct {
	t    *testing.T
	row  admissionRow
	seed int64
	e    *Engine
	// bound is the largest batch admission can ever grant: capacity.
	bound int

	gate     chan struct{}
	openGate sync.Once
	// attempts counts submits across all submitters; the ones numbered
	// gateAt and shutdownAt open the gate and start Shutdown (unless a
	// PutBatch in flight already has, see slowPutStore).
	attempts      atomic.Int64
	gateAt        int64
	shutdownAt    int64
	startShutdown sync.Once
	shutdown      chan error

	mu       sync.Mutex
	accepted map[string]bool
	seen     map[string]bool // every ID List ever showed the sampler
}

func (ar *admissionRun) errorf(format string, args ...any) {
	ar.t.Helper()
	ar.t.Errorf("%s seed %d (rerun with -modelseed %d): %s", ar.row, ar.seed, ar.seed, fmt.Sprintf(format, args...))
}

func (ar *admissionRun) release() { ar.openGate.Do(func() { close(ar.gate) }) }

func (ar *admissionRun) shutDown() {
	ar.startShutdown.Do(func() {
		go func() { ar.shutdown <- ar.e.Shutdown(context.Background()) }()
	})
}

// batchSize draws a size at one of the boundaries a concurrent reserve
// can land on: what is left under capacity or one either side of it,
// a small batch, anything that fits the queue, or one or two above
// capacity, which can never be admitted.
func (ar *admissionRun) batchSize(r *rand.Rand) int {
	st := ar.e.Stats()
	k := 1 + r.Intn(st.QueueCapacity)
	switch r.Intn(5) {
	case 0, 1:
		k = st.QueueCapacity - st.QueueDepth + r.Intn(3) - 1
	case 2:
		k = 1 + r.Intn(3)
	case 3:
		k = st.QueueCapacity + 1 + r.Intn(2)
	}
	return max(k, 1)
}

// submitter submits until the engine shuts down under it (or it has had
// its share of attempts), cancelling some of what it was granted.
func (ar *admissionRun) submitter(r *rand.Rand) {
	kinds := []string{"fast", "fast", "fast", "gate"}
	prios := []core.Priority{"", core.PriorityHigh, core.PriorityNormal, core.PriorityLow}
	closedSeen := 0
	for i := 0; i < 150 && closedSeen < 3; i++ {
		// Two ifs, not a switch: the draws may name the same attempt.
		n := ar.attempts.Add(1)
		if n == ar.gateAt {
			ar.release()
		}
		if n == ar.shutdownAt {
			ar.shutDown()
		}
		items := make([]BatchItem, ar.batchSize(r))
		for j := range items {
			items[j] = BatchItem{Kind: kinds[r.Intn(len(kinds))], Priority: prios[r.Intn(len(prios))]}
		}
		ops, err := ar.e.SubmitBatch(context.Background(), items, AsClient(fmt.Sprintf("c%d", r.Intn(3))))
		var inv *core.InvalidError
		switch {
		case len(items) > ar.bound:
			if !errors.As(err, &inv) {
				ar.errorf("batch of %d above the admission bound %d = %v, want *core.InvalidError", len(items), ar.bound, err)
			}
		case err == nil && closedSeen > 0:
			ar.errorf("batch of %d accepted after a submit had already seen ErrShuttingDown", len(items))
		case err == nil:
			if len(ops) != len(items) {
				ar.errorf("accepted batch returned %d operations for %d items", len(ops), len(items))
			}
			ar.mu.Lock()
			for _, op := range ops {
				ar.accepted[op.ID] = true
			}
			ar.mu.Unlock()
			if r.Intn(4) == 0 {
				// Usually still queued behind the gate; a running or
				// already settled one is refused or unwinds, all legal.
				ar.e.Cancel(ops[r.Intn(len(ops))].ID)
			}
		case errors.Is(err, core.ErrShuttingDown):
			closedSeen++
		case closedSeen > 0:
			ar.errorf("submit after ErrShuttingDown was seen = %v, want ErrShuttingDown", err)
		case errors.Is(err, core.ErrQueueFull):
			// The queue had no room for the batch; legal at any depth.
		default:
			ar.errorf("batch of %d refused with untyped error %v", len(items), err)
		}
	}
}

// sampler checks the depth bounds on every Stats reading and collects
// every ID List shows, until stop is closed.
func (ar *admissionRun) sampler(stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		st := ar.e.Stats()
		if st.QueueDepth > st.QueueCapacity {
			ar.errorf("observed queue depth %d above capacity %d", st.QueueDepth, st.QueueCapacity)
		}
		scheduled := 0
		for _, n := range st.QueueBands {
			scheduled += n
		}
		if scheduled > st.QueueDepth {
			ar.errorf("bands hold %d scheduled operations but depth reads %d in the same snapshot", scheduled, st.QueueDepth)
		}
		if i%8 == 0 {
			ops, err := ar.e.List(ListQuery{})
			if err != nil {
				ar.errorf("List: %v", err)
			}
			ar.mu.Lock()
			for _, op := range ops {
				ar.seen[op.ID] = true
			}
			ar.mu.Unlock()
		}
		runtime.Gosched()
	}
}

// checkFinal runs after Shutdown returned nil and every submitter has
// finished.
func (ar *admissionRun) checkFinal() {
	e := ar.e
	if _, err := e.Submit(context.Background(), "fast", nil); !errors.Is(err, core.ErrShuttingDown) {
		ar.errorf("submit after Shutdown returned = %v, want ErrShuttingDown", err)
	}
	select {
	case <-e.drained:
	default:
		ar.errorf("Shutdown returned nil with worker goroutines still running")
	}
	if st := e.Stats(); st.QueueDepth != 0 {
		ar.errorf("queue depth %d after a clean Shutdown, want 0 (bands %v)", st.QueueDepth, st.QueueBands)
	}
	stored, err := e.List(ListQuery{})
	if err != nil {
		ar.errorf("List: %v", err)
	}
	if len(stored) != len(ar.accepted) {
		ar.errorf("store holds %d operations, accepted batches hold %d", len(stored), len(ar.accepted))
	}
	for _, op := range stored {
		ar.seen[op.ID] = true
		if !op.Status.Terminal() {
			ar.errorf("accepted operation %s (%s) left %s by a clean Shutdown", op.ID, op.Kind, op.Status)
		}
	}
	for id := range ar.seen {
		if !ar.accepted[id] {
			ar.errorf("operation %s was visible through List but belongs to no accepted batch", id)
		}
	}
	if last, size := e.inflight.last(), uint64(len(e.inflight.ring)); last > size {
		ar.t.Fatalf("%s seed %d: %d notices overflowed the test's ring of %d", ar.row, ar.seed, last, size)
	}
	type life struct{ notices, terminal int }
	lives := make(map[string]*life, len(ar.accepted))
	for _, n := range e.Notices(NoticeQuery{}) {
		l := lives[n.OpID]
		if l == nil {
			l = &life{}
			lives[n.OpID] = l
		}
		if (l.notices == 0) != (n.Status == core.StatusQueued) {
			ar.errorf("operation %s: notice %d of its life is %s; queued must come first and only first", n.OpID, l.notices+1, n.Status)
		}
		l.notices++
		if n.Status.Terminal() {
			l.terminal++
		}
	}
	for id := range ar.accepted {
		if l := lives[id]; l == nil || l.terminal != 1 {
			ar.errorf("operation %s has %+v in the notices feed, want exactly one terminal notice", id, l)
		}
	}
}

func runAdmissionModel(t *testing.T, row admissionRow, seed int64) {
	r := rand.New(rand.NewSource(seed))
	ar := &admissionRun{
		t: t, row: row, seed: seed,
		gate:       make(chan struct{}),
		gateAt:     1 + r.Int63n(400),
		shutdownAt: 5 + r.Int63n(300),
		shutdown:   make(chan error, 1),
		accepted:   make(map[string]bool),
		seen:       make(map[string]bool),
	}
	ar.e = New(Config{
		Workers:    row.workers,
		QueueDepth: row.depth,
		// The two probes below are PutBatch 1 and 2. A history that
		// accepts fewer batches than drawn here shuts down by attempt
		// count instead.
		Store:      &slowPutStore{Store: NewShardedStore(0), shutdownAt: 3 + r.Int63n(80), shutdown: ar.shutDown},
		noticeRing: 1 << 14, // holds the whole history; checkFinal verifies
	})
	defer ar.release()
	ar.bound = ar.e.Stats().QueueCapacity
	ar.e.Register("fast", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	ar.e.Register("gate", func(ctx context.Context, _ *core.Operation) (any, error) {
		select {
		case <-ar.gate:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	// Every worker is parked by now or about to be: a commit has to
	// wake one, or this operation never runs.
	probe, err := ar.e.Submit(context.Background(), "fast", nil)
	if err != nil {
		t.Fatalf("%s seed %d: submit on an idle engine: %v", row, seed, err)
	}
	if _, err := waitOp(ar.e, probe.ID, terminal); err != nil {
		t.Fatalf("%s seed %d: operation submitted to idle workers never ran: %v", row, seed, err)
	}
	ar.accepted[probe.ID] = true
	// The probe has been dequeued, so the queue is empty, and the bound
	// is inclusive: a batch of exactly capacity fits.
	full := make([]BatchItem, ar.bound)
	for i := range full {
		full[i].Kind = "fast"
	}
	ops, err := ar.e.SubmitBatch(context.Background(), full)
	if err != nil {
		t.Fatalf("%s seed %d: batch of capacity %d on an empty queue: %v", row, seed, ar.bound, err)
	}
	for _, op := range ops {
		ar.accepted[op.ID] = true
	}

	stop := make(chan struct{})
	var sampling, submitting sync.WaitGroup
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		ar.sampler(stop)
	}()
	for i := int64(0); i < 4; i++ {
		sr := rand.New(rand.NewSource(seed*31 + i))
		submitting.Add(1)
		go func() {
			defer submitting.Done()
			ar.submitter(sr)
		}()
	}
	// Four submitters make at least shutdownAt attempts between them
	// unless the engine shuts down first, so Shutdown always starts.
	submitting.Wait()
	// Gated handlers hold their workers until now if gateAt was never
	// reached; the drain below needs them released.
	ar.release()
	select {
	case err := <-ar.shutdown:
		if err != nil {
			ar.errorf("Shutdown = %v, want nil", err)
		}
	case <-time.After(20 * time.Second):
		close(stop)
		t.Fatalf("%s seed %d (rerun with -modelseed %d): Shutdown has not returned after 20s; stats %+v",
			row, seed, seed, ar.e.Stats())
	}
	close(stop)
	sampling.Wait()
	ar.checkFinal()
}

func TestAdmissionModel(t *testing.T) {
	seeds := []int64{1, 2, 3, time.Now().UnixNano()}
	if *modelSeed != 0 {
		seeds = []int64{*modelSeed}
	}
	for _, depth := range []int{8, 64} {
		for _, workers := range []int{1, 4} {
			row := admissionRow{depth: depth, workers: workers}
			t.Run(row.String(), func(t *testing.T) {
				for _, seed := range seeds {
					runAdmissionModel(t, row, seed)
				}
			})
		}
	}
}
