package engine

// Model-based test of the scheduler: seeded random histories of
// reserve/commit/take/close, with one to eight clients spread over the
// three bands and a fake clock, run against a schedQueue and against a
// model made of plain slices. What must hold at every step:
//
//   - each client's operations leave its band in the order committed;
//   - a take serves the highest non-empty band, unless it is an aged
//     dispatch;
//   - an aged dispatch comes at most once per agedEvery takes, and only
//     from a band below the highest non-empty one whose next turn has
//     waited promoteAfter or longer, the longest-waiting such band; and
//     once the valve is due, a starved band is never left waiting;
//   - within a band, no pending client is passed over twice: no other
//     client is served twice between two of its turns;
//   - depth is scheduled plus held, never above capacity, and the
//     per-band and per-client counts match; each band's rotation holds
//     exactly its clients with pending items;
//   - the drain rate read with the depth is what the model's log of
//     dispatch times gives;
//   - take reports done only once the queue is closed, empty and holds
//     no reservation; before that it dispatches or parks.
//
// A failure prints its seed; -modelseed N reruns exactly that history.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// schedModelBand is one band of the model: each client's pending
// operations oldest first, the clients in turn order, and per pending
// client the set of clients served since its own last turn.
type schedModelBand struct {
	queues   map[string][]*core.Operation
	turns    []string
	passed   map[string]map[string]bool
	enqueued map[*core.Operation]time.Time
}

type schedModelRun struct {
	t        *testing.T
	seed     int64
	s        *schedQueue
	now      time.Time
	capacity int
	held     []int // granted reservations not yet committed, by size
	closed   bool
	bands    [numBands]schedModelBand
	// sinceAged counts dispatching takes since the last aged dispatch.
	sinceAged int
	// dispatched logs the clock reading of every dispatch.
	dispatched []time.Time
	ids        int
	trace      []string
}

func (mr *schedModelRun) fatalf(format string, args ...any) {
	mr.t.Helper()
	tail := mr.trace[max(0, len(mr.trace)-25):]
	hist := ""
	for _, line := range tail {
		hist += "\n  " + line
	}
	mr.t.Fatalf("seed %d (rerun with -modelseed %d), step %d: %s\nlast steps:%s",
		mr.seed, mr.seed, len(mr.trace), fmt.Sprintf(format, args...), hist)
}

func (mr *schedModelRun) scheduled() int {
	n := 0
	for i := range mr.bands {
		n += len(mr.bands[i].enqueued)
	}
	return n
}

func (mr *schedModelRun) heldTotal() int {
	n := 0
	for _, k := range mr.held {
		n += k
	}
	return n
}

// drainRate is the drain rate at now by the log of dispatch times: the
// dispatches of the trailing meterWindow seconds over the seconds from
// the oldest of them to now, at least one.
func (mr *schedModelRun) drainRate() float64 {
	total, span := 0, int64(1)
	for _, at := range mr.dispatched {
		if age := mr.now.Unix() - at.Unix(); age < meterWindow {
			total++
			span = max(span, age+1)
		}
	}
	return float64(total) / float64(span)
}

// first is the highest non-empty band, numBands when all are empty.
func (mr *schedModelRun) first() int {
	i := 0
	for i < numBands && len(mr.bands[i].turns) == 0 {
		i++
	}
	return i
}

// waited is how long band i's next turn has queued.
func (mr *schedModelRun) waited(i int) time.Duration {
	b := &mr.bands[i]
	return mr.now.Sub(b.enqueued[b.queues[b.turns[0]][0]])
}

// starved lists the bands below the highest non-empty one whose next
// turn has waited promoteAfter or longer.
func (mr *schedModelRun) starved() []int {
	var out []int
	for i := mr.first() + 1; i < numBands; i++ {
		if len(mr.bands[i].turns) > 0 && mr.waited(i) >= promoteAfter {
			out = append(out, i)
		}
	}
	return out
}

func (mr *schedModelRun) reserve(k int) {
	err := mr.s.reserve(k)
	mr.trace = append(mr.trace, fmt.Sprintf("reserve(%d) = %v", k, err))
	var want error
	switch {
	case mr.closed:
		want = core.ErrShuttingDown
	case mr.scheduled()+mr.heldTotal()+k > mr.capacity:
		want = core.ErrQueueFull
	}
	if !errors.Is(err, want) || (want == nil) != (err == nil) {
		mr.fatalf("reserve(%d) at depth %d of %d (closed %v) = %v, want %v",
			k, mr.scheduled()+mr.heldTotal(), mr.capacity, mr.closed, err, want)
	}
	if err == nil {
		mr.held = append(mr.held, k)
	}
}

// commit commits the j-th held reservation with operations spread over
// nClients clients and the three bands.
func (mr *schedModelRun) commit(r *rand.Rand, j, nClients int) {
	k := mr.held[j]
	mr.held = slices.Delete(mr.held, j, j+1)
	ops := make([]*core.Operation, k)
	desc := ""
	for i := range ops {
		mr.ids++
		band := r.Intn(numBands)
		ops[i] = &core.Operation{
			ID:       fmt.Sprintf("op-%d", mr.ids),
			Client:   fmt.Sprintf("c%d", r.Intn(nClients)),
			Priority: bandPriorities[band],
		}
		desc += fmt.Sprintf(" %s/%s/%s", ops[i].ID, ops[i].Client, ops[i].Priority)
		b := &mr.bands[band]
		c := ops[i].Client
		if len(b.queues[c]) == 0 {
			b.turns = append(b.turns, c)
			b.passed[c] = map[string]bool{}
		}
		b.queues[c] = append(b.queues[c], ops[i])
		b.enqueued[ops[i]] = mr.now
	}
	mr.trace = append(mr.trace, "commit"+desc)
	mr.s.commit(ops, mr.now)
}

// checkTake checks one dispatch against the model and applies it.
func (mr *schedModelRun) checkTake(op *core.Operation) {
	mr.trace = append(mr.trace, fmt.Sprintf("take = %s/%s/%s", op.ID, op.Client, op.Priority))
	band := bandIndex(op.Priority)
	b := &mr.bands[band]
	c := op.Client
	if _, ok := b.enqueued[op]; !ok {
		mr.fatalf("dispatched %s, which is not pending", op.ID)
	}
	if head := b.queues[c][0]; head != op {
		mr.fatalf("client %s's FIFO order broken in band %d: dispatched %s, its oldest is %s", c, band, op.ID, head.ID)
	}

	mr.sinceAged++
	first, starved := mr.first(), mr.starved()
	due := mr.sinceAged >= agedEvery
	switch {
	case band == first && due && len(starved) > 0:
		mr.fatalf("valve due %d takes after the last aged dispatch and band %d starved (next turn waited %v), but band %d was served",
			mr.sinceAged, starved[0], mr.waited(starved[0]), band)
	case band != first && !due:
		mr.fatalf("aged dispatch from band %d only %d takes after the last (cap: one per %d), band %d is the highest non-empty",
			band, mr.sinceAged, agedEvery, first)
	case band != first && !slices.Contains(starved, band):
		mr.fatalf("aged dispatch from band %d, whose next turn waited %v < %v", band, mr.waited(band), promoteAfter)
	case band != first:
		for _, i := range starved {
			if mr.waited(i) > mr.waited(band) {
				mr.fatalf("aged dispatch from band %d (waited %v), but band %d waited longer (%v)",
					band, mr.waited(band), i, mr.waited(i))
			}
		}
		mr.sinceAged = 0
	}

	for other, seen := range b.passed {
		if other == c {
			continue
		}
		if seen[c] {
			mr.fatalf("band %d passed over pending client %s twice: %s served again before it", band, other, c)
		}
		seen[c] = true
	}
	if b.turns[0] != c {
		mr.fatalf("band %d served %s, but it is %s's turn (turn order %v)", band, c, b.turns[0], b.turns)
	}

	mr.dispatched = append(mr.dispatched, mr.now)
	delete(b.enqueued, op)
	b.turns = b.turns[1:]
	if b.queues[c] = b.queues[c][1:]; len(b.queues[c]) == 0 {
		delete(b.queues, c)
		delete(b.passed, c)
	} else {
		b.turns = append(b.turns, c)
		b.passed[c] = map[string]bool{}
	}
}

// dispatch calls take, failing the history with its seed if it panics.
func (mr *schedModelRun) dispatch() (*core.Operation, bool) {
	defer func() {
		if p := recover(); p != nil {
			mr.fatalf("take panicked: %v", p)
		}
	}()
	return mr.s.take(mr.now)
}

// take takes once. On a queue the model says is empty but not done it
// runs take on its own goroutine, where it parks, and then commits a
// reservation to wake it — reserving one first if none is held.
func (mr *schedModelRun) take(r *rand.Rand, nClients int) {
	if mr.scheduled() > 0 {
		op, done := mr.dispatch()
		if op == nil || done {
			mr.fatalf("take with %d scheduled = (%v, done %v), want a dispatch", mr.scheduled(), op, done)
		}
		mr.checkTake(op)
		return
	}
	if mr.closed && len(mr.held) == 0 {
		op, done := mr.dispatch()
		mr.trace = append(mr.trace, fmt.Sprintf("take = (%v, done %v)", op, done))
		if op != nil || !done {
			mr.fatalf("take on a closed, empty queue with no reservation = (%v, done %v), want done", op, done)
		}
		return
	}
	type result struct {
		op   *core.Operation
		done bool
	}
	got := make(chan result, 1)
	now := mr.now
	go func() {
		op, done := mr.s.take(now)
		got <- result{op, done}
	}()
	select {
	case res := <-got:
		mr.fatalf("take on an empty queue (closed %v, %d held) returned (%v, done %v) before any commit",
			mr.closed, mr.heldTotal(), res.op, res.done)
	case <-time.After(200 * time.Microsecond):
	}
	mr.trace = append(mr.trace, "take parks")
	if len(mr.held) == 0 {
		mr.reserve(1 + r.Intn(3))
	}
	mr.commit(r, 0, nClients)
	res := <-got
	switch {
	case res.done:
		mr.fatalf("parked take reported done after a commit")
	case res.op != nil:
		mr.checkTake(res.op) // the commit landed before take locked
	default:
		mr.trace = append(mr.trace, "take woken empty-handed")
	}
}

func (mr *schedModelRun) close() {
	did := mr.s.close()
	mr.trace = append(mr.trace, fmt.Sprintf("close = %v", did))
	if did == mr.closed {
		mr.fatalf("close = %v with the queue already closed %v", did, mr.closed)
	}
	mr.closed = true
}

// check compares the queue's depth, drain rate and counts with the
// model.
func (mr *schedModelRun) check() {
	depth, rate, bands, clients := mr.s.depths(mr.now)
	depth1, rate1 := mr.s.depth(mr.now)
	want := mr.scheduled() + mr.heldTotal()
	if depth != want || depth1 != want {
		mr.fatalf("depth %d (depths) / %d (depth), want %d scheduled + %d held", depth, depth1, mr.scheduled(), mr.heldTotal())
	}
	if wantRate := mr.drainRate(); rate != wantRate || rate1 != wantRate {
		mr.fatalf("drain rate %v (depths) / %v (depth), want %v from %d dispatches", rate, rate1, wantRate, len(mr.dispatched))
	}
	if depth > mr.capacity {
		mr.fatalf("depth %d exceeds capacity %d", depth, mr.capacity)
	}
	wantBands, wantClients := map[string]int{}, map[string]int{}
	for i := range mr.bands {
		// A client is in the rotation exactly while it has pending items.
		if got, want := mr.s.bands[i].rotation.n, len(mr.bands[i].turns); got != want {
			mr.fatalf("band %d's rotation holds %d clients, want the %d with pending items %v", i, got, want, mr.bands[i].turns)
		}
		wantBands[string(bandPriorities[i])] = len(mr.bands[i].enqueued)
		for c, q := range mr.bands[i].queues {
			wantClients[c] += len(q)
		}
	}
	if !maps.Equal(bands, wantBands) || !maps.Equal(clients, wantClients) {
		mr.fatalf("depths bands %v clients %v, want %v %v", bands, clients, wantBands, wantClients)
	}
}

func TestSchedModel(t *testing.T) {
	seeds := []int64{1, 2, 3, time.Now().UnixNano()}
	if *modelSeed != 0 {
		seeds = []int64{*modelSeed}
	}
	steps := 600
	if testing.Short() {
		steps = 150
	}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		mr := &schedModelRun{
			t:        t,
			seed:     seed,
			now:      time.Unix(1_700_000_000, 0),
			capacity: 4 + r.Intn(29),
		}
		for i := range mr.bands {
			mr.bands[i] = schedModelBand{
				queues:   map[string][]*core.Operation{},
				passed:   map[string]map[string]bool{},
				enqueued: map[*core.Operation]time.Time{},
			}
		}
		mr.s = newSchedQueue(mr.capacity)
		nClients := 1 + r.Intn(8)
		for i := 0; i < steps; i++ {
			if r.Intn(3) == 0 {
				mr.now = mr.now.Add(time.Duration(r.Intn(1500)) * time.Millisecond)
			}
			switch k := r.Intn(100); {
			case k < 30:
				mr.reserve(1 + r.Intn(4))
			case k < 55:
				// Once closed, only a take that parks commits, so a closed
				// queue that empties while owed a reservation is common.
				if len(mr.held) > 0 && !mr.closed {
					mr.commit(r, r.Intn(len(mr.held)), nClients)
				}
			case k < 98:
				mr.take(r, nClients)
			case i > steps/2 && k == 99 && len(mr.held) > 0:
				mr.close()
			}
			mr.check()
		}
		// Drain: close with a reservation held, and take until done. Once
		// the queue is empty, a take that is still owed the reservation
		// parks until it is committed.
		if !mr.closed {
			for mr.scheduled()+mr.heldTotal() >= mr.capacity {
				mr.take(r, nClients)
			}
			mr.reserve(1)
			mr.close()
		}
		for mr.scheduled() > 0 || len(mr.held) > 0 {
			mr.take(r, nClients)
			mr.check()
		}
		mr.take(r, nClients)
		mr.close()
	}
}
