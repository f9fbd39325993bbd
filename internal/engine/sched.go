package engine

// The scheduling layer that replaced the single FIFO dispatch channel.
// Accepted operations land in a schedQueue: three priority bands
// (high/normal/low), each holding per-client FIFO queues served in
// round-robin order. Dispatch order is decided at dequeue time, so one
// greedy tenant's backlog no longer sits in front of everyone else's
// work:
//
//   - Between bands, the highest non-empty band is drained first.
//   - Within a band, each client dispatches one operation per
//     round-robin turn, so a client with 10,000 queued operations and a
//     client with 1 alternate instead of the 10,000 draining first.
//   - An aging escape valve bounds the starvation strict bands would
//     otherwise allow. It chooses a band, not an item: when the next
//     round-robin turn of a band below the currently served one has
//     waited promoteAfter or longer, that band takes the turn. The valve
//     is capped at one aged dispatch per agedEvery takes so a flood of
//     aged low-priority work cannot invert the bands.
//
// Both orderings, the clients' FIFOs and each band's rotation, are one
// generic ring that reuses its storage, so a steady state allocates
// nothing.
//
// The scheduler counts its own dispatches in the drain meter it holds,
// and reads the drain rate with the depth, both from one moment.
//
// Concurrency contract: schedQueue.mu guards a few map/ring
// operations, the admission arithmetic, the drain meter and the
// workers' park, and nothing else. Its name places its critical
// sections under the lockscope analyzer — no channel operations,
// callbacks, Store calls, or re-entrant shard locking while it is held;
// the one wait is sync.Cond.Wait on this very mutex, which releases it.
// Time is sampled by callers and passed in, because the engine's clock
// is a function value the analyzer (rightly) refuses to see invoked
// under the lock.

import (
	"sync"
	"time"

	"opdaemon/internal/core"
)

// numBands is the number of priority bands.
const numBands = 3

// agedEvery caps the aging escape valve: at most one aged dispatch per
// this many takes, so aged low-band backlogs are drained without
// inverting the priority order.
const agedEvery = 4

// promoteAfter is the aging threshold: a band below the one being served
// becomes eligible for the valve once its next turn has queued this
// long.
const promoteAfter = 5 * time.Second

// bandIndex maps a resolved priority onto its band slot; lower index
// drains first.
func bandIndex(p core.Priority) int {
	switch p {
	case core.PriorityHigh:
		return 0
	case core.PriorityLow:
		return 2
	default:
		return 1
	}
}

// bandPriority is the inverse of bandIndex, for stats labels.
func bandPriority(i int) core.Priority {
	switch i {
	case 0:
		return core.PriorityHigh
	case 2:
		return core.PriorityLow
	default:
		return core.PriorityNormal
	}
}

// schedItem is one accepted operation awaiting dispatch: the queued
// snapshot commit was handed, which is what the worker hands the
// handler.
type schedItem struct {
	op       *core.Operation
	enqueued time.Time
}

// ring is a FIFO over a circular buffer that doubles when full and keeps
// its storage when it drains, so a steady state allocates nothing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// push appends v, doubling the buffer first when it is full.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(8, 2*len(r.buf)))
		copy(buf, r.buf[r.head:])
		copy(buf[len(r.buf)-r.head:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// peek returns the oldest element; the ring must not be empty.
func (r *ring[T]) peek() T { return r.buf[r.head] }

// pop removes and returns the oldest element; the ring must not be
// empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // unpin for GC
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// clientQueue is one client's FIFO within a band.
type clientQueue struct {
	key   string
	items ring[schedItem]
}

// schedBand is one priority band: per-client queues served in
// round-robin rotation. A client is in clients and in the rotation
// exactly while it has pending items, so client keys cannot leak.
type schedBand struct {
	clients map[string]*clientQueue
	// rotation's head is the client whose turn is next.
	rotation ring[*clientQueue]
	n        int
}

// waitingSince is when the item the band's next turn serves was
// enqueued; the band must not be empty.
func (b *schedBand) waitingSince() time.Time {
	return b.rotation.peek().items.peek().enqueued
}

// next serves the band's next turn: the client at the head of the
// rotation dispatches its oldest operation and goes to the back, or
// leaves the band if that was its last. The band must not be empty.
func (b *schedBand) next() *core.Operation {
	cq := b.rotation.pop()
	it := cq.items.pop()
	b.n--
	if cq.items.n > 0 {
		b.rotation.push(cq)
	} else {
		delete(b.clients, cq.key)
	}
	return it.op
}

// schedQueue is the engine's dispatch queue and the single owner of
// admission: priority bands over per-client round-robin queues, the
// depth bounds, the closed flag, the drain meter and the condition idle
// workers park on, under one short-critical-section mutex whose type
// name places it under the lockscope analyzer's no-blocking-under-lock
// contract.
//
// Queue depth is what is scheduled (the bands' counts) plus what is
// held; nothing else counts operations. A submission is reserve, the
// store write with no lock held, then commit. There is no release:
// commit works on a closed queue, so what reserve admitted is drained
// like everything admitted before it, never erased.
type schedQueue struct {
	mu sync.Mutex
	// wake parks idle workers (L is &mu). commit signals it per item;
	// whoever makes take's done condition true — close, or the take
	// that empties a closed queue — broadcasts.
	wake  sync.Cond
	bands [numBands]schedBand
	// capacity is the depth bound, fixed at construction and read
	// without the lock.
	capacity int
	// held counts reservations granted by reserve and not yet turned
	// into scheduled items by commit.
	held   int
	closed bool
	// sinceAged counts takes since the last aged dispatch, for the
	// 1-in-agedEvery cap.
	sinceAged int
	// drain counts dispatches per second, the denominator of
	// Retry-After.
	drain drainMeter
}

// newSchedQueue builds a scheduler admitting up to capacity operations.
func newSchedQueue(capacity int) *schedQueue {
	s := &schedQueue{capacity: capacity}
	s.wake.L = &s.mu
	for i := range s.bands {
		s.bands[i].clients = make(map[string]*clientQueue)
	}
	return s
}

// scheduled counts the operations awaiting dispatch; callers hold s.mu.
func (s *schedQueue) scheduled() int {
	n := 0
	for i := range s.bands {
		n += s.bands[i].n
	}
	return n
}

// reserve admits k operations or refuses them all, and is the one place
// a submission's admission error is decided: core.ErrShuttingDown once
// closed; core.ErrQueueFull when the k would push depth past capacity
// (batches included). A granted reservation must be followed by a
// commit of exactly those k.
func (s *schedQueue) reserve(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := s.scheduled() + s.held + k
	switch {
	case s.closed:
		return core.ErrShuttingDown
	case depth > s.capacity:
		return core.ErrQueueFull
	}
	s.held += k
	return nil
}

// commit turns len(ops) reservations into scheduled items, each filed
// under its operation's priority band and client queue, in one critical
// section, and wakes one worker per item. now is sampled by the caller
// (the engine clock is a function value, not callable under the lock).
func (s *schedQueue) commit(ops []*core.Operation, now time.Time) {
	s.mu.Lock()
	for _, op := range ops {
		b := &s.bands[bandIndex(op.Priority)]
		cq := b.clients[op.Client]
		if cq == nil {
			cq = &clientQueue{key: op.Client}
			b.clients[op.Client] = cq
			b.rotation.push(cq)
		}
		cq.items.push(schedItem{op: op, enqueued: now})
		b.n++
	}
	s.held -= len(ops)
	s.mu.Unlock()
	for range ops {
		s.wake.Signal()
	}
}

// take dispatches the next operation, returning the queued snapshot it
// was committed with, and counts the dispatch in the drain meter at now.
// With nothing scheduled it parks the calling worker until a commit or
// close wakes it and returns nil without dispatching: now predates the
// park, and the aging valve must not judge waiting times by a reading
// from before an idle wait, so the worker samples its clock again and
// calls back. done is reported only once
// the queue is closed, empty and owes no reservation — a batch admitted
// before close is still waited for and dispatched.
func (s *schedQueue) take(now time.Time) (op *core.Operation, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scheduled() == 0 {
		if s.closed && s.held == 0 {
			return nil, true
		}
		s.wake.Wait()
		return nil, false
	}
	s.sinceAged++
	op = s.band(now).next()
	s.drain.record(now)
	if s.closed && s.held == 0 && s.scheduled() == 0 {
		s.wake.Broadcast()
	}
	return op, false
}

// close stops admission and reports whether this call was the one that
// did. Workers keep dispatching until take reports done.
func (s *schedQueue) close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	s.wake.Broadcast()
	return true
}

// band chooses the band whose next turn dispatches: the highest
// non-empty one, unless the aging valve is due. It is due once agedEvery
// takes have passed since its last use, and then a band below the
// highest non-empty one is starved if its next turn has waited
// promoteAfter or longer; the starved band whose next turn has waited
// longest is served instead. Callers hold s.mu and something is
// scheduled.
func (s *schedQueue) band(now time.Time) *schedBand {
	first := 0
	for s.bands[first].n == 0 {
		first++
	}
	if s.sinceAged < agedEvery {
		return &s.bands[first]
	}
	var aged *schedBand
	for i := first + 1; i < numBands; i++ {
		b := &s.bands[i]
		if b.n == 0 || now.Sub(b.waitingSince()) < promoteAfter {
			continue
		}
		if aged == nil || b.waitingSince().Before(aged.waitingSince()) {
			aged = b
		}
	}
	if aged == nil {
		return &s.bands[first]
	}
	s.sinceAged = 0
	return aged
}

// depths reports the queue depth (scheduled plus held), the drain rate
// at now and the per-band and per-client scheduled counts, read in one
// critical section, for Stats and /v1/health. The per-client map
// aggregates across bands.
func (s *schedQueue) depths(now time.Time) (depth int, rate float64, bands, clients map[string]int) {
	bands = make(map[string]int, numBands)
	clients = make(map[string]int)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.bands {
		b := &s.bands[i]
		bands[string(bandPriority(i))] = b.n
		for key, cq := range b.clients {
			clients[key] += cq.items.n
		}
	}
	return s.scheduled() + s.held, s.drain.rate(now), bands, clients
}

// depth is depths without the maps, for RetryAfter.
func (s *schedQueue) depth(now time.Time) (int, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheduled() + s.held, s.drain.rate(now)
}
