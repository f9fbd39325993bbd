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
//     otherwise allow: when the oldest waiter of a band below the
//     currently served one has queued longer than promoteAfter, it is
//     served next (it is by construction its client's FIFO head, so
//     serving it is the promotion). The valve is capped at one aged
//     dispatch per agedEvery takes so a flood of aged low-priority work
//     cannot invert the bands.
//
// Concurrency contract: schedQueue.mu guards a few map/slice
// operations, the admission arithmetic and the workers' park, and
// nothing else. Its name places its critical sections under the
// lockscope analyzer — no channel operations, callbacks, Store calls,
// or re-entrant shard locking while it is held; the one wait is
// sync.Cond.Wait on this very mutex, which releases it. Time is
// sampled by callers and passed in, because the engine's clock is a
// function value the analyzer (rightly) refuses to see invoked under
// the lock.

import (
	"math"
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

// promoteAfter is the aging threshold: the oldest waiter of a band below
// the one being served becomes eligible for the valve once it has queued
// this long.
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
	// taken marks items already dispatched, so the band's arrival list
	// can skip them lazily instead of paying O(n) removals.
	taken bool
}

// clientQueue is one client's FIFO within a band. The head index avoids
// O(n) slice shifts on every pop.
type clientQueue struct {
	key   string
	items []*schedItem
	head  int
}

func (cq *clientQueue) empty() bool { return cq.head >= len(cq.items) }

func (cq *clientQueue) pending() int { return len(cq.items) - cq.head }

func (cq *clientQueue) pop() *schedItem {
	it := cq.items[cq.head]
	cq.items[cq.head] = nil // unpin for GC
	cq.head++
	if cq.empty() {
		cq.items = cq.items[:0]
		cq.head = 0
	}
	return it
}

// schedBand is one priority band: per-client queues in round-robin
// rotation plus an arrival-order list that makes "oldest waiter" an O(1)
// question for the aging valve.
type schedBand struct {
	clients map[string]*clientQueue
	// active is the round-robin rotation; active[0] is the client whose
	// turn is next. Queues drained out-of-turn by the aging valve stay
	// listed and are dropped lazily when their turn comes.
	active  []*clientQueue
	arrival []*schedItem
	astart  int
	n       int
}

// head returns the band's oldest pending item, compacting the arrival
// list past items already dispatched in turn.
func (b *schedBand) head() *schedItem {
	for b.astart < len(b.arrival) {
		if it := b.arrival[b.astart]; !it.taken {
			return it
		}
		b.arrival[b.astart] = nil
		b.astart++
	}
	b.arrival = b.arrival[:0]
	b.astart = 0
	return nil
}

// next serves one item from the band in round-robin order: the client
// at the front of the rotation dispatches one operation and goes to the
// back.
func (b *schedBand) next() *schedItem {
	for len(b.active) > 0 {
		cq := b.active[0]
		b.active = b.active[1:]
		if cq.empty() {
			// Drained out of turn by the aging valve; retire the queue.
			delete(b.clients, cq.key)
			continue
		}
		it := cq.pop()
		it.taken = true
		b.n--
		if cq.empty() {
			delete(b.clients, cq.key)
		} else {
			b.active = append(b.active, cq)
		}
		return it
	}
	return nil
}

// takeHead dispatches the band's oldest pending item out of turn
// — the aging valve's promotion — returning the item actually removed.
// The item is necessarily its client's FIFO head: it is the oldest
// pending item of the whole band, and client queues pop oldest-first.
// An emptied queue stays in active/clients; next retires it
// lazily when its turn comes, and re-adds land in the same queue.
func (b *schedBand) takeHead(it *schedItem) *schedItem {
	popped := b.clients[it.op.Client].pop()
	popped.taken = true
	b.n--
	return popped
}

// schedQueue is the engine's dispatch queue and the single owner of
// admission: priority bands over per-client round-robin queues, the
// depth bounds, the closed flag and the condition idle workers park on,
// under one short-critical-section mutex whose type name places it
// under the lockscope analyzer's no-blocking-under-lock contract.
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
	// capacity is the hard depth bound; shedAt is the depth past which
	// admission sheds, capacity+1 when no threshold is configured. Both
	// are fixed at construction and read without the lock.
	capacity int
	shedAt   int
	// held counts reservations granted by reserve and not yet turned
	// into scheduled items by commit.
	held   int
	closed bool
	// sinceAged counts takes since the last aged dispatch, for the
	// 1-in-agedEvery cap.
	sinceAged int
}

// newSchedQueue builds a scheduler admitting up to capacity operations.
// A shedThreshold in (0, 1) starts shedding at ceil(threshold *
// capacity); any other value disables it.
func newSchedQueue(capacity int, shedThreshold float64) *schedQueue {
	s := &schedQueue{capacity: capacity, shedAt: capacity + 1}
	s.wake.L = &s.mu
	if shedThreshold > 0 && shedThreshold < 1 {
		s.shedAt = int(math.Ceil(shedThreshold * float64(capacity)))
	}
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
// closed; core.ErrSaturated when a shed threshold is configured and the
// k would push depth past it (a hard bound, batches included);
// core.ErrQueueFull when they would push depth past capacity. A granted
// reservation must be followed by a commit of exactly those k.
func (s *schedQueue) reserve(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := s.scheduled() + s.held + k
	switch {
	case s.closed:
		return core.ErrShuttingDown
	case s.shedAt <= s.capacity && depth > s.shedAt:
		return core.ErrSaturated
	case depth > s.capacity:
		return core.ErrQueueFull
	}
	s.held += k
	return nil
}

// largestGrant is the most reserve can ever admit at once, with the name
// of that bound: the shed bound when a threshold is configured, else
// capacity. A larger batch is refused at any depth.
func (s *schedQueue) largestGrant() (limit int, name string) {
	if s.shedAt < s.capacity {
		return s.shedAt, "shed bound"
	}
	return s.capacity, "queue capacity"
}

// commit turns len(ops) reservations into scheduled items, each filed
// under its operation's priority band and client queue, in one critical
// section, and wakes one worker per item. now is sampled by the caller
// (the engine clock is a function value, not callable under the lock).
func (s *schedQueue) commit(ops []*core.Operation, now time.Time) {
	// One allocation per batch; the items are pointed into, never copied.
	items := make([]schedItem, len(ops))
	for i, op := range ops {
		items[i] = schedItem{op: op, enqueued: now}
	}
	s.mu.Lock()
	for i, op := range ops {
		it := &items[i]
		b := &s.bands[bandIndex(op.Priority)]
		cq := b.clients[op.Client]
		if cq == nil {
			cq = &clientQueue{key: op.Client}
			b.clients[op.Client] = cq
			b.active = append(b.active, cq)
		}
		cq.items = append(cq.items, it)
		b.arrival = append(b.arrival, it)
		b.n++
	}
	s.held -= len(ops)
	s.mu.Unlock()
	for range ops {
		s.wake.Signal()
	}
}

// take dispatches the next operation, returning the queued snapshot it
// was committed with. With nothing scheduled it parks the calling
// worker until a commit or close wakes it and returns nil without
// dispatching: now predates the park, and the aging valve must not judge
// waiting times by a reading from before an idle wait, so the worker
// samples its clock again and calls back. done is reported only once
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
	it := s.takeAged(now)
	if it == nil {
		it = s.takeStrict()
	}
	s.compact()
	if s.closed && s.held == 0 && s.scheduled() == 0 {
		s.wake.Broadcast()
	}
	return it.op, false
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

// compact advances every band's arrival list past already-dispatched
// items. Each dispatch marks its item taken but leaves it in arrival;
// without this sweep the busiest band (which the aging valve never
// inspects — it only looks at bands below the first non-empty one)
// would pin every dispatched item forever, a leak proportional to
// total operations ever enqueued. Each arrival slot is advanced past
// exactly once, so the sweep is amortized O(1) per dispatch and keeps
// arrival bounded by the band's pending items.
func (s *schedQueue) compact() {
	for i := range s.bands {
		s.bands[i].head()
	}
}

// takeAged is the starvation escape valve: among bands below the first
// non-empty one (those strict band order is starving), serve
// the oldest waiter whose age crossed promoteAfter. Capped at one aged
// dispatch per agedEvery takes.
func (s *schedQueue) takeAged(now time.Time) *schedItem {
	if s.sinceAged < agedEvery {
		return nil
	}
	first := 0
	for first < numBands && s.bands[first].n == 0 {
		first++
	}
	var oldest *schedItem
	oldestBand := -1
	for i := first + 1; i < numBands; i++ {
		h := s.bands[i].head()
		if h == nil || now.Sub(h.enqueued) < promoteAfter {
			continue
		}
		if oldest == nil || h.enqueued.Before(oldest.enqueued) {
			oldest, oldestBand = h, i
		}
	}
	if oldest == nil {
		return nil
	}
	s.sinceAged = 0
	return s.bands[oldestBand].takeHead(oldest)
}

// takeStrict serves the highest non-empty band.
func (s *schedQueue) takeStrict() *schedItem {
	for i := range s.bands {
		if s.bands[i].n > 0 {
			return s.bands[i].next()
		}
	}
	return nil
}

// depths reports the queue depth (scheduled plus held) and the per-band
// and per-client scheduled counts, read in one critical section, for
// Stats and /v1/health. The per-client map aggregates across bands.
func (s *schedQueue) depths() (depth int, bands map[string]int, clients map[string]int) {
	bands = make(map[string]int, numBands)
	clients = make(map[string]int)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.bands {
		b := &s.bands[i]
		bands[string(bandPriority(i))] = b.n
		for key, cq := range b.clients {
			if p := cq.pending(); p > 0 {
				clients[key] += p
			}
		}
	}
	return s.scheduled() + s.held, bands, clients
}

// depth is depths without the maps, for RetryAfter.
func (s *schedQueue) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheduled() + s.held
}
