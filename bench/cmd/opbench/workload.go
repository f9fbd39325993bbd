package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The generator: closed-loop clients, each with one keep-alive
// connection, that wait for every reply before sending the next
// request — the way opdaemon's callers (snapd-style clients) behave.
// Everything a client sends is drawn from a rand.Rand seeded from
// -seed and the client's index; the daemon only ever sees the requests.

// Sample kinds. A submit sample is one POST round trip; a lifecycle
// sample runs from the POST being sent to the terminal snapshot being
// received; a list sample is one GET round trip.
const (
	kSubmit uint8 = iota
	kEcho
	kSleep
	kCancel
	kList
)

const (
	batchSize    = 10
	sleepMS      = 5
	cancelMS     = 1000
	listLimit    = 50
	lifecycleMax = 20 * time.Second

	listOrderTolerance = 5 * time.Millisecond
)

// sample is one timed client action, on the generator's clock
// (nanoseconds since traffic.base).
type sample struct {
	start, end int64
	kind       uint8
	ops        int32 // operations completed and verified: 10 per batch, 1 per lifecycle
	gets       int32 // long-polls a lifecycle needed
	bytes      int32 // reply bytes of a submit
	seq        int32 // request sequence number of the POST or list GET
	client     int32
	id         string
}

// tally counts operations attempted and failed. Transport errors,
// unexpected statuses, failed correctness checks and lifecycle
// time-outs all land in failed.
type tally struct {
	attempted, failed int
	msgs              []string
}

func (t *tally) ok(n int) { t.attempted += n }

func (t *tally) fail(n int, format string, args ...any) {
	t.attempted += n
	t.failed += n
	if len(t.msgs) < 5 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, m := range o.msgs {
		if len(t.msgs) < 5 {
			t.msgs = append(t.msgs, m)
		}
	}
}

// action is one draw from a lifecycle_mix client's seeded sequence.
type action struct {
	kind uint8
	n    int // echo payload, fixed width so request sizes never vary
}

// drawAction picks the next lifecycle_mix action: 87 % echo, 2 % sleep,
// 1 % cancel, 10 % list.
func drawAction(rng *rand.Rand) action {
	r := rng.Intn(100)
	a := action{n: 100_000 + rng.Intn(900_000)}
	switch {
	case r < 87:
		a.kind = kEcho
	case r < 89:
		a.kind = kSleep
	case r < 90:
		a.kind = kCancel
	default:
		a.kind = kList
	}
	return a
}

// clientRand is the one place a client's random source is derived, so
// the generator and the determinism test cannot disagree.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
}

// submitBodies builds a client's cycle of batch-10 noop request bodies.
func submitBodies(rng *rand.Rand, n int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		var b bytes.Buffer
		b.WriteByte('[')
		for j := 0; j < batchSize; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"kind":"noop","params":{"n":%d}}`, 100_000+rng.Intn(900_000))
		}
		b.WriteByte(']')
		bodies[i] = b.Bytes()
	}
	return bodies
}

// ackRing remembers the most recent acknowledged batches so the checks
// after the run can read back operations from the last second.
type ackRing struct {
	batches [256][]string
	next    int
}

func (r *ackRing) push(ids []string) {
	r.batches[r.next%len(r.batches)] = append([]string(nil), ids...)
	r.next++
}

// at is the i-th acknowledged batch (counting from 0), nil when it was
// never sent or has left the ring.
func (r *ackRing) at(i int) []string {
	if i < 0 || i >= r.next || i < r.next-len(r.batches) {
		return nil
	}
	return r.batches[i%len(r.batches)]
}

// last is the newest acknowledged batch, nil before the first.
func (r *ackRing) last() []string { return r.at(r.next - 1) }

func (r *ackRing) all() []string {
	var ids []string
	for _, b := range r.batches {
		ids = append(ids, b...)
	}
	return ids
}

// genClient is one closed-loop caller and everything it measured.
type genClient struct {
	idx     int
	hc      *httpClient
	rng     *rand.Rand
	bodies  [][]byte
	ids     []string
	stamps  []string
	samples []sample
	gaps    []int64 // reply read → next request sent, ns
	lastEnd int64
	recent  ackRing
	tally   tally
	shed    int
	full    int
	created int // lifecycles this client has completed
}

// traffic is one run of a workload's clients against one address.
type traffic struct {
	workload string
	base     time.Time
	warm     int
	clients  []*genClient
	// stopAt is the generator-clock time after which clients send no
	// further request; MaxInt64 until the timed window is known.
	stopAt atomic.Int64
	warmed sync.WaitGroup
	done   sync.WaitGroup
}

func (t *traffic) now() int64 { return int64(time.Since(t.base)) }

func clientName(i int) string { return fmt.Sprintf("bench-%d", i) }

// startTraffic launches n closed-loop clients of the workload against
// addr. Each first performs warm actions (count-based, so a slower
// daemon takes longer to warm), then keeps going until stop.
func startTraffic(workload, addr string, seed int64, n, warm int, base time.Time) *traffic {
	t := &traffic{workload: workload, base: base, warm: warm}
	t.stopAt.Store(math.MaxInt64)
	for i := 0; i < n; i++ {
		c := &genClient{idx: i, hc: newHTTPClient(addr, clientName(i)), rng: clientRand(seed, i)}
		if workload != wLifecycleMix {
			c.bodies = submitBodies(c.rng, 64)
		}
		t.clients = append(t.clients, c)
	}
	t.warmed.Add(n)
	t.done.Add(n)
	for _, c := range t.clients {
		go t.loop(c)
	}
	return t
}

// maxConsecutiveFailures stops a client whose daemon is clearly gone,
// instead of spinning on connection-refused until the window ends.
const maxConsecutiveFailures = 50

func (t *traffic) loop(c *genClient) {
	defer t.done.Done()
	defer c.hc.close()
	warmed := false
	streak := 0
	for i := 0; ; i++ {
		if i == t.warm {
			warmed = true
			t.warmed.Done()
		}
		if t.now() >= t.stopAt.Load() || streak >= maxConsecutiveFailures {
			break
		}
		failedBefore := c.tally.failed
		if t.workload == wLifecycleMix {
			c.lifecycleStep(t)
		} else {
			c.submitStep(t, i)
		}
		if c.tally.failed > failedBefore {
			streak++
		} else {
			streak = 0
		}
	}
	if !warmed {
		t.warmed.Done()
	}
}

// stop tells the clients to finish at generator time at and waits for
// them; requests in flight complete but fall outside the window.
func (t *traffic) stop(at int64) {
	t.stopAt.Store(at)
	t.done.Wait()
}

func (c *genClient) record(s sample) {
	s.client = int32(c.idx)
	if c.lastEnd != 0 {
		c.gaps = append(c.gaps, s.start-c.lastEnd)
	}
	c.lastEnd = s.end
	c.samples = append(c.samples, s)
}

func (c *genClient) submitStep(t *traffic, i int) {
	body := c.bodies[i%len(c.bodies)]
	s := sample{kind: kSubmit, start: t.now()}
	status, reply, err := c.hc.do(http.MethodPost, "/v1/operations", body)
	s.end, s.seq = t.now(), int32(c.hc.seq)
	switch {
	case err != nil:
		c.tally.fail(batchSize, "POST batch: %v", err)
	case status != http.StatusAccepted:
		c.countRefusal(status, reply)
		c.tally.fail(batchSize, "POST batch: status %d: %.120s", status, reply)
	default:
		c.ids = scanIDs(c.ids[:0], reply)
		if err := checkIDs(c.ids, batchSize); err != nil {
			c.tally.fail(batchSize, "POST batch: %v", err)
			break
		}
		c.tally.ok(batchSize)
		s.ops, s.bytes, s.id = batchSize, int32(len(reply)), c.ids[0]
		c.recent.push(c.ids)
	}
	c.record(s)
	if s.ops > 0 && c.recent.next%windowBatches == 0 {
		c.awaitWindow(t)
	}
}

// windowBatches bounds what a client keeps outstanding: after every
// windowBatches acknowledged batches it waits until the last operation
// of the batch sent windowBatches ago has settled. The scheduler
// dispatches one client's operations in order, so at most
// 2*windowBatches*batchSize = 320 of a client's operations are ever
// unsettled, 640 over both clients, and the daemon's 1024-slot queue can
// never refuse a batch. A daemon that keeps up answers the long-poll at
// once; one that lags slows the client down to its own drain rate,
// which is what makes the loop closed over execution, not just over
// admission.
const windowBatches = 16

func (c *genClient) awaitWindow(t *traffic) {
	old := c.recent.at(c.recent.next - 1 - windowBatches)
	if old == nil {
		return
	}
	id := old[len(old)-1]
	op, _, err := c.hc.awaitTerminal(id, lifecycleMax)
	switch {
	case err != nil:
		c.tally.fail(1, "window: %v", err)
	case op.Status != "done":
		c.tally.fail(1, "window: operation %s ended %s, want done", id, op.Status)
	default:
		c.tally.ok(1)
	}
	// The wait is flow control, not generator think time.
	c.lastEnd = t.now()
}

// countRefusal splits 429s into the admission shed and the hard
// queue bound; either one means the load level is wrong for this box.
func (c *genClient) countRefusal(status int, reply []byte) {
	if status != http.StatusTooManyRequests {
		return
	}
	if bytes.Contains(reply, []byte("queue is full")) {
		c.full++
	} else {
		c.shed++
	}
}

// submitOne POSTs a single operation and returns its ID.
func (c *genClient) submitOne(body []byte) (string, error) {
	status, reply, err := c.hc.do(http.MethodPost, "/v1/operations", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		c.countRefusal(status, reply)
		return "", fmt.Errorf("status %d: %.120s", status, reply)
	}
	c.ids = scanIDs(c.ids[:0], reply)
	if err := checkIDs(c.ids, 1); err != nil {
		return "", err
	}
	return c.ids[0], nil
}

func (c *genClient) lifecycleStep(t *traffic) {
	a := drawAction(c.rng)
	s := sample{kind: a.kind, start: t.now()}
	var err error
	switch a.kind {
	case kList:
		err = c.list()
		s.seq = int32(c.hc.seq)
	default:
		var body, wantResult, wantStatus string
		switch a.kind {
		case kEcho:
			wantResult = fmt.Sprintf(`{"c":%d,"n":%d}`, c.idx, a.n)
			body, wantStatus = `{"kind":"echo","params":`+wantResult+`}`, "done"
		case kSleep:
			body = fmt.Sprintf(`{"kind":"sleep","params":{"ms":%d}}`, sleepMS)
			wantResult, wantStatus = fmt.Sprintf(`{"slept_ms":%d}`, sleepMS), "done"
		case kCancel:
			body, wantStatus = fmt.Sprintf(`{"kind":"sleep","params":{"ms":%d}}`, cancelMS), "cancelled"
		}
		s.id, err = c.submitOne([]byte(body))
		s.seq = int32(c.hc.seq)
		if err == nil && a.kind == kCancel {
			var status int
			status, _, err = c.hc.do(http.MethodDelete, "/v1/operations/"+s.id, nil)
			if err == nil && status != http.StatusAccepted {
				err = fmt.Errorf("DELETE status %d", status)
			}
		}
		if err == nil {
			var op opView
			var gets int
			op, gets, err = c.hc.awaitTerminal(s.id, lifecycleMax)
			s.gets = int32(gets)
			switch {
			case err != nil:
			case op.Status != wantStatus:
				err = fmt.Errorf("ended %s (%s), want %s", op.Status, op.Error, wantStatus)
			case wantResult != "" && op.Result != wantResult:
				err = fmt.Errorf("result %s, want %s", op.Result, wantResult)
			}
		}
	}
	s.end = t.now()
	if err != nil {
		c.tally.fail(1, "%s: %v", kindName(a.kind), err)
	} else {
		c.tally.ok(1)
		s.ops = 1
		if a.kind != kList {
			c.created++
		}
	}
	c.record(s)
}

func kindName(k uint8) string {
	return [...]string{"submit", "echo lifecycle", "sleep lifecycle", "cancel lifecycle", "list"}[k]
}

// list fetches the newest page and checks its size and order.
func (c *genClient) list() error {
	status, reply, err := c.hc.do(http.MethodGet, fmt.Sprintf("/v1/operations?limit=%d", listLimit), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", status, reply)
	}
	c.stamps = scanStrings(c.stamps[:0], reply, "created_at")
	// Only during the first moments of a run can the store hold fewer
	// than a full page: everything this client created is younger than
	// the TTL by then.
	if want := min(listLimit, c.created); len(c.stamps) < want || len(c.stamps) > listLimit {
		return fmt.Errorf("page holds %d operations, want %d", len(c.stamps), want)
	}
	// Newest-first, within a tolerance: the daemon orders by the
	// monotonic clock but publishes the wall clock, and a thread (or this
	// VM's virtual CPU) descheduled between those two reads leaves a pair
	// of near-simultaneous operations looking swapped. Inversions of up to
	// 133 us were observed on the reference box; a broken merge or a
	// reversed page is off by the page's whole span, several milliseconds.
	var oldest time.Time
	for i, stamp := range c.stamps {
		at, err := time.Parse(time.RFC3339Nano, stamp)
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		if i > 0 && at.Sub(oldest) > listOrderTolerance {
			return fmt.Errorf("page not newest-first: item %d is %s newer than an earlier item", i, at.Sub(oldest))
		}
		if i == 0 || at.Before(oldest) {
			oldest = at
		}
	}
	return nil
}

// window is everything the clients measured inside one timed interval.
type window struct {
	t0      int64
	seconds float64
	samples []sample // samples that ended inside the window
	gaps    []int64
}

// cut selects the samples that ended in [t0, t0+seconds).
func (t *traffic) cut(t0 int64, seconds float64) window {
	w := window{t0: t0, seconds: seconds}
	t1 := t0 + int64(seconds*1e9)
	for _, c := range t.clients {
		for i, s := range c.samples {
			if s.end < t0 || s.end >= t1 {
				continue
			}
			w.samples = append(w.samples, s)
			if i > 0 {
				w.gaps = append(w.gaps, c.gaps[i-1])
			}
		}
	}
	return w
}

// durations returns the milliseconds each verified sample of the given
// kinds took, unsorted.
func (w window) durations(kinds ...uint8) []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.ops == 0 {
			continue
		}
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, float64(s.end-s.start)/1e6)
			}
		}
	}
	return out
}

// completed counts the operations the window verified: acknowledged
// batch items for the submit workloads, terminal lifecycles for the
// mix (a list completes no operation).
func (w window) completed() int {
	n := 0
	for _, s := range w.samples {
		if s.kind != kList {
			n += int(s.ops)
		}
	}
	return n
}

// opsPerSecond is the window's completed operations over its length.
func (w window) opsPerSecond() float64 { return float64(w.completed()) / w.seconds }
