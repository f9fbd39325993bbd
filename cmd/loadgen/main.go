// Command loadgen drives an opdaemon instance hard and reports what it
// measured: request and operation throughput, latency percentiles, and
// a breakdown of response codes. It is a hand tool for hostile traffic
// mixes; numbers worth quoting come from opbench (bench/README.md).
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8712 -concurrency 16 -duration 10s \
//	        -batch 10 -kinds noop=3,echo=1 -cancel-frac 0.1
//
// Each worker goroutine loops until the duration expires: it picks
// operation kinds from the weighted mix, submits them (as a single
// object when -batch=1, as a JSON array otherwise), and records the
// request latency. Latency covers submission only — the daemon
// acknowledges with 202 before executing — so the numbers isolate the
// API + store + queue path that batching and sharding optimise.
//
// With -cancel-frac > 0, each accepted operation is cancelled via
// DELETE /v1/operations/{id} with that probability, and the report
// breaks down cancel outcomes: 202 (cancel accepted) vs 409 (the
// operation won the race and finished first). This exercises the
// daemon's cancellation path under the same load as submission.
//
// With -observe, each accepted operation is additionally followed to
// its terminal state and the report gains the read-path economics:
// GET requests spent per completed operation and the time from
// acceptance to observing the terminal state. -observe poll loops
// plain GETs every -poll-interval (the classic poll-until-terminal
// client); -observe watch replaces the loop with ?wait=true
// long-polls. Run both against the same daemon to measure what the
// watch path saves.
//
// With -clients N, workers identify themselves to the daemon via
// X-Client-Id so the scheduler's per-client fair queueing applies, and
// the report breaks latency down per client. -greedy-frac F marks that
// fraction of workers as one shared "greedy" client that submits
// without observing (fire-and-forget flood); the remaining workers are
// the victims, spread across the other N-1 client IDs. The per-client
// to-terminal percentiles of the victims against the greedy flood are
// the fairness metric.
//
// 429 responses (the daemon shedding load at its admission threshold)
// are counted separately from errors: the report shows the shed count
// and a histogram of the Retry-After hints received, and a run that
// was fully shed still exits 0 — being told to back off is the daemon
// working, not the bench failing.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8712", "daemon address (host:port)")
		concurrency = flag.Int("concurrency", 16, "number of concurrent submitter goroutines")
		duration    = flag.Duration("duration", 10*time.Second, "how long to generate load")
		batch       = flag.Int("batch", 1, "operations per request (1 sends a single object, >1 a JSON array)")
		kinds       = flag.String("kinds", "noop=1", "weighted kind mix, e.g. noop=3,echo=1")
		params      = flag.String("params", "", "optional JSON object sent as params with every operation")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		seed        = flag.Int64("seed", 1, "seed for the kind-mix random source")
		cancelFrac  = flag.Float64("cancel-frac", 0, "fraction (0..1) of accepted operations to cancel via DELETE")
		listEvery   = flag.Int("list-every", 0, "issue GET /v1/operations?limit=50 after every N submissions per worker (0 disables); exercises the daemon's read path under load")
		observe     = flag.String("observe", "", "follow each accepted operation to its terminal state: 'poll' loops plain GETs at -poll-interval, 'watch' uses ?wait=true long-polls; empty disables")
		pollInt     = flag.Duration("poll-interval", 25*time.Millisecond, "delay between GETs in -observe poll mode")
		observeTO   = flag.Duration("observe-timeout", 30*time.Second, "max time to follow one operation to terminal (also sent as the long-poll timeout in watch mode)")
		clients     = flag.Int("clients", 0, "number of distinct X-Client-Id values to spread workers across (0 sends no header)")
		greedyFrac  = flag.Float64("greedy-frac", 0, "fraction (0..1) of workers assigned to one shared fire-and-forget 'greedy' client; requires -clients >= 2")
	)
	flag.Parse()

	cfg, err := newRunConfig(runFlags{
		addr:           *addr,
		concurrency:    *concurrency,
		duration:       *duration,
		batch:          *batch,
		kinds:          *kinds,
		params:         *params,
		timeout:        *timeout,
		cancelFrac:     *cancelFrac,
		listEvery:      *listEvery,
		observe:        *observe,
		pollInterval:   *pollInt,
		observeTimeout: *observeTO,
		clients:        *clients,
		greedyFrac:     *greedyFrac,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}
	report := cfg.run(*seed)
	fmt.Print(report.format(cfg))
	// List and observe failures gate the exit status like transport
	// errors do: a scripted bench run must not record a broken read
	// path as green. Shed (429) responses do not: a daemon refusing
	// load at its admission threshold is behaving, so a run that got
	// nothing accepted but was told to back off still exits 0.
	if report.transportErrs > 0 || report.listErrs > 0 || report.observeErrs > 0 ||
		(report.accepted == 0 && report.sheds == 0) {
		os.Exit(1)
	}
}

// runFlags carries the raw flag values into newRunConfig; a struct so
// call sites name what they set instead of threading 14 positionals.
type runFlags struct {
	addr           string
	concurrency    int
	duration       time.Duration
	batch          int
	kinds          string
	params         string
	timeout        time.Duration
	cancelFrac     float64
	listEvery      int
	observe        string
	pollInterval   time.Duration
	observeTimeout time.Duration
	clients        int
	greedyFrac     float64
}

// runConfig is a validated loadgen run: where to send load, how much,
// and what shape.
type runConfig struct {
	url         string
	concurrency int
	duration    time.Duration
	batch       int
	mix         kindMix
	params      map[string]any
	timeout     time.Duration
	cancelFrac  float64
	listEvery   int
	// observe selects the follow-to-terminal mode: "" (off), "poll"
	// (GET loop at pollInterval), or "watch" (?wait=true long-polls).
	observe        string
	pollInterval   time.Duration
	observeTimeout time.Duration
	// clients is the number of distinct X-Client-Id values; 0 sends no
	// header. greedyWorkers is how many workers (from index 0) share
	// the "greedy" client, derived from -greedy-frac.
	clients       int
	greedyFrac    float64
	greedyWorkers int
}

// greedyClient is the client ID shared by the fire-and-forget workers
// of an adversarial mix.
const greedyClient = "greedy"

// clientFor assigns worker i its client ID: the first greedyWorkers
// workers share the greedy client, the rest spread round-robin across
// the remaining IDs c1..cK.
func (cfg *runConfig) clientFor(i int) string {
	if cfg.clients <= 0 {
		return ""
	}
	if i < cfg.greedyWorkers {
		return greedyClient
	}
	rest := cfg.clients
	if cfg.greedyWorkers > 0 {
		rest--
	}
	return "c" + strconv.Itoa((i-cfg.greedyWorkers)%rest+1)
}

// newRunConfig validates flags into a runConfig, rejecting values that
// would make the run meaningless (zero concurrency, empty mix, ...).
func newRunConfig(f runFlags) (*runConfig, error) {
	if f.concurrency < 1 {
		return nil, fmt.Errorf("concurrency must be >= 1, got %d", f.concurrency)
	}
	if f.batch < 1 {
		return nil, fmt.Errorf("batch must be >= 1, got %d", f.batch)
	}
	if f.duration <= 0 {
		return nil, fmt.Errorf("duration must be positive, got %s", f.duration)
	}
	if f.cancelFrac < 0 || f.cancelFrac > 1 {
		return nil, fmt.Errorf("cancel-frac must be within [0, 1], got %g", f.cancelFrac)
	}
	if f.listEvery < 0 {
		return nil, fmt.Errorf("list-every must be >= 0, got %d", f.listEvery)
	}
	switch f.observe {
	case "", "poll", "watch":
	default:
		return nil, fmt.Errorf("observe must be empty, poll, or watch, got %q", f.observe)
	}
	if f.observe == "poll" && f.pollInterval <= 0 {
		return nil, fmt.Errorf("poll-interval must be positive in poll mode, got %s", f.pollInterval)
	}
	if f.observe != "" && f.observeTimeout <= 0 {
		return nil, fmt.Errorf("observe-timeout must be positive, got %s", f.observeTimeout)
	}
	if f.clients < 0 {
		return nil, fmt.Errorf("clients must be >= 0, got %d", f.clients)
	}
	if f.greedyFrac < 0 || f.greedyFrac > 1 {
		return nil, fmt.Errorf("greedy-frac must be within [0, 1], got %g", f.greedyFrac)
	}
	greedyWorkers := 0
	if f.greedyFrac > 0 {
		// A greedy mix needs at least one victim client to contrast
		// against, and at least one worker on each side.
		if f.clients < 2 {
			return nil, fmt.Errorf("greedy-frac needs -clients >= 2, got %d", f.clients)
		}
		greedyWorkers = int(f.greedyFrac*float64(f.concurrency) + 0.5)
		if greedyWorkers < 1 {
			greedyWorkers = 1
		}
		if greedyWorkers >= f.concurrency {
			return nil, fmt.Errorf("greedy-frac %g leaves no victim workers at concurrency %d", f.greedyFrac, f.concurrency)
		}
	}
	mix, err := parseKindMix(f.kinds)
	if err != nil {
		return nil, err
	}
	var p map[string]any
	if f.params != "" {
		if err := json.Unmarshal([]byte(f.params), &p); err != nil {
			return nil, fmt.Errorf("parsing -params: %w", err)
		}
	}
	return &runConfig{
		url:            "http://" + f.addr + "/v1/operations",
		concurrency:    f.concurrency,
		duration:       f.duration,
		batch:          f.batch,
		mix:            mix,
		params:         p,
		timeout:        f.timeout,
		cancelFrac:     f.cancelFrac,
		listEvery:      f.listEvery,
		observe:        f.observe,
		pollInterval:   f.pollInterval,
		observeTimeout: f.observeTimeout,
		clients:        f.clients,
		greedyFrac:     f.greedyFrac,
		greedyWorkers:  greedyWorkers,
	}, nil
}

// kindWeight is one entry of a kind mix.
type kindWeight struct {
	kind   string
	weight int
}

// kindMix is a weighted set of operation kinds to submit.
type kindMix struct {
	entries []kindWeight
	total   int
}

// parseKindMix parses "noop=3,echo=1" into a kindMix. A bare kind
// without "=weight" gets weight 1.
func parseKindMix(s string) (kindMix, error) {
	var mix kindMix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, weightStr, found := strings.Cut(part, "=")
		weight := 1
		if found {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				return kindMix{}, fmt.Errorf("kind %q: weight must be a positive integer, got %q", kind, weightStr)
			}
			weight = w
		}
		if kind == "" {
			return kindMix{}, fmt.Errorf("empty kind in mix %q", s)
		}
		mix.entries = append(mix.entries, kindWeight{kind: kind, weight: weight})
		mix.total += weight
	}
	if mix.total == 0 {
		return kindMix{}, fmt.Errorf("kind mix %q selects nothing", s)
	}
	return mix, nil
}

// pick returns one kind drawn from the mix, weighted.
func (m kindMix) pick(r *rand.Rand) string {
	n := r.Intn(m.total)
	for _, e := range m.entries {
		if n < e.weight {
			return e.kind
		}
		n -= e.weight
	}
	// Unreachable: n < total and weights sum to total.
	return m.entries[len(m.entries)-1].kind
}

// String renders the mix back in flag syntax for the report header.
func (m kindMix) String() string {
	parts := make([]string, len(m.entries))
	for i, e := range m.entries {
		parts[i] = fmt.Sprintf("%s=%d", e.kind, e.weight)
	}
	return strings.Join(parts, ",")
}

// submitRequest mirrors the daemon's POST /v1/operations item shape.
type submitRequest struct {
	Kind   string         `json:"kind"`
	Params map[string]any `json:"params,omitempty"`
}

// workerStats accumulates one worker's measurements; workers never
// share stats, so the hot loop takes no locks.
type workerStats struct {
	// client is the X-Client-Id this worker submits under ("" for
	// none); fixed at spawn, so per-worker stats merge per-client.
	client          string
	latencies       []time.Duration
	listLatencies   []time.Duration
	requests        int64
	accepted        int64
	listRequests    int64
	listErrs        int64
	codes           map[int]int64
	transportErrs   int64
	sheds           int64
	retryAfter      map[int]int64
	cancelRequested int64
	cancelled       int64
	cancelConflicts int64
	cancelErrs      int64
	observeGets     int64
	observed        int64
	observeErrs     int64
	// observeLatencies holds time from 202-acceptance to the terminal
	// state being observed, one sample per followed operation.
	observeLatencies []time.Duration
}

// clientReport is one client's slice of the merged run: enough to
// compute the per-client fairness percentiles the adversarial mixes
// exist to measure.
type clientReport struct {
	accepted         int64
	sheds            int64
	latencies        []time.Duration
	observeLatencies []time.Duration
}

// report is the merged result of a run.
type report struct {
	elapsed       time.Duration
	requests      int64
	accepted      int64
	latencies     []time.Duration
	listRequests  int64
	listErrs      int64
	listLatencies []time.Duration
	codes         map[int]int64
	transportErrs int64
	// sheds counts 429 responses (daemon admission control refusing
	// load); retryAfter histograms the Retry-After hints (seconds)
	// those responses carried, -1 binning a missing/unparsable header.
	sheds            int64
	retryAfter       map[int]int64
	perClient        map[string]*clientReport
	cancelRequested  int64
	cancelled        int64
	cancelConflicts  int64
	cancelErrs       int64
	observeGets      int64
	observed         int64
	observeErrs      int64
	observeLatencies []time.Duration
}

// run fires cfg.concurrency workers at the daemon until the duration
// expires, then merges their stats.
func (cfg *runConfig) run(seed int64) *report {
	client := &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			// Every worker keeps its connection alive; without this
			// the default (2 idle conns per host) forces most workers
			// into TCP handshakes and measures the kernel, not the
			// daemon.
			MaxIdleConnsPerHost: cfg.concurrency,
		},
	}
	// Observe requests get their own client: a watch-mode long-poll
	// legitimately holds the connection for up to observeTimeout, which
	// the tight submission timeout would cut short.
	var observeClient *http.Client
	if cfg.observe != "" {
		observeClient = &http.Client{
			Timeout: cfg.observeTimeout + 5*time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: cfg.concurrency,
			},
		}
	}
	deadline := time.Now().Add(cfg.duration)
	stats := make([]*workerStats, cfg.concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.concurrency; i++ {
		wg.Add(1)
		stats[i] = &workerStats{
			client:     cfg.clientFor(i),
			codes:      make(map[int]int64),
			retryAfter: make(map[int]int64),
		}
		go func(ws *workerStats, workerSeed int64) {
			defer wg.Done()
			cfg.worker(client, observeClient, ws, deadline, workerSeed)
		}(stats[i], seed+int64(i))
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := &report{
		elapsed:    elapsed,
		codes:      make(map[int]int64),
		retryAfter: make(map[int]int64),
		perClient:  make(map[string]*clientReport),
	}
	for _, ws := range stats {
		merged.requests += ws.requests
		merged.accepted += ws.accepted
		merged.listRequests += ws.listRequests
		merged.listErrs += ws.listErrs
		merged.transportErrs += ws.transportErrs
		merged.sheds += ws.sheds
		merged.cancelRequested += ws.cancelRequested
		merged.cancelled += ws.cancelled
		merged.cancelConflicts += ws.cancelConflicts
		merged.cancelErrs += ws.cancelErrs
		merged.observeGets += ws.observeGets
		merged.observed += ws.observed
		merged.observeErrs += ws.observeErrs
		merged.latencies = append(merged.latencies, ws.latencies...)
		merged.listLatencies = append(merged.listLatencies, ws.listLatencies...)
		merged.observeLatencies = append(merged.observeLatencies, ws.observeLatencies...)
		for code, n := range ws.codes {
			merged.codes[code] += n
		}
		for secs, n := range ws.retryAfter {
			merged.retryAfter[secs] += n
		}
		if ws.client != "" {
			cr := merged.perClient[ws.client]
			if cr == nil {
				cr = &clientReport{}
				merged.perClient[ws.client] = cr
			}
			cr.accepted += ws.accepted
			cr.sheds += ws.sheds
			cr.latencies = append(cr.latencies, ws.latencies...)
			cr.observeLatencies = append(cr.observeLatencies, ws.observeLatencies...)
		}
	}
	sort.Slice(merged.latencies, func(i, j int) bool { return merged.latencies[i] < merged.latencies[j] })
	sort.Slice(merged.listLatencies, func(i, j int) bool { return merged.listLatencies[i] < merged.listLatencies[j] })
	sort.Slice(merged.observeLatencies, func(i, j int) bool { return merged.observeLatencies[i] < merged.observeLatencies[j] })
	for _, cr := range merged.perClient {
		sort.Slice(cr.latencies, func(i, j int) bool { return cr.latencies[i] < cr.latencies[j] })
		sort.Slice(cr.observeLatencies, func(i, j int) bool { return cr.observeLatencies[i] < cr.observeLatencies[j] })
	}
	return merged
}

// worker is one submitter loop: build a body from the mix, POST it,
// record the outcome, repeat until the deadline.
func (cfg *runConfig) worker(client, observeClient *http.Client, ws *workerStats, deadline time.Time, seed int64) {
	r := rand.New(rand.NewSource(seed))
	submits := 0
	// The greedy client floods: it never follows its operations, so
	// its submission rate is bounded by the daemon, not by observe
	// round trips. Victims observe and measure to-terminal latency.
	observing := cfg.observe != "" && ws.client != greedyClient
	for time.Now().Before(deadline) {
		body, err := cfg.buildBody(r)
		if err != nil {
			// A mix that cannot marshal is a config bug; every
			// iteration would fail identically, so stop this worker.
			log.Printf("loadgen: building request body: %v", err)
			ws.transportErrs++
			return
		}
		req, err := http.NewRequest(http.MethodPost, cfg.url, bytes.NewReader(body))
		if err != nil {
			ws.transportErrs++
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if ws.client != "" {
			req.Header.Set("X-Client-Id", ws.client)
		}
		begin := time.Now()
		resp, err := client.Do(req)
		took := time.Since(begin)
		ws.requests++
		if err != nil {
			ws.transportErrs++
			continue
		}
		// The reply body is only needed when cancellation or observe
		// must learn the accepted IDs; otherwise drain it unread to
		// keep the submission hot loop allocation-light.
		needIDs := cfg.cancelFrac > 0 || observing
		var replyBody []byte
		if needIDs && resp.StatusCode == http.StatusAccepted {
			replyBody, _ = io.ReadAll(resp.Body)
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		retryHeader := resp.Header.Get("Retry-After")
		resp.Body.Close()
		ws.latencies = append(ws.latencies, took)
		ws.codes[resp.StatusCode]++
		switch resp.StatusCode {
		case http.StatusAccepted:
			// Batch validation is atomic, so a 202 means every item
			// was accepted.
			ws.accepted += int64(cfg.batch)
			if needIDs {
				ids, err := extractIDs(replyBody, cfg.batch > 1)
				if err != nil {
					ws.observeErrs++
					continue
				}
				if cfg.cancelFrac > 0 {
					cfg.cancelSome(client, ws, r, ids)
				}
				if observing {
					for _, id := range ids {
						cfg.observeOne(observeClient, ws, id, begin)
					}
				}
			}
		case http.StatusTooManyRequests:
			// The daemon shed this submission at its admission
			// threshold; count it and the Retry-After hint instead of
			// folding it into generic errors.
			ws.sheds++
			secs, err := strconv.Atoi(retryHeader)
			if err != nil {
				secs = -1
			}
			ws.retryAfter[secs]++
		}
		if submits++; cfg.listEvery > 0 && submits%cfg.listEvery == 0 {
			cfg.listOnce(client, ws)
		}
	}
}

// observeReply is the slice of the GET envelope observation needs.
type observeReply struct {
	Result struct {
		Status string `json:"status"`
	} `json:"result"`
}

// terminalStatus mirrors core.Status.Terminal for the wire strings.
func terminalStatus(s string) bool {
	return s == "done" || s == "failed" || s == "cancelled"
}

// observeOne follows a single accepted operation to its terminal state
// and records the cost: every GET issued counts toward observeGets, and
// the time from acceptance to the terminal observation lands in
// observeLatencies. In watch mode each GET is a ?wait=true long-poll —
// the server holds the request until the next state change — so an
// operation typically costs one or two GETs; in poll mode the loop
// sleeps pollInterval between plain GETs, the classic client the watch
// path exists to replace.
func (cfg *runConfig) observeOne(client *http.Client, ws *workerStats, id string, accepted time.Time) {
	url := cfg.url + "/" + id
	if cfg.observe == "watch" {
		url += "?wait=true&timeout=" + cfg.observeTimeout.String()
	}
	deadline := accepted.Add(cfg.observeTimeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		ws.observeGets++
		if err != nil {
			ws.observeErrs++
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			ws.observeErrs++
			return
		}
		var reply observeReply
		if err := json.Unmarshal(body, &reply); err != nil {
			ws.observeErrs++
			return
		}
		if terminalStatus(reply.Result.Status) {
			ws.observed++
			ws.observeLatencies = append(ws.observeLatencies, time.Since(accepted))
			return
		}
		if cfg.observe == "poll" {
			time.Sleep(cfg.pollInterval)
		}
	}
	// Ran out of observe budget without seeing a terminal state.
	ws.observeErrs++
}

// listOnce issues one poll-style page request — the read path snapd
// clients hammer — and records its latency separately from submission
// latency so the two paths stay individually comparable across runs.
func (cfg *runConfig) listOnce(client *http.Client, ws *workerStats) {
	begin := time.Now()
	resp, err := client.Get(cfg.url + "?limit=50")
	took := time.Since(begin)
	ws.listRequests++
	if err != nil {
		ws.listErrs++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ws.listErrs++
		return
	}
	ws.listLatencies = append(ws.listLatencies, took)
}

// cancelSome draws each accepted ID against the cancel fraction and
// issues DELETE for the selected ones, tallying the outcomes.
func (cfg *runConfig) cancelSome(client *http.Client, ws *workerStats, r *rand.Rand, ids []string) {
	for _, id := range ids {
		if r.Float64() >= cfg.cancelFrac {
			continue
		}
		ws.cancelRequested++
		req, err := http.NewRequest(http.MethodDelete, cfg.url+"/"+id, nil)
		if err != nil {
			ws.cancelErrs++
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			ws.cancelErrs++
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			ws.cancelled++
		case http.StatusConflict:
			// The operation reached a terminal state before the
			// cancel landed — expected under load, not an error.
			ws.cancelConflicts++
		default:
			ws.cancelErrs++
		}
	}
}

// submitReplyOp is the slice of an operation snapshot loadgen needs.
type submitReplyOp struct {
	ID string `json:"id"`
}

// extractIDs pulls the accepted operation IDs out of a 202 reply body:
// the single envelope's result for object submissions, each per-item
// envelope's result for batch submissions.
func extractIDs(body []byte, batch bool) ([]string, error) {
	if batch {
		var reply struct {
			Result []struct {
				Result submitReplyOp `json:"result"`
			} `json:"result"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return nil, fmt.Errorf("parsing batch reply: %w", err)
		}
		ids := make([]string, 0, len(reply.Result))
		for _, item := range reply.Result {
			if item.Result.ID != "" {
				ids = append(ids, item.Result.ID)
			}
		}
		return ids, nil
	}
	var reply struct {
		Result submitReplyOp `json:"result"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, fmt.Errorf("parsing reply: %w", err)
	}
	if reply.Result.ID == "" {
		return nil, nil
	}
	return []string{reply.Result.ID}, nil
}

// buildBody marshals the next request: a single object at batch size
// 1 (exercising the daemon's object path), a JSON array otherwise.
func (cfg *runConfig) buildBody(r *rand.Rand) ([]byte, error) {
	if cfg.batch == 1 {
		return json.Marshal(submitRequest{Kind: cfg.mix.pick(r), Params: cfg.params})
	}
	reqs := make([]submitRequest, cfg.batch)
	for i := range reqs {
		reqs[i] = submitRequest{Kind: cfg.mix.pick(r), Params: cfg.params}
	}
	return json.Marshal(reqs)
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted
// latencies using nearest-rank, or 0 for an empty sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// format renders the human-readable run report.
func (rep *report) format(cfg *runConfig) string {
	var b strings.Builder
	secs := rep.elapsed.Seconds()
	fmt.Fprintf(&b, "loadgen: %s against %s (concurrency=%d batch=%d kinds=%s)\n",
		rep.elapsed.Round(time.Millisecond), cfg.url, cfg.concurrency, cfg.batch, cfg.mix)
	fmt.Fprintf(&b, "requests:   %d (%.1f/s)\n", rep.requests, float64(rep.requests)/secs)
	fmt.Fprintf(&b, "operations: %d accepted (%.1f/s)\n", rep.accepted, float64(rep.accepted)/secs)
	if len(rep.latencies) > 0 {
		fmt.Fprintf(&b, "latency:    p50=%s p90=%s p99=%s max=%s\n",
			percentile(rep.latencies, 50).Round(time.Microsecond),
			percentile(rep.latencies, 90).Round(time.Microsecond),
			percentile(rep.latencies, 99).Round(time.Microsecond),
			rep.latencies[len(rep.latencies)-1].Round(time.Microsecond))
	}
	if rep.listRequests > 0 {
		fmt.Fprintf(&b, "lists:      %d (%.1f/s) p50=%s p90=%s p99=%s\n",
			rep.listRequests, float64(rep.listRequests)/secs,
			percentile(rep.listLatencies, 50).Round(time.Microsecond),
			percentile(rep.listLatencies, 90).Round(time.Microsecond),
			percentile(rep.listLatencies, 99).Round(time.Microsecond))
		if rep.listErrs > 0 {
			fmt.Fprintf(&b, "list errors: %d\n", rep.listErrs)
		}
	}
	codes := make([]int, 0, len(rep.codes))
	for code := range rep.codes {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(&b, "http %d:   %d\n", code, rep.codes[code])
	}
	if rep.sheds > 0 {
		perOp := float64(rep.sheds) / float64(rep.requests)
		fmt.Fprintf(&b, "sheds:      %d (429, %.3f shed/req), retry-after: %s\n",
			rep.sheds, perOp, formatRetryHistogram(rep.retryAfter))
	}
	if len(rep.perClient) > 0 {
		fmt.Fprintf(&b, "per-client:\n")
		for _, key := range sortedClientKeys(rep.perClient) {
			cr := rep.perClient[key]
			fmt.Fprintf(&b, "  %-8s ops=%d sheds=%d submit p50=%s p90=%s p99=%s",
				key, cr.accepted, cr.sheds,
				percentile(cr.latencies, 50).Round(time.Microsecond),
				percentile(cr.latencies, 90).Round(time.Microsecond),
				percentile(cr.latencies, 99).Round(time.Microsecond))
			if len(cr.observeLatencies) > 0 {
				fmt.Fprintf(&b, " to-terminal p50=%s p90=%s p99=%s",
					percentile(cr.observeLatencies, 50).Round(time.Microsecond),
					percentile(cr.observeLatencies, 90).Round(time.Microsecond),
					percentile(cr.observeLatencies, 99).Round(time.Microsecond))
			}
			b.WriteByte('\n')
		}
	}
	if rep.cancelRequested > 0 || cfg.cancelFrac > 0 {
		fmt.Fprintf(&b, "cancels:    %d requested, %d cancelled (202), %d conflict (409)\n",
			rep.cancelRequested, rep.cancelled, rep.cancelConflicts)
		if rep.cancelErrs > 0 {
			fmt.Fprintf(&b, "cancel errors: %d\n", rep.cancelErrs)
		}
	}
	if cfg.observe != "" {
		getsPerOp := 0.0
		if rep.observed > 0 {
			getsPerOp = float64(rep.observeGets) / float64(rep.observed)
		}
		fmt.Fprintf(&b, "observe:    mode=%s %d observed, %d gets (%.2f gets/op)\n",
			cfg.observe, rep.observed, rep.observeGets, getsPerOp)
		if len(rep.observeLatencies) > 0 {
			fmt.Fprintf(&b, "to-terminal: p50=%s p90=%s p99=%s max=%s\n",
				percentile(rep.observeLatencies, 50).Round(time.Microsecond),
				percentile(rep.observeLatencies, 90).Round(time.Microsecond),
				percentile(rep.observeLatencies, 99).Round(time.Microsecond),
				rep.observeLatencies[len(rep.observeLatencies)-1].Round(time.Microsecond))
		}
		if rep.observeErrs > 0 {
			fmt.Fprintf(&b, "observe errors: %d\n", rep.observeErrs)
		}
	}
	if rep.transportErrs > 0 {
		fmt.Fprintf(&b, "transport errors: %d\n", rep.transportErrs)
	}
	return b.String()
}

// sortedClientKeys orders the per-client breakdown: greedy first (it
// is the aggressor the rest are measured against), then the victims in
// name order.
func sortedClientKeys(m map[string]*clientReport) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if (keys[i] == greedyClient) != (keys[j] == greedyClient) {
			return keys[i] == greedyClient
		}
		return keys[i] < keys[j]
	})
	return keys
}

// formatRetryHistogram renders the Retry-After histogram as
// "1s×42 2s×3"; the -1 bin (missing or unparsable header) renders as
// "none×N" so a daemon that sheds without a hint is visible.
func formatRetryHistogram(h map[int]int64) string {
	if len(h) == 0 {
		return "none"
	}
	secs := make([]int, 0, len(h))
	for s := range h {
		secs = append(secs, s)
	}
	sort.Ints(secs)
	parts := make([]string, 0, len(secs))
	for _, s := range secs {
		label := strconv.Itoa(s) + "s"
		if s < 0 {
			label = "none"
		}
		parts = append(parts, fmt.Sprintf("%s×%d", label, h[s]))
	}
	return strings.Join(parts, " ")
}
