package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseKindMix(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "noop=1", want: "noop=1"},
		{in: "noop=3,echo=1", want: "noop=3,echo=1"},
		{in: "noop", want: "noop=1"},
		{in: " noop = 3 ", wantErr: true}, // inner spaces make the weight unparsable
		{in: "noop=3, echo", want: "noop=3,echo=1"},
		{in: "", wantErr: true},
		{in: "noop=0", wantErr: true},
		{in: "noop=-2", wantErr: true},
		{in: "=3", wantErr: true},
		{in: "noop=x", wantErr: true},
	} {
		mix, err := parseKindMix(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseKindMix(%q) = %v, want error", tc.in, mix)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseKindMix(%q): %v", tc.in, err)
			continue
		}
		if got := mix.String(); got != tc.want {
			t.Errorf("parseKindMix(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestKindMixPickRespectsWeights(t *testing.T) {
	mix, err := parseKindMix("heavy=9,light=1")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[mix.pick(r)]++
	}
	if counts["heavy"]+counts["light"] != n {
		t.Fatalf("picks outside the mix: %v", counts)
	}
	// 9:1 mix should land near 90%; allow generous slack for the RNG.
	if frac := float64(counts["heavy"]) / n; frac < 0.85 || frac > 0.95 {
		t.Errorf("heavy fraction = %.3f, want ~0.9", frac)
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{90, 90 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
	} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %s, want %s", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %s, want 0", got)
	}
}

func TestBuildBodyShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	mix, _ := parseKindMix("noop=1")

	single := &runConfig{batch: 1, mix: mix, params: map[string]any{"ms": 5}}
	body, err := single.buildBody(r)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatalf("batch=1 body is not a JSON object: %s", body)
	}
	if obj["kind"] != "noop" {
		t.Errorf("kind = %v, want noop", obj["kind"])
	}

	batched := &runConfig{batch: 3, mix: mix}
	body, err = batched.buildBody(r)
	if err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(body, &arr); err != nil {
		t.Fatalf("batch=3 body is not a JSON array: %s", body)
	}
	if len(arr) != 3 {
		t.Errorf("batch=3 body has %d items, want 3", len(arr))
	}
}

func TestRunAgainstStubDaemon(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"type":"async","status_code":202,"result":[]}`))
	}))
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	cfg, err := newRunConfig(runFlags{addr: addr, concurrency: 2, duration: 50 * time.Millisecond, batch: 4, kinds: "noop=1", timeout: time.Second, pollInterval: 25 * time.Millisecond, observeTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.run(1)
	if rep.requests == 0 {
		t.Fatal("run made no requests")
	}
	if rep.accepted != rep.requests*4 {
		t.Errorf("accepted = %d, want requests*batch = %d", rep.accepted, rep.requests*4)
	}
	if rep.transportErrs != 0 {
		t.Errorf("transport errors = %d, want 0", rep.transportErrs)
	}
	out := rep.format(cfg)
	for _, want := range []string{"requests:", "operations:", "latency:", "http 202:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestNewRunConfigValidation(t *testing.T) {
	// valid is a baseline every case below breaks in exactly one way.
	valid := runFlags{
		addr: "x", concurrency: 1, duration: time.Second, batch: 1,
		kinds: "noop=1", timeout: time.Second,
		pollInterval: time.Millisecond, observeTimeout: time.Second,
	}
	for name, mutate := range map[string]func(*runFlags){
		"zero concurrency":       func(f *runFlags) { f.concurrency = 0 },
		"zero batch":             func(f *runFlags) { f.batch = 0 },
		"zero duration":          func(f *runFlags) { f.duration = 0 },
		"bad mix":                func(f *runFlags) { f.kinds = "noop=zero" },
		"bad params":             func(f *runFlags) { f.params = "{not json" },
		"negative cancel frac":   func(f *runFlags) { f.cancelFrac = -0.1 },
		"cancel frac over one":   func(f *runFlags) { f.cancelFrac = 1.5 },
		"negative list every":    func(f *runFlags) { f.listEvery = -1 },
		"unknown observe mode":   func(f *runFlags) { f.observe = "longpoll" },
		"zero poll interval":     func(f *runFlags) { f.observe = "poll"; f.pollInterval = 0 },
		"zero observe timeout":   func(f *runFlags) { f.observe = "watch"; f.observeTimeout = 0 },
		"uppercase observe mode": func(f *runFlags) { f.observe = "Watch" },
		"negative clients":       func(f *runFlags) { f.clients = -1 },
		"greedy frac over one":   func(f *runFlags) { f.clients = 4; f.greedyFrac = 1.5 },
		"greedy without clients": func(f *runFlags) { f.greedyFrac = 0.5 },
		"greedy one client":      func(f *runFlags) { f.clients = 1; f.greedyFrac = 0.5 },
		"greedy eats all workers": func(f *runFlags) {
			f.concurrency = 2
			f.clients = 2
			f.greedyFrac = 1.0
		},
	} {
		f := valid
		mutate(&f)
		if _, err := newRunConfig(f); err == nil {
			t.Errorf("%s: newRunConfig accepted invalid input", name)
		}
	}
	if _, err := newRunConfig(valid); err != nil {
		t.Fatalf("baseline flags rejected: %v", err)
	}
}

// TestClientFor pins the worker→client assignment: greedy workers
// first, victims spread round-robin over the remaining IDs.
func TestClientFor(t *testing.T) {
	cfg, err := newRunConfig(runFlags{
		addr: "x", concurrency: 8, duration: time.Second, batch: 1,
		kinds: "noop=1", timeout: time.Second,
		pollInterval: time.Millisecond, observeTimeout: time.Second,
		clients: 3, greedyFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.greedyWorkers != 4 {
		t.Fatalf("greedyWorkers = %d, want 4 (half of 8)", cfg.greedyWorkers)
	}
	got := make([]string, 8)
	for i := range got {
		got[i] = cfg.clientFor(i)
	}
	want := []string{"greedy", "greedy", "greedy", "greedy", "c1", "c2", "c1", "c2"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("clientFor(%d) = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}

	noClients, err := newRunConfig(runFlags{
		addr: "x", concurrency: 2, duration: time.Second, batch: 1,
		kinds: "noop=1", timeout: time.Second,
		pollInterval: time.Millisecond, observeTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if id := noClients.clientFor(0); id != "" {
		t.Errorf("clientFor with -clients 0 = %q, want empty", id)
	}
}

func TestExtractIDs(t *testing.T) {
	single := `{"type":"async","status_code":202,"result":{"id":"aaa","kind":"noop","status":"queued"}}`
	ids, err := extractIDs([]byte(single), false)
	if err != nil {
		t.Fatalf("extractIDs(single): %v", err)
	}
	if len(ids) != 1 || ids[0] != "aaa" {
		t.Errorf("single ids = %v, want [aaa]", ids)
	}

	batch := `{"type":"async","status_code":202,"result":[
		{"type":"async","location":"/v1/operations/aaa","result":{"id":"aaa"}},
		{"type":"async","location":"/v1/operations/bbb","result":{"id":"bbb"}}]}`
	ids, err = extractIDs([]byte(batch), true)
	if err != nil {
		t.Fatalf("extractIDs(batch): %v", err)
	}
	if len(ids) != 2 || ids[0] != "aaa" || ids[1] != "bbb" {
		t.Errorf("batch ids = %v, want [aaa bbb]", ids)
	}

	if _, err := extractIDs([]byte(`{truncated`), false); err == nil {
		t.Error("extractIDs accepted malformed JSON")
	}
}

// TestRunWithListEvery drives a stub daemon and checks the interleaved
// page requests are counted and timed separately from submissions.
func TestRunWithListEvery(t *testing.T) {
	var mu sync.Mutex
	gets := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			mu.Lock()
			gets++
			mu.Unlock()
			if r.URL.Query().Get("limit") != "50" {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			w.Write([]byte(`{"type":"sync","status_code":200,"result":[]}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"type":"async","status_code":202,"result":{"id":"x"}}`))
	}))
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	cfg, err := newRunConfig(runFlags{addr: addr, concurrency: 2, duration: 50 * time.Millisecond, batch: 1, kinds: "noop=1", timeout: time.Second, listEvery: 3, pollInterval: 25 * time.Millisecond, observeTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.run(1)
	if rep.requests == 0 {
		t.Fatal("run made no requests")
	}
	if rep.listRequests == 0 {
		t.Fatal("list-every=3 issued no list requests")
	}
	mu.Lock()
	if int64(gets) != rep.listRequests {
		t.Errorf("stub saw %d GETs, report counts %d", gets, rep.listRequests)
	}
	mu.Unlock()
	if rep.listErrs != 0 {
		t.Errorf("list errors = %d, want 0", rep.listErrs)
	}
	if len(rep.listLatencies) != int(rep.listRequests) {
		t.Errorf("recorded %d list latencies for %d list requests", len(rep.listLatencies), rep.listRequests)
	}
	// Submission latency must not absorb the list traffic.
	if int64(len(rep.latencies)) != rep.requests-rep.transportErrs {
		t.Errorf("submit latencies = %d, want one per submission (%d)", len(rep.latencies), rep.requests)
	}
	if out := rep.format(cfg); !strings.Contains(out, "lists:") {
		t.Errorf("report missing lists line:\n%s", out)
	}
}

// TestRunWithObserve drives a stub daemon whose operations take two
// reads to report terminal — first GET says running, second says done —
// and checks both observe modes count gets and record time-to-terminal.
func TestRunWithObserve(t *testing.T) {
	for _, mode := range []string{"poll", "watch"} {
		t.Run(mode, func(t *testing.T) {
			var mu sync.Mutex
			reads := map[string]int{}
			submissions := 0
			sawWait := false
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet {
					mu.Lock()
					reads[r.URL.Path]++
					n := reads[r.URL.Path]
					if r.URL.Query().Get("wait") == "true" {
						sawWait = true
					}
					mu.Unlock()
					status := "running"
					if n >= 2 {
						status = "done"
					}
					w.Write([]byte(`{"type":"sync","status_code":200,"result":{"id":"x","status":"` + status + `"}}`))
					return
				}
				w.WriteHeader(http.StatusAccepted)
				// Each submission gets a distinct ID so the stub's
				// per-path read counts don't bleed across operations.
				mu.Lock()
				submissions++
				id := strconv.Itoa(submissions)
				mu.Unlock()
				w.Write([]byte(`{"type":"async","status_code":202,"result":{"id":"` + id + `","kind":"noop","status":"queued"}}`))
			}))
			defer srv.Close()

			addr := strings.TrimPrefix(srv.URL, "http://")
			cfg, err := newRunConfig(runFlags{addr: addr, concurrency: 2, duration: 50 * time.Millisecond, batch: 1, kinds: "noop=1", timeout: time.Second, observe: mode, pollInterval: time.Millisecond, observeTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			rep := cfg.run(1)
			if rep.requests == 0 {
				t.Fatal("run made no requests")
			}
			if rep.observeErrs != 0 {
				t.Fatalf("observe errors = %d, want 0", rep.observeErrs)
			}
			if rep.observed == 0 {
				t.Fatal("observed no operations")
			}
			if rep.observeGets < 2*rep.observed {
				t.Errorf("two-read stub: observeGets = %d, want >= 2*observed = %d", rep.observeGets, 2*rep.observed)
			}
			if len(rep.observeLatencies) != int(rep.observed) {
				t.Errorf("recorded %d observe latencies for %d observed ops", len(rep.observeLatencies), rep.observed)
			}
			mu.Lock()
			gotWait := sawWait
			mu.Unlock()
			if wantWait := mode == "watch"; gotWait != wantWait {
				t.Errorf("mode %s: stub saw wait=true query = %v, want %v", mode, gotWait, wantWait)
			}
			out := rep.format(cfg)
			if !strings.Contains(out, "observe:") || !strings.Contains(out, "to-terminal:") {
				t.Errorf("report missing observe lines:\n%s", out)
			}
		})
	}
}

// TestRunCountsSheds drives a stub daemon that sheds every other
// submission with 429 + Retry-After and checks sheds land in their own
// counters — with the hint histogrammed — rather than in the error
// tallies.
func TestRunCountsSheds(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts++
		shed := posts%2 == 0
		mu.Unlock()
		if shed {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"type":"error","status_code":429,"result":{"message":"engine saturated, shedding load"}}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"type":"async","status_code":202,"result":{"id":"x"}}`))
	}))
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	cfg, err := newRunConfig(runFlags{addr: addr, concurrency: 2, duration: 50 * time.Millisecond, batch: 1, kinds: "noop=1", timeout: time.Second, pollInterval: 25 * time.Millisecond, observeTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.run(1)
	if rep.requests == 0 {
		t.Fatal("run made no requests")
	}
	if rep.sheds == 0 {
		t.Fatal("alternating-429 stub produced no sheds")
	}
	if rep.sheds+rep.accepted != rep.requests {
		t.Errorf("sheds %d + accepted %d != requests %d", rep.sheds, rep.accepted, rep.requests)
	}
	if rep.transportErrs != 0 {
		t.Errorf("sheds leaked into transport errors: %d", rep.transportErrs)
	}
	if got := rep.retryAfter[2]; got != rep.sheds {
		t.Errorf("retryAfter[2] = %d, want every shed (%d)", got, rep.sheds)
	}
	out := rep.format(cfg)
	if !strings.Contains(out, "sheds:") || !strings.Contains(out, "2s×") {
		t.Errorf("report missing shed line or retry histogram:\n%s", out)
	}
}

// TestRunWithClients drives a stub daemon with an adversarial mix and
// checks (a) every request carries the expected X-Client-Id, (b) the
// greedy client submits but never observes, and (c) the per-client
// breakdown reaches the report, greedy first.
func TestRunWithClients(t *testing.T) {
	var mu sync.Mutex
	postClients := map[string]int{}
	getCount := 0
	submissions := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			mu.Lock()
			getCount++
			mu.Unlock()
			w.Write([]byte(`{"type":"sync","status_code":200,"result":{"id":"x","status":"done"}}`))
			return
		}
		mu.Lock()
		postClients[r.Header.Get("X-Client-Id")]++
		submissions++
		id := strconv.Itoa(submissions)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"type":"async","status_code":202,"result":{"id":"` + id + `","status":"queued"}}`))
	}))
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	cfg, err := newRunConfig(runFlags{
		addr: addr, concurrency: 4, duration: 50 * time.Millisecond, batch: 1,
		kinds: "noop=1", timeout: time.Second,
		observe: "poll", pollInterval: time.Millisecond, observeTimeout: 5 * time.Second,
		clients: 3, greedyFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.run(1)
	if rep.requests == 0 {
		t.Fatal("run made no requests")
	}
	mu.Lock()
	if postClients[""] > 0 {
		t.Errorf("%d submissions carried no X-Client-Id", postClients[""])
	}
	for _, want := range []string{"greedy", "c1", "c2"} {
		if postClients[want] == 0 {
			t.Errorf("no submissions from client %q (saw %v)", want, postClients)
		}
	}
	gets := getCount
	mu.Unlock()
	if gets == 0 {
		t.Fatal("victim workers observed nothing")
	}
	greedy := rep.perClient["greedy"]
	if greedy == nil {
		t.Fatal("report has no greedy client entry")
	}
	if len(greedy.observeLatencies) != 0 {
		t.Errorf("greedy client recorded %d observe latencies, want 0 (fire-and-forget)", len(greedy.observeLatencies))
	}
	if v := rep.perClient["c1"]; v == nil || len(v.observeLatencies) == 0 {
		t.Errorf("victim c1 recorded no to-terminal samples: %+v", v)
	}
	out := rep.format(cfg)
	if !strings.Contains(out, "per-client:") || !strings.Contains(out, "greedy") {
		t.Errorf("report missing per-client block:\n%s", out)
	}

	// Greedy leads the block (it is the aggressor the rest are measured
	// against) and every victim row carries its to-terminal percentiles.
	rows := strings.Split(out[strings.Index(out, "per-client:\n")+len("per-client:\n"):], "\n")
	if len(rows) < 3 || !strings.HasPrefix(strings.TrimSpace(rows[0]), "greedy") {
		t.Fatalf("per-client block does not lead with greedy:\n%s", out)
	}
	for _, row := range rows[1:3] {
		if !strings.Contains(row, "to-terminal") {
			t.Errorf("victim row missing to-terminal percentiles: %q", row)
		}
	}
}

// TestRunWithCancelFrac drives a stub daemon that accepts every
// submission and alternates cancel outcomes, checking the counters
// land in the right buckets.
func TestRunWithCancelFrac(t *testing.T) {
	var mu sync.Mutex
	deletes := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			mu.Lock()
			deletes++
			conflict := deletes%2 == 0
			mu.Unlock()
			if conflict {
				w.WriteHeader(http.StatusConflict)
				w.Write([]byte(`{"type":"error","status_code":409,"result":{"message":"operation already in a terminal state"}}`))
				return
			}
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"type":"async","status_code":202,"result":{"id":"x","status":"cancelled"}}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"type":"async","status_code":202,"result":{"id":"x","kind":"noop","status":"queued"}}`))
	}))
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	cfg, err := newRunConfig(runFlags{addr: addr, concurrency: 2, duration: 50 * time.Millisecond, batch: 1, kinds: "noop=1", timeout: time.Second, cancelFrac: 1.0, pollInterval: 25 * time.Millisecond, observeTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.run(1)
	if rep.requests == 0 {
		t.Fatal("run made no requests")
	}
	// cancel-frac=1 cancels every accepted op exactly once.
	if rep.cancelRequested != rep.accepted {
		t.Errorf("cancelRequested = %d, want accepted = %d", rep.cancelRequested, rep.accepted)
	}
	if rep.cancelled+rep.cancelConflicts != rep.cancelRequested {
		t.Errorf("cancelled %d + conflicts %d != requested %d",
			rep.cancelled, rep.cancelConflicts, rep.cancelRequested)
	}
	if rep.cancelled == 0 || rep.cancelConflicts == 0 {
		t.Errorf("alternating stub yielded cancelled=%d conflicts=%d, want both nonzero",
			rep.cancelled, rep.cancelConflicts)
	}
	if rep.cancelErrs != 0 {
		t.Errorf("cancel errors = %d, want 0", rep.cancelErrs)
	}
	out := rep.format(cfg)
	if !strings.Contains(out, "cancels:") {
		t.Errorf("report missing cancels line:\n%s", out)
	}
}
