package api

// API-level tests for the scheduler surface: priority parsing and
// round-tripping, X-Client-Id attribution, the 429 + Retry-After shed
// path, and the health report's queue visibility.

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

func TestSubmitPriorityRoundTrip(t *testing.T) {
	s, e := newTestServer(t)

	w, resp := doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"echo","priority":"high"}`)
	checkEnvelope(t, w, resp, typeAsync, http.StatusAccepted)
	result, _ := resp.Result.(map[string]any)
	if result["priority"] != "high" {
		t.Errorf("envelope priority = %v, want high", result["priority"])
	}
	id, _ := result["id"].(string)
	op := waitTerminal(t, e, id)
	if op.Priority != core.PriorityHigh {
		t.Errorf("stored priority = %s, want high", op.Priority)
	}

	w, resp = doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"echo","priority":"urgent"}`)
	checkEnvelope(t, w, resp, typeError, http.StatusBadRequest)

	// Batch: one invalid priority rejects the whole batch, naming the
	// item.
	w, resp = doJSON(t, s, http.MethodPost, "/v1/operations",
		`[{"kind":"echo","priority":"low"},{"kind":"echo","priority":"urgent"}]`)
	checkEnvelope(t, w, resp, typeError, http.StatusBadRequest)
}

func TestSubmitClientAttribution(t *testing.T) {
	s, e := newTestServer(t)

	// Explicit header wins.
	w, resp := doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"echo"}`,
		withHeader("X-Client-Id", "tenant-a"))
	checkEnvelope(t, w, resp, typeAsync, http.StatusAccepted)
	result, _ := resp.Result.(map[string]any)
	if result["client"] != "tenant-a" {
		t.Errorf("envelope client = %v, want tenant-a", result["client"])
	}
	id, _ := result["id"].(string)
	if op := waitTerminal(t, e, id); op.Client != "tenant-a" {
		t.Errorf("stored client = %q, want tenant-a", op.Client)
	}

	// No header: falls back to the remote host with the port stripped
	// (httptest stamps RemoteAddr 192.0.2.1:1234).
	w, resp = doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"echo"}`)
	checkEnvelope(t, w, resp, typeAsync, http.StatusAccepted)
	result, _ = resp.Result.(map[string]any)
	if result["client"] != "192.0.2.1" {
		t.Errorf("fallback client = %v, want 192.0.2.1", result["client"])
	}
}

// TestClientHeaderTrustDisabled checks WithClientHeaderTrust(false):
// for deployments serving untrusted clients, X-Client-Id must be
// ignored (a client could otherwise randomize it per request to mint
// itself fresh fair-queueing shares) and attribution keys on the
// remote host alone.
func TestClientHeaderTrustDisabled(t *testing.T) {
	s, _ := newTestServer(t, WithClientHeaderTrust(false))

	w, resp := doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"echo"}`,
		withHeader("X-Client-Id", "forged-tenant"))
	checkEnvelope(t, w, resp, typeAsync, http.StatusAccepted)
	result, _ := resp.Result.(map[string]any)
	if result["client"] != "192.0.2.1" {
		t.Errorf("client with untrusted header = %v, want remote host 192.0.2.1", result["client"])
	}
}

// TestClientIDLengthBound checks a trusted X-Client-Id is refused past
// maxClientIDBytes: every operation of the request carries the key and
// the WAL journals it once per record, so an unbounded header (net/http
// admits up to 1 MiB) multiplies into the log by the batch size. An
// untrusted header is ignored at any length.
func TestClientIDLengthBound(t *testing.T) {
	s, _ := newTestServer(t)
	atBound := strings.Repeat("c", maxClientIDBytes)
	w, resp := doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"echo"}`, withHeader("X-Client-Id", atBound))
	checkEnvelope(t, w, resp, typeAsync, http.StatusAccepted)

	w, resp = doJSON(t, s, http.MethodPost, "/v1/operations", `[{"kind":"echo"}]`, withHeader("X-Client-Id", atBound+"c"))
	checkEnvelope(t, w, resp, typeError, http.StatusBadRequest)
	result, _ := resp.Result.(map[string]any)
	if msg, _ := result["message"].(string); msg != "X-Client-Id longer than 256 bytes" {
		t.Errorf("over-bound message = %q, want it to name the 256-byte bound", msg)
	}

	s, _ = newTestServer(t, WithClientHeaderTrust(false))
	w, resp = doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"echo"}`, withHeader("X-Client-Id", atBound+"c"))
	checkEnvelope(t, w, resp, typeAsync, http.StatusAccepted)
}

func TestSaturatedSubmitReturns429WithRetryAfter(t *testing.T) {
	e := engine.New(engine.Config{
		Workers:       1,
		QueueDepth:    10,
		ShedThreshold: 0.5,
	})
	t.Cleanup(func() { e.Shutdown(context.Background()) })
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	started := make(chan struct{})
	e.Register("block", func(ctx context.Context, _ *core.Operation) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	e.Register("noop", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	s := New(e)

	w, resp := doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"block"}`)
	checkEnvelope(t, w, resp, typeAsync, http.StatusAccepted)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocker never started")
	}
	for i := 0; i < 5; i++ {
		w, resp = doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"noop"}`)
		checkEnvelope(t, w, resp, typeAsync, http.StatusAccepted)
	}

	w, resp = doJSON(t, s, http.MethodPost, "/v1/operations", `{"kind":"noop"}`)
	checkEnvelope(t, w, resp, typeError, http.StatusTooManyRequests)
	retry := w.Header().Get("Retry-After")
	if retry == "" {
		t.Fatal("429 reply missing Retry-After header")
	}
	secs, err := strconv.Atoi(retry)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", retry)
	}

	// A batch within capacity but above the shed bound can never be
	// admitted, at this depth or at zero: a 400 naming the bound, with no
	// Retry-After inviting the client to try again.
	w, resp = doJSON(t, s, http.MethodPost, "/v1/operations", "["+strings.Repeat(`{"kind":"noop"},`, 5)+`{"kind":"noop"}]`)
	checkEnvelope(t, w, resp, typeError, http.StatusBadRequest)
	result, _ := resp.Result.(map[string]any)
	if msg, _ := result["message"].(string); !strings.Contains(msg, "size 6 exceeds shed bound 5") {
		t.Errorf("oversized batch message = %q, want it to name the shed bound", msg)
	}
	if retry := w.Header().Get("Retry-After"); retry != "" {
		t.Errorf("400 for an oversized batch carries Retry-After %q", retry)
	}

	// Health reflects the shed state while saturated.
	hw, hresp := doJSON(t, s, http.MethodGet, "/v1/health", "")
	checkEnvelope(t, hw, hresp, typeSync, http.StatusOK)
	health, _ := hresp.Result.(map[string]any)
	if health["shedding"] != true {
		t.Errorf("health shedding = %v, want true", health["shedding"])
	}
	if shedAt, _ := health["shed_at"].(float64); shedAt != 5 {
		t.Errorf("health shed_at = %v, want 5", health["shed_at"])
	}
	bands, _ := health["queue_bands"].(map[string]any)
	if n, _ := bands["normal"].(float64); n != 5 {
		t.Errorf("health queue_bands[normal] = %v, want 5 (bands %v)", bands["normal"], bands)
	}
}

func TestHealthReportsSchedulerFields(t *testing.T) {
	s, e := newTestServer(t)
	for _, kind := range []string{"zip", "archive", "mirror", "build"} {
		e.Register(kind, func(context.Context, *core.Operation) (any, error) { return nil, nil })
	}
	w, resp := doJSON(t, s, http.MethodGet, "/v1/health", "")
	checkEnvelope(t, w, resp, typeSync, http.StatusOK)
	health, _ := resp.Result.(map[string]any)
	// The report is engine.Stats embedded beside the liveness bit and the
	// kinds; this is the key set clients and opbench read, exactly.
	want := []string{
		"healthy", "kinds", "workers", "queue_depth", "queue_capacity", "queue_bands",
		"queue_clients", "shedding", "shed_at", "drain_per_sec", "store_len", "watch_waiters",
		"last_notice", "durable", "wal_segments", "wal_batch_p50", "fsyncs_per_sec", "wal_commit_failures",
	}
	for _, key := range want {
		if _, ok := health[key]; !ok {
			t.Errorf("health report missing %q: %v", key, health)
		}
	}
	if len(health) != len(want) {
		t.Errorf("health report has %d keys, want exactly %d: %v", len(health), len(want), health)
	}
	bands, _ := health["queue_bands"].(map[string]any)
	for _, band := range []string{"high", "normal", "low"} {
		if _, ok := bands[band]; !ok {
			t.Errorf("queue_bands missing %q band: %v", band, bands)
		}
	}
	if health["shedding"] != false {
		t.Errorf("idle daemon shedding = %v, want false", health["shedding"])
	}
	// kinds come back sorted, so consecutive polls of one daemon agree.
	for poll := 0; poll < 2; poll++ {
		_, resp := doJSON(t, s, http.MethodGet, "/v1/health", "")
		health, _ := resp.Result.(map[string]any)
		kinds, _ := health["kinds"].([]any)
		if len(kinds) != 5 || !sort.SliceIsSorted(kinds, func(i, j int) bool {
			return kinds[i].(string) < kinds[j].(string)
		}) {
			t.Errorf("poll %d: kinds = %v, want the registered kinds in sorted order", poll, kinds)
		}
	}
}
