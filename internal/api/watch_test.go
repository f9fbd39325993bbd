package api

// E2E tests for the push read path: ?wait=true long-polls on the
// operation resource and the /v1/notices feed. Long-poll requests run
// through the real handler stack in goroutines (ServeHTTP blocks for
// the duration of the wait), with results decoded back on the test
// goroutine — t.Fatal must not fire off the main goroutine.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// newBlockServer wires a server with a "block" kind whose handler
// parks until the returned release channel is closed (or the
// operation's context is cancelled), so tests control exactly when the
// watched transition happens.
func newBlockServer(t *testing.T) (*Server, *engine.Engine, chan struct{}) {
	t.Helper()
	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(func() { e.Shutdown(context.Background()) })
	release := make(chan struct{})
	e.Register("block", func(ctx context.Context, _ *core.Operation) (any, error) {
		select {
		case <-release:
			return "released", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	e.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params, nil
	})
	return New(e), e, release
}

// submitAndAwaitRunning submits one kind op and waits for its handler
// to be running, returning the operation ID.
func submitAndAwaitRunning(t *testing.T, s *Server, e *engine.Engine, kind string) string {
	t.Helper()
	_, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"`+kind+`"}`)
	id := resp.Result.(map[string]any)["id"].(string)
	deadline := time.Now().Add(5 * time.Second)
	for {
		op, err := e.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if op.Status == core.StatusRunning {
			return id
		}
		if time.Now().After(deadline) {
			t.Fatalf("op %s never started (status %s)", id, op.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// serveAsync runs one request through the handler stack on its own
// goroutine and delivers the recorder once the handler returns.
func serveAsync(s *Server, r *http.Request) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		done <- w
	}()
	return done
}

func decodeResponse(t *testing.T, w *httptest.ResponseRecorder) Response {
	t.Helper()
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding body %q: %v", w.Body.String(), err)
	}
	return resp
}

func TestGetWaitReturnsOnTransition(t *testing.T) {
	s, e, release := newBlockServer(t)
	id := submitAndAwaitRunning(t, s, e, "block")

	r := httptest.NewRequest("GET", "/v1/operations/"+id+"?wait=true&timeout=5s", nil)
	done := serveAsync(s, r)
	// Give the long-poll a moment to actually block, then let the
	// handler finish; the wait must return the terminal snapshot, not
	// the running one it subscribed under.
	time.Sleep(5 * time.Millisecond)
	close(release)

	w := <-done
	resp := decodeResponse(t, w)
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
	op := resp.Result.(map[string]any)
	if op["status"] != string(core.StatusDone) {
		t.Fatalf("long-poll woke with status %v, want done", op["status"])
	}
	if n := e.Stats().WatchWaiters; n != 0 {
		t.Errorf("waiters after wake = %d, want 0", n)
	}
}

func TestGetWaitTerminalReturnsImmediately(t *testing.T) {
	s, e := newTestServer(t)
	_, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
	id := resp.Result.(map[string]any)["id"].(string)
	waitTerminal(t, e, id)

	// A generous timeout that must NOT be consumed: terminal states
	// short-circuit the wait.
	start := time.Now()
	w, got := doJSON(t, s, "GET", "/v1/operations/"+id+"?wait=true&timeout=30s", "")
	checkEnvelope(t, w, got, "sync", http.StatusOK)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("terminal wait took %v, want immediate return", elapsed)
	}
	if st := got.Result.(map[string]any)["status"]; st != string(core.StatusDone) {
		t.Fatalf("status = %v, want done", st)
	}
}

func TestGetWaitTimeoutReturnsCurrentSnapshot(t *testing.T) {
	s, e, release := newBlockServer(t)
	defer close(release)
	id := submitAndAwaitRunning(t, s, e, "block")

	w, resp := doJSON(t, s, "GET", "/v1/operations/"+id+"?wait=true&timeout=50ms", "")
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
	op := resp.Result.(map[string]any)
	if op["status"] != string(core.StatusRunning) {
		t.Fatalf("timed-out wait returned status %v, want the unchanged running snapshot", op["status"])
	}
	if n := e.Stats().WatchWaiters; n != 0 {
		t.Errorf("waiters after timeout = %d, want 0", n)
	}
}

func TestGetWaitClientDisconnectFreesWaiter(t *testing.T) {
	s, e, release := newBlockServer(t)
	defer close(release)
	id := submitAndAwaitRunning(t, s, e, "block")

	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest("GET", "/v1/operations/"+id+"?wait=true&timeout=30s", nil).WithContext(ctx)
	done := serveAsync(s, r)

	// Wait for the long-poll to register its waiter, then yank the
	// client. The handler must unwind promptly and leave the hub empty.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().WatchWaiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long-poll never registered a waiter")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	w := <-done
	if n := e.Stats().WatchWaiters; n != 0 {
		t.Fatalf("waiters after disconnect = %d, want 0", n)
	}
	// Nothing was written: the client is gone, there is nobody to
	// answer. (The recorder's zero body is the observable proxy.)
	if w.Body.Len() != 0 {
		t.Errorf("disconnected long-poll wrote a body: %q", w.Body.String())
	}
}

func TestGetWaitUnknownIDIs404(t *testing.T) {
	s, _ := newTestServer(t)
	w, resp := doJSON(t, s, "GET", "/v1/operations/00000000000000000000000000000000?wait=true", "")
	checkEnvelope(t, w, resp, "error", http.StatusNotFound)
}

func TestGetWaitParamValidation(t *testing.T) {
	s, e := newTestServer(t)
	_, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
	id := resp.Result.(map[string]any)["id"].(string)
	waitTerminal(t, e, id)

	for _, tc := range []struct {
		name, query string
	}{
		{"BadWait", "?wait=maybe"},
		{"BadTimeout", "?wait=true&timeout=banana"},
		{"NegativeTimeout", "?wait=true&timeout=-5s"},
		{"ZeroTimeout", "?wait=true&timeout=0s"},
		{"BareNumberTimeout", "?wait=true&timeout=30"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, resp := doJSON(t, s, "GET", "/v1/operations/"+id+tc.query, "")
			checkEnvelope(t, w, resp, "error", http.StatusBadRequest)
		})
	}

	// wait=false and wait=0 are the plain GET.
	for _, q := range []string{"?wait=false", "?wait=0", ""} {
		w, resp := doJSON(t, s, "GET", "/v1/operations/"+id+q, "")
		checkEnvelope(t, w, resp, "sync", http.StatusOK)
	}
}

func TestGetWaitTimeoutClampedToMaxWait(t *testing.T) {
	// A server with a tiny max wait clamps a huge client timeout
	// instead of rejecting it: the request returns within the server's
	// bound with the current snapshot.
	e := engine.New(engine.Config{Workers: 1})
	t.Cleanup(func() { e.Shutdown(context.Background()) })
	release := make(chan struct{})
	defer close(release)
	e.Register("block", func(ctx context.Context, _ *core.Operation) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s := New(e)
	s.maxWait = 50 * time.Millisecond
	id := submitAndAwaitRunning(t, s, e, "block")

	start := time.Now()
	w, resp := doJSON(t, s, "GET", "/v1/operations/"+id+"?wait=true&timeout=1h", "")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("clamped wait took %v, want ~50ms", elapsed)
	}
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
}

func TestNoticesFeedEndToEnd(t *testing.T) {
	s, e := newTestServer(t)

	// Fresh feed: an empty JSON array, not null.
	w, resp := doJSON(t, s, "GET", "/v1/notices", "")
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
	if ns, ok := resp.Result.([]any); !ok || len(ns) != 0 {
		t.Fatalf("fresh feed = %v (%T), want []", resp.Result, resp.Result)
	}

	_, resp = doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
	id := resp.Result.(map[string]any)["id"].(string)
	waitTerminal(t, e, id)

	// The full lifecycle is in the feed: queued, running, done.
	_, resp = doJSON(t, s, "GET", "/v1/notices", "")
	ns := resp.Result.([]any)
	if len(ns) != 3 {
		t.Fatalf("feed has %d notices, want 3 (queued, running, done)", len(ns))
	}
	var lastSeq float64
	for i, raw := range ns {
		n := raw.(map[string]any)
		if n["op_id"] != id {
			t.Errorf("notice %d op_id = %v, want %s", i, n["op_id"], id)
		}
		seq := n["seq"].(float64)
		if seq <= lastSeq {
			t.Errorf("notice %d seq = %v, not increasing past %v", i, seq, lastSeq)
		}
		lastSeq = seq
	}

	// Cursor: after the second notice only the third remains.
	second := int(ns[1].(map[string]any)["seq"].(float64))
	_, resp = doJSON(t, s, "GET", "/v1/notices?after="+strconv.Itoa(second), "")
	if page := resp.Result.([]any); len(page) != 1 ||
		page[0].(map[string]any)["status"] != string(core.StatusDone) {
		t.Fatalf("after=%d page = %v, want just the done notice", second, resp.Result)
	}

	// Status filter keeps only the terminal record.
	_, resp = doJSON(t, s, "GET", "/v1/notices?status=done", "")
	if page := resp.Result.([]any); len(page) != 1 {
		t.Fatalf("status=done page = %v, want one notice", resp.Result)
	}
}

func TestNoticesLongPollWakesOnActivity(t *testing.T) {
	s, e := newTestServer(t)
	after := e.Stats().LastNotice

	r := httptest.NewRequest("GET", "/v1/notices?wait=true&timeout=5s&after="+strconv.FormatUint(after, 10), nil)
	done := serveAsync(s, r)
	time.Sleep(5 * time.Millisecond)
	_, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
	id := resp.Result.(map[string]any)["id"].(string)

	w := <-done
	got := decodeResponse(t, w)
	checkEnvelope(t, w, got, "sync", http.StatusOK)
	ns := got.Result.([]any)
	if len(ns) == 0 {
		t.Fatal("long-poll woke with an empty page")
	}
	if ns[0].(map[string]any)["op_id"] != id {
		t.Fatalf("first notice = %v, want op %s", ns[0], id)
	}
}

func TestNoticesLongPollTimeoutReturnsEmptyPage(t *testing.T) {
	s, e := newTestServer(t)
	after := e.Stats().LastNotice
	w, resp := doJSON(t, s, "GET", "/v1/notices?wait=true&timeout=50ms&after="+strconv.FormatUint(after, 10), "")
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
	if ns, ok := resp.Result.([]any); !ok || len(ns) != 0 {
		t.Fatalf("timed-out feed poll = %v, want []", resp.Result)
	}
}

func TestNoticesParamValidation(t *testing.T) {
	s, _ := newTestServer(t)
	for _, tc := range []struct {
		name, query string
	}{
		{"BadAfter", "?after=banana"},
		{"NegativeAfter", "?after=-1"},
		{"OverflowAfter", "?after=18446744073709551616"},
		{"BadStatus", "?status=exploded"},
		{"BadLimit", "?limit=0"},
		{"BadWait", "?wait=yes"},
		{"BadTimeout", "?wait=true&timeout=soon"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, resp := doJSON(t, s, "GET", "/v1/notices"+tc.query, "")
			checkEnvelope(t, w, resp, "error", http.StatusBadRequest)
		})
	}
	// Wrong verb on the feed is a 405, same contract as the other
	// routes.
	w, resp := doJSON(t, s, "POST", "/v1/notices", `{}`)
	checkEnvelope(t, w, resp, "error", http.StatusMethodNotAllowed)
}

func TestHealthReportsWatchFields(t *testing.T) {
	s, e := newTestServer(t)
	_, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
	id := resp.Result.(map[string]any)["id"].(string)
	waitTerminal(t, e, id)

	_, resp = doJSON(t, s, "GET", "/v1/health", "")
	result := resp.Result.(map[string]any)
	if got, ok := result["watch_waiters"].(float64); !ok || got != 0 {
		t.Errorf("health watch_waiters = %v, want 0", result["watch_waiters"])
	}
	if got, ok := result["last_notice"].(float64); !ok || got < 3 {
		t.Errorf("health last_notice = %v, want >= 3 after one lifecycle", result["last_notice"])
	}
}
