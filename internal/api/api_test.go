package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

func newTestServer(t *testing.T, opts ...Option) (*Server, *engine.Engine) {
	t.Helper()
	e := engine.New(engine.Config{Workers: 2})
	t.Cleanup(func() { e.Shutdown(context.Background()) })
	e.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params, nil
	})
	return New(e, opts...), e
}

// waitTerminal polls the engine until the operation settles; tests
// that exercise the HTTP poll loop itself (TestSubmitThenPollReachesDone)
// poll over HTTP instead.
func waitTerminal(t *testing.T, e *engine.Engine, id string) *core.Operation {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		op, err := e.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if op.Status.Terminal() {
			return op
		}
		if time.Now().After(deadline) {
			t.Fatalf("op %s never finished (status %s)", id, op.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// withHeader returns a request modifier for doJSON that sets one
// header, e.g. the X-Client-Id attribution tests exercise.
func withHeader(key, value string) func(*http.Request) {
	return func(r *http.Request) { r.Header.Set(key, value) }
}

func doJSON(t *testing.T, s *Server, method, path, body string, mods ...func(*http.Request)) (*httptest.ResponseRecorder, Response) {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	for _, mod := range mods {
		mod(r)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: Content-Type = %q, want application/json", method, path, ct)
	}
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s %s: decoding body %q: %v", method, path, w.Body.String(), err)
	}
	return w, resp
}

// checkEnvelope asserts the invariants shared by every reply: the
// embedded status_code matches the HTTP code and the status text
// matches the code.
func checkEnvelope(t *testing.T, w *httptest.ResponseRecorder, resp Response, wantType string, wantCode int) {
	t.Helper()
	if w.Code != wantCode {
		t.Errorf("HTTP code = %d, want %d", w.Code, wantCode)
	}
	if resp.Type != wantType {
		t.Errorf("envelope type = %q, want %q", resp.Type, wantType)
	}
	if resp.StatusCode != wantCode {
		t.Errorf("envelope status_code = %d, want %d", resp.StatusCode, wantCode)
	}
	if resp.Status != http.StatusText(wantCode) {
		t.Errorf("envelope status = %q, want %q", resp.Status, http.StatusText(wantCode))
	}
}

func TestHealth(t *testing.T) {
	s, _ := newTestServer(t)
	w, resp := doJSON(t, s, "GET", "/v1/health", "")
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
	result, ok := resp.Result.(map[string]any)
	if !ok || result["healthy"] != true {
		t.Errorf("health result = %v, want healthy=true", resp.Result)
	}
	// Saturation fields: the test engine runs 2 workers, default
	// queue, empty store.
	if got, _ := result["workers"].(float64); int(got) != 2 {
		t.Errorf("health workers = %v, want 2", result["workers"])
	}
	if got, _ := result["queue_capacity"].(float64); got <= 0 {
		t.Errorf("health queue_capacity = %v, want positive", result["queue_capacity"])
	}
	for _, key := range []string{"queue_depth", "store_len", "wal_commit_failures"} {
		if got, ok := result[key].(float64); !ok || got != 0 {
			t.Errorf("health %s = %v, want 0 on an idle engine", key, result[key])
		}
	}
}

func TestSubmitReturnsAsyncEnvelope(t *testing.T) {
	s, _ := newTestServer(t)
	w, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo","params":{"x":1}}`)
	checkEnvelope(t, w, resp, "async", http.StatusAccepted)

	op, ok := resp.Result.(map[string]any)
	if !ok {
		t.Fatalf("async result = %T, want operation object", resp.Result)
	}
	id, _ := op["id"].(string)
	if id == "" {
		t.Fatal("async result has no operation id")
	}
	if loc := w.Header().Get("Location"); loc != "/v1/operations/"+id {
		t.Errorf("Location = %q, want /v1/operations/%s", loc, id)
	}
	if got := op["status"]; got != string(core.StatusQueued) {
		t.Errorf("submitted status = %v, want queued", got)
	}
}

func TestSubmitThenPollReachesDone(t *testing.T) {
	s, _ := newTestServer(t)
	_, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo","params":{"msg":"hi"}}`)
	id := resp.Result.(map[string]any)["id"].(string)

	deadline := time.Now().Add(5 * time.Second)
	for {
		w, poll := doJSON(t, s, "GET", "/v1/operations/"+id, "")
		checkEnvelope(t, w, poll, "sync", http.StatusOK)
		op := poll.Result.(map[string]any)
		if status := core.Status(op["status"].(string)); status.Terminal() {
			if status != core.StatusDone {
				t.Fatalf("operation ended %s: %v", status, op["error"])
			}
			result, _ := op["result"].(map[string]any)
			if result["msg"] != "hi" {
				t.Errorf("result = %v, want params echoed back", op["result"])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("operation %s never reached a terminal status", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// batchItems extracts the per-item envelope list from a batch reply.
func batchItems(t *testing.T, resp Response) []map[string]any {
	t.Helper()
	raw, ok := resp.Result.([]any)
	if !ok {
		t.Fatalf("batch result = %T, want array of envelopes", resp.Result)
	}
	items := make([]map[string]any, len(raw))
	for i, it := range raw {
		m, ok := it.(map[string]any)
		if !ok {
			t.Fatalf("batch item %d = %T, want object", i, it)
		}
		items[i] = m
	}
	return items
}

func TestSubmitBatchReturnsPerItemEnvelopes(t *testing.T) {
	s, _ := newTestServer(t)
	// Leading whitespace must not confuse array detection.
	body := `  [{"kind":"echo","params":{"i":0}},{"kind":"echo","params":{"i":1}},{"kind":"echo","params":{"i":2}}]`
	w, resp := doJSON(t, s, "POST", "/v1/operations", body)
	checkEnvelope(t, w, resp, "async", http.StatusAccepted)
	if loc := w.Header().Get("Location"); loc != "" {
		t.Errorf("batch reply sets Location header %q, want none (per-item locations)", loc)
	}

	items := batchItems(t, resp)
	if len(items) != 3 {
		t.Fatalf("batch reply has %d items, want 3", len(items))
	}
	for i, item := range items {
		if item["type"] != "async" {
			t.Errorf("item %d type = %v, want async", i, item["type"])
		}
		if code, _ := item["status_code"].(float64); int(code) != http.StatusAccepted {
			t.Errorf("item %d status_code = %v, want 202", i, item["status_code"])
		}
		op, ok := item["result"].(map[string]any)
		if !ok {
			t.Fatalf("item %d result = %T, want operation object", i, item["result"])
		}
		id, _ := op["id"].(string)
		if id == "" {
			t.Fatalf("item %d has no operation id", i)
		}
		if item["location"] != "/v1/operations/"+id {
			t.Errorf("item %d location = %v, want /v1/operations/%s", i, item["location"], id)
		}
		if op["status"] != string(core.StatusQueued) {
			t.Errorf("item %d status = %v, want queued", i, op["status"])
		}
		// Batch order must be preserved in the reply.
		params, _ := op["params"].(map[string]any)
		if got, _ := params["i"].(float64); int(got) != i {
			t.Errorf("item %d carries params %v, want i=%d", i, params, i)
		}
	}
}

// TestSubmitBatch100Items is the acceptance criterion: one POST with a
// 100-item array returns 100 per-item envelopes in one response, and
// every operation runs to done.
func TestSubmitBatch100Items(t *testing.T) {
	s, e := newTestServer(t)
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"kind":"echo"}`)
	}
	sb.WriteByte(']')

	w, resp := doJSON(t, s, "POST", "/v1/operations", sb.String())
	checkEnvelope(t, w, resp, "async", http.StatusAccepted)
	items := batchItems(t, resp)
	if len(items) != 100 {
		t.Fatalf("batch reply has %d items, want 100", len(items))
	}
	for i, item := range items {
		op := item["result"].(map[string]any)
		id, _ := op["id"].(string)
		if id == "" {
			t.Fatalf("item %d has no id", i)
		}
		if final := waitTerminal(t, e, id); final.Status != core.StatusDone {
			t.Errorf("op %d status = %s (%s), want done", i, final.Status, final.Error)
		}
	}
}

func TestSubmitBatchValidationErrorEnvelope(t *testing.T) {
	s, e := newTestServer(t)
	body := `[{"kind":"echo"},{"kind":"bogus"},{}]`
	w, resp := doJSON(t, s, "POST", "/v1/operations", body)
	checkEnvelope(t, w, resp, "error", http.StatusBadRequest)

	result, ok := resp.Result.(map[string]any)
	if !ok {
		t.Fatalf("error result = %T, want object", resp.Result)
	}
	if msg, _ := result["message"].(string); !strings.Contains(msg, "2 of 3") {
		t.Errorf("error message = %q, want batch summary mentioning 2 of 3", msg)
	}
	items, ok := result["items"].([]any)
	if !ok || len(items) != 2 {
		t.Fatalf("error items = %v, want 2 entries", result["items"])
	}
	first := items[0].(map[string]any)
	if idx, _ := first["index"].(float64); int(idx) != 1 {
		t.Errorf("first invalid index = %v, want 1", first["index"])
	}
	if msg, _ := first["message"].(string); !strings.Contains(msg, "bogus") {
		t.Errorf("first invalid message = %q, want mention of kind bogus", msg)
	}
	second := items[1].(map[string]any)
	if idx, _ := second["index"].(float64); int(idx) != 2 {
		t.Errorf("second invalid index = %v, want 2", second["index"])
	}

	// Atomic rejection: the valid first item must not have been run.
	if ops, err := e.List(engine.ListQuery{}); err != nil || len(ops) != 0 {
		t.Errorf("engine holds %d ops after rejected batch (err %v), want 0", len(ops), err)
	}
}

func TestSubmitBatchEmptyArray(t *testing.T) {
	s, _ := newTestServer(t)
	w, resp := doJSON(t, s, "POST", "/v1/operations", `[]`)
	checkEnvelope(t, w, resp, "error", http.StatusBadRequest)
}

func TestSubmitBatchMalformedArray(t *testing.T) {
	s, _ := newTestServer(t)
	w, resp := doJSON(t, s, "POST", "/v1/operations", `[{"kind":"echo"},`)
	checkEnvelope(t, w, resp, "error", http.StatusBadRequest)
}

func TestErrorEnvelopes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
	}{
		{"malformed json", "POST", "/v1/operations", `{"kind":`, http.StatusBadRequest},
		{"unknown kind", "POST", "/v1/operations", `{"kind":"nope"}`, http.StatusBadRequest},
		{"empty kind", "POST", "/v1/operations", `{}`, http.StatusBadRequest},
		{"unknown operation id", "GET", "/v1/operations/deadbeef", "", http.StatusNotFound},
		{"unknown endpoint", "GET", "/v2/everything", "", http.StatusNotFound},
		{"bad status filter", "GET", "/v1/operations?status=sideways", "", http.StatusBadRequest},
		{"wrong method", "DELETE", "/v1/operations", "", http.StatusMethodNotAllowed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t)
			w, resp := doJSON(t, s, tc.method, tc.path, tc.body)
			checkEnvelope(t, w, resp, "error", tc.wantCode)
			result, ok := resp.Result.(map[string]any)
			if !ok || result["message"] == "" {
				t.Errorf("error result = %v, want non-empty message", resp.Result)
			}
		})
	}
}

func TestWrongMethodSetsAllowHeader(t *testing.T) {
	s, _ := newTestServer(t)
	w, resp := doJSON(t, s, "DELETE", "/v1/operations", "")
	checkEnvelope(t, w, resp, "error", http.StatusMethodNotAllowed)
	if got := w.Header().Get("Allow"); got != "GET, POST" {
		t.Errorf("Allow header = %q, want %q", got, "GET, POST")
	}
}

func TestUnserializableResultFailsOnlyThatOperation(t *testing.T) {
	s, e := newTestServer(t)
	e.Register("chan", func(context.Context, *core.Operation) (any, error) {
		return make(chan int), nil
	})
	_, sub := doJSON(t, s, "POST", "/v1/operations", `{"kind":"chan"}`)
	id := sub.Result.(map[string]any)["id"].(string)
	op := waitTerminal(t, e, id)
	if op.Status != core.StatusFailed {
		t.Fatalf("op status = %s, want failed", op.Status)
	}
	if !strings.Contains(op.Error, "not serializable") {
		t.Errorf("op error = %q, want serialization failure", op.Error)
	}
	// The poisoned result must not break the list endpoint.
	w, resp := doJSON(t, s, "GET", "/v1/operations", "")
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
}

func TestListFilters(t *testing.T) {
	s, e := newTestServer(t)
	e.Register("fail", func(context.Context, *core.Operation) (any, error) {
		return nil, core.ErrQueueFull // arbitrary error payload
	})
	_, okResp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
	_, badResp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"fail"}`)
	okID := okResp.Result.(map[string]any)["id"].(string)
	badID := badResp.Result.(map[string]any)["id"].(string)

	waitTerminal(t, e, okID)
	waitTerminal(t, e, badID)

	w, resp := doJSON(t, s, "GET", "/v1/operations", "")
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
	if ops := resp.Result.([]any); len(ops) != 2 {
		t.Errorf("unfiltered list has %d ops, want 2", len(ops))
	}

	_, failed := doJSON(t, s, "GET", "/v1/operations?status=failed", "")
	ops, _ := failed.Result.([]any)
	if len(ops) != 1 {
		t.Fatalf("failed list has %d ops, want 1", len(ops))
	}
	if got := ops[0].(map[string]any)["id"]; got != badID {
		t.Errorf("failed list contains %v, want %s", got, badID)
	}
}

func TestCancelQueuedOverHTTP(t *testing.T) {
	s, e := newTestServer(t)
	// One extra blocking kind and a saturated worker pool keep the
	// target operation queued while we cancel it.
	release := make(chan struct{})
	defer close(release)
	e.Register("block", func(context.Context, *core.Operation) (any, error) {
		<-release
		return nil, nil
	})
	for i := 0; i < 2; i++ { // the test engine has 2 workers
		if _, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"block"}`); resp.Type != "async" {
			t.Fatalf("blocker %d not accepted: %+v", i, resp)
		}
	}
	_, sub := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
	id := sub.Result.(map[string]any)["id"].(string)

	w, resp := doJSON(t, s, "DELETE", "/v1/operations/"+id, "")
	checkEnvelope(t, w, resp, "async", http.StatusAccepted)
	if loc := w.Header().Get("Location"); loc != "/v1/operations/"+id {
		t.Errorf("Location = %q, want the poll URL", loc)
	}
	op := resp.Result.(map[string]any)
	if op["status"] != string(core.StatusCancelled) {
		t.Errorf("cancelled queued op status = %v, want cancelled immediately", op["status"])
	}
	if op["cancelled_at"] == nil {
		t.Error("cancelled op reply has no cancelled_at")
	}

	// A second DELETE hits an already-terminal operation: 409.
	w, resp = doJSON(t, s, "DELETE", "/v1/operations/"+id, "")
	checkEnvelope(t, w, resp, "error", http.StatusConflict)
}

func TestCancelRunningOverHTTP(t *testing.T) {
	s, e := newTestServer(t)
	started := make(chan struct{})
	e.Register("hang", func(ctx context.Context, _ *core.Operation) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, sub := doJSON(t, s, "POST", "/v1/operations", `{"kind":"hang"}`)
	id := sub.Result.(map[string]any)["id"].(string)
	<-started

	w, resp := doJSON(t, s, "DELETE", "/v1/operations/"+id, "")
	checkEnvelope(t, w, resp, "async", http.StatusAccepted)
	if final := waitTerminal(t, e, id); final.Status != core.StatusCancelled {
		t.Errorf("final status = %s (%s), want cancelled", final.Status, final.Error)
	}
}

func TestCancelUnknownIs404(t *testing.T) {
	s, _ := newTestServer(t)
	w, resp := doJSON(t, s, "DELETE", "/v1/operations/deadbeef", "")
	checkEnvelope(t, w, resp, "error", http.StatusNotFound)
}

func TestListLimit(t *testing.T) {
	s, e := newTestServer(t)
	var ids []string
	for i := 0; i < 5; i++ {
		_, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
		ids = append(ids, resp.Result.(map[string]any)["id"].(string))
	}
	for _, id := range ids {
		waitTerminal(t, e, id)
	}

	w, resp := doJSON(t, s, "GET", "/v1/operations?limit=2", "")
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
	if ops := resp.Result.([]any); len(ops) != 2 {
		t.Errorf("limit=2 returned %d ops, want 2", len(ops))
	}
	// A limit beyond the store size returns everything.
	_, resp = doJSON(t, s, "GET", "/v1/operations?limit=100", "")
	if ops := resp.Result.([]any); len(ops) != 5 {
		t.Errorf("limit=100 returned %d ops, want all 5", len(ops))
	}
	// Limit composes with the status filter.
	_, resp = doJSON(t, s, "GET", "/v1/operations?status=done&limit=3", "")
	if ops := resp.Result.([]any); len(ops) != 3 {
		t.Errorf("status=done&limit=3 returned %d ops, want 3", len(ops))
	}

	for _, bad := range []string{"0", "-1", "x", "1.5"} {
		w, resp := doJSON(t, s, "GET", "/v1/operations?limit="+bad, "")
		checkEnvelope(t, w, resp, "error", http.StatusBadRequest)
	}
}

func TestListCursorPagination(t *testing.T) {
	s, e := newTestServer(t)
	var ids []string
	for i := 0; i < 5; i++ {
		_, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
		ids = append(ids, resp.Result.(map[string]any)["id"].(string))
	}
	for _, id := range ids {
		waitTerminal(t, e, id)
	}

	// Page through the whole store two at a time; the pages must chain
	// via the last element's id, never repeat an op, and cover all 5.
	seen := map[string]bool{}
	cursor := ""
	pages := 0
	for {
		url := "/v1/operations?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		w, resp := doJSON(t, s, "GET", url, "")
		checkEnvelope(t, w, resp, "sync", http.StatusOK)
		ops, _ := resp.Result.([]any)
		if len(ops) == 0 {
			break
		}
		for _, raw := range ops {
			id := raw.(map[string]any)["id"].(string)
			if seen[id] {
				t.Fatalf("cursor pages repeated op %s", id)
			}
			seen[id] = true
		}
		cursor = ops[len(ops)-1].(map[string]any)["id"].(string)
		if pages++; pages > 10 {
			t.Fatal("cursor walk never terminated")
		}
	}
	if len(seen) != 5 {
		t.Errorf("cursor walk saw %d ops, want 5", len(seen))
	}

	// Cursor composes with the status filter.
	_, resp := doJSON(t, s, "GET", "/v1/operations?status=done&cursor="+ids[4]+"&limit=10", "")
	if ops, _ := resp.Result.([]any); len(ops) != 4 {
		t.Errorf("status=done after newest cursor returned %d ops, want the 4 older ones", len(ops))
	}
}

func TestListCursorMalformedIs400(t *testing.T) {
	s, _ := newTestServer(t)
	for _, bad := range []string{
		"notanid",
		"UPPERCASEUPPERCASEUPPERCASEUPPER",
		strings.Repeat("a", 31),
		strings.Repeat("a", 33),
		strings.Repeat("g", 32), // right length, not hex
	} {
		w, resp := doJSON(t, s, "GET", "/v1/operations?cursor="+bad, "")
		checkEnvelope(t, w, resp, "error", http.StatusBadRequest)
	}
}

func TestListCursorEvictedYieldsEmptyPage(t *testing.T) {
	// A well-formed cursor whose operation the janitor already evicted
	// is not an error: the client fell behind retention and gets an
	// empty page telling it to restart from the top.
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	e := engine.New(engine.Config{Workers: 1, Clock: clock, OpTTL: time.Minute, GCInterval: time.Hour})
	t.Cleanup(func() { e.Shutdown(context.Background()) })
	e.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params, nil
	})
	s := New(e)

	_, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
	id := resp.Result.(map[string]any)["id"].(string)
	waitTerminal(t, e, id)
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	if n := e.GC(); n != 1 {
		t.Fatalf("GC evicted %d ops, want 1", n)
	}

	w, resp := doJSON(t, s, "GET", "/v1/operations?cursor="+id, "")
	checkEnvelope(t, w, resp, "sync", http.StatusOK)
	if ops, _ := resp.Result.([]any); len(ops) != 0 {
		t.Errorf("evicted cursor returned %d ops, want empty page", len(ops))
	}
}

func TestWrongMethodOnOperationSetsAllowHeader(t *testing.T) {
	s, _ := newTestServer(t)
	w, resp := doJSON(t, s, "PATCH", "/v1/operations/abc", "")
	checkEnvelope(t, w, resp, "error", http.StatusMethodNotAllowed)
	if got := w.Header().Get("Allow"); got != "GET, DELETE" {
		t.Errorf("Allow header = %q, want %q", got, "GET, DELETE")
	}
}

func TestSubmitAfterShutdownIs503(t *testing.T) {
	s, e := newTestServer(t)
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	w, resp := doJSON(t, s, "POST", "/v1/operations", `{"kind":"echo"}`)
	checkEnvelope(t, w, resp, "error", http.StatusServiceUnavailable)
}

func TestSubmitBodyTooLarge(t *testing.T) {
	s, _ := newTestServer(t)
	big := `{"kind":"echo","params":{"blob":"` + strings.Repeat("a", maxBodyBytes) + `"}}`
	w, resp := doJSON(t, s, "POST", "/v1/operations", big)
	checkEnvelope(t, w, resp, "error", http.StatusRequestEntityTooLarge)
}
