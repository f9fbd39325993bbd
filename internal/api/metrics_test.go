package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// scrapeMetrics fetches /v1/metrics and parses the exposition into a
// name{labels} → value map, failing the test on any malformed line.
// "# TYPE name kind" lines are kept under the key "TYPE name".
func scrapeMetrics(t *testing.T, s *Server) map[string]string {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d, want 200", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition 0.0.4", ct)
	}
	vals := make(map[string]string)
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			vals["TYPE "+name] = kind
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok || key == "" || val == "" {
			t.Fatalf("malformed exposition line %q", line)
		}
		vals[key] = val
	}
	return vals
}

func TestMetricsExposition(t *testing.T) {
	s, e := newTestServer(t)
	// Give the gauges something non-zero to report.
	if _, err := e.Submit(context.Background(), "echo", map[string]any{"x": 1}); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	vals := scrapeMetrics(t, s)
	if got := vals["opdaemon_workers"]; got != "2" {
		t.Errorf("opdaemon_workers = %q, want 2", got)
	}
	for _, name := range []string{
		"opdaemon_queue_depth", "opdaemon_queue_capacity", "opdaemon_store_operations",
		"opdaemon_watch_waiters", "opdaemon_notice_last_seq", "opdaemon_drain_per_sec",
		"opdaemon_queue_clients", "opdaemon_durable",
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("exposition is missing %s", name)
		}
	}
	// All three bands appear as labelled series.
	for _, band := range []string{"high", "normal", "low"} {
		key := `opdaemon_queue_band_depth{band="` + band + `"}`
		if _, ok := vals[key]; !ok {
			t.Errorf("exposition is missing %s", key)
		}
	}
	// The in-memory test engine is not durable, so the WAL gauges must
	// be absent rather than lying zeroes.
	if vals["opdaemon_durable"] != "0" {
		t.Errorf("opdaemon_durable = %q, want 0 for the memory store", vals["opdaemon_durable"])
	}
	for _, name := range []string{"opdaemon_wal_segments", "opdaemon_wal_batch_p50", "opdaemon_wal_fsyncs_per_sec", "opdaemon_wal_commit_failures_total"} {
		if _, ok := vals[name]; ok {
			t.Errorf("exposition has %s despite a non-durable store", name)
		}
	}
}

// newWALServer builds a server over a WAL-backed engine, the
// configuration that emits every series.
func newWALServer(t *testing.T) *Server {
	t.Helper()
	ws, err := engine.OpenWALStore(engine.WALConfig{Dir: t.TempDir(), Sync: engine.WALSyncGroup})
	if err != nil {
		t.Fatalf("OpenWALStore: %v", err)
	}
	e := engine.New(engine.Config{Workers: 1, Store: ws})
	t.Cleanup(func() {
		e.Shutdown(context.Background())
		ws.Close()
	})
	e.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params, nil
	})
	return New(e)
}

func TestMetricsDurableGauges(t *testing.T) {
	vals := scrapeMetrics(t, newWALServer(t))
	if vals["opdaemon_durable"] != "1" {
		t.Errorf("opdaemon_durable = %q, want 1 for the WAL store", vals["opdaemon_durable"])
	}
	if v, ok := vals["opdaemon_wal_segments"]; !ok || v == "0" {
		t.Errorf("opdaemon_wal_segments = %q, want a positive gauge", v)
	}
	for _, name := range []string{"opdaemon_wal_batch_p50", "opdaemon_wal_fsyncs_per_sec"} {
		if _, ok := vals[name]; !ok {
			t.Errorf("exposition is missing %s", name)
		}
	}
	// The lifetime counter is present from the first scrape (a healthy
	// log reads 0) and typed as a counter, so rate() works on it.
	const failures = "opdaemon_wal_commit_failures_total"
	if got := vals[failures]; got != "0" {
		t.Errorf("%s = %q, want 0 on a healthy log", failures, got)
	}
	if got := vals["TYPE "+failures]; got != "counter" {
		t.Errorf("%s has TYPE %q, want counter", failures, got)
	}
	if got := vals["TYPE opdaemon_wal_segments"]; got != "gauge" {
		t.Errorf("opdaemon_wal_segments has TYPE %q, want gauge", got)
	}
}

// documentedSeries matches a series name the metrics section of
// docs/api.md lists in backticks, bare or with its labels.
var documentedSeries = regexp.MustCompile("`(opdaemon_[a-z0-9_]+)[`{]")

// TestMetricsDocListsEverySeries checks that the series a WAL-backed
// server emits are exactly the ones docs/api.md lists under
// GET /v1/metrics, so a series can neither ship undocumented nor stay
// documented after it is gone.
func TestMetricsDocListsEverySeries(t *testing.T) {
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### `GET /v1/metrics`\n")
	if !ok {
		t.Fatal("docs/api.md has no GET /v1/metrics section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]bool{}
	for _, m := range documentedSeries.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	var missing []string
	for key := range scrapeMetrics(t, newWALServer(t)) {
		if name, ok := strings.CutPrefix(key, "TYPE "); ok {
			if !documented[name] {
				missing = append(missing, name)
			}
			delete(documented, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("series not listed under GET /v1/metrics in docs/api.md: %v", missing)
	}
	var stale []string
	for name := range documented {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("docs/api.md lists series the server does not emit: %v", stale)
	}
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(t)
	req := httptest.NewRequest("POST", "/v1/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/metrics = %d, want 405", w.Code)
	}
}

func TestFormatMetricValue(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {42, "42"}, {-3, "-3"}, {2.5, "2.5"}, {0.125, "0.125"},
	} {
		if got := formatMetricValue(tc.in); got != tc.want {
			t.Errorf("formatMetricValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestQuoteLabelValue(t *testing.T) {
	if got := quoteLabelValue(`a"b\c` + "\n"); got != `"a\"b\\c\n"` {
		t.Errorf("quoteLabelValue = %s", got)
	}
}
