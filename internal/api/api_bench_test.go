package api

// In-process API benchmarks: every request travels the full
// router → handler → engine → store → JSON-envelope path through
// httptest recorders. They are what opbench cannot say yet — allocs/op
// of a submit, the contention profile (`make mutex-profile` runs
// BenchmarkAPISubmitBatch10), a cursor page, a notices page; what
// serving a GET, a long-poll or a list page costs, and what a watched
// lifecycle costs, are opbench's api.* and watch.* rows and
// lifecycle_mix's op_p50_ms (bench/README.md). Run via `make bench` or:
//
//	go test -bench=. -benchmem -benchtime=100x -run '^$' ./internal/api/

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// newBenchServer wires a server whose engine drains instantly-done
// noop operations, with enough queue headroom that submission
// benchmarks measure the API path rather than backpressure.
func newBenchServer(b *testing.B, store engine.Store) (*Server, *engine.Engine) {
	b.Helper()
	e := engine.New(engine.Config{Workers: 4, QueueDepth: 1 << 16, Store: store})
	b.Cleanup(func() { e.Shutdown(context.Background()) })
	e.Register("noop", func(context.Context, *core.Operation) (any, error) {
		return nil, nil
	})
	return New(e), e
}

type benchStore struct {
	name string
	mk   func() engine.Store
}

// benchStores enumerates the store configurations the e2e suite runs
// against: the single-lock baseline plus the daemon default.
func benchStores() []benchStore {
	stores := []benchStore{{"sharded-1", func() engine.Store { return engine.NewShardedStore(1) }}}
	if n := engine.DefaultShardCount(); n > 1 { // at GOMAXPROCS 1 the two rows are the same store
		stores = append(stores, benchStore{fmt.Sprintf("sharded-%d", n), func() engine.Store { return engine.NewShardedStore(0) }})
	}
	return stores
}

// seedStore fills a store with n terminal operations so read
// benchmarks operate on a realistically full daemon.
func seedStore(st engine.Store, n int) []*core.Operation {
	t0 := time.Unix(1000, 0)
	ops := make([]*core.Operation, n)
	for i := range ops {
		ops[i] = &core.Operation{
			ID:        core.NewID(),
			Kind:      "noop",
			Status:    core.StatusDone,
			CreatedAt: t0.Add(time.Duration(i) * time.Millisecond),
			UpdatedAt: t0.Add(time.Duration(i) * time.Millisecond),
		}
	}
	st.PutBatch(ops)
	return ops
}

// serve runs one request through the full handler stack and returns
// the recorder.
func serve(s *Server, method, path string, body string, mods ...func(*http.Request)) *httptest.ResponseRecorder {
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
	return w
}

// BenchmarkAPISubmit measures single-operation submission end to end.
// Workers drain the noops concurrently; the occasional 429 under a
// long -benchtime is the queue's backpressure and still exercises the
// submission path, so it is counted rather than fatal.
func BenchmarkAPISubmit(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			s, _ := newBenchServer(b, bs.mk())
			const body = `{"kind":"noop"}`
			rejected := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch w := serve(s, "POST", "/v1/operations", body); w.Code {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					rejected++
				default:
					b.Fatalf("submit returned %d: %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			if rejected > 0 {
				b.ReportMetric(float64(rejected), "429s")
			}
		})
	}
}

// BenchmarkAPISubmitBatch10 measures the amortised batch submission
// path at the batch size the docs quote.
func BenchmarkAPISubmitBatch10(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			s, _ := newBenchServer(b, bs.mk())
			body := "[" + strings.Repeat(`{"kind":"noop"},`, 9) + `{"kind":"noop"}]`
			rejected := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch w := serve(s, "POST", "/v1/operations", body); w.Code {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					rejected++
				default:
					b.Fatalf("batch submit returned %d: %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			if rejected > 0 {
				b.ReportMetric(float64(rejected), "429s")
			}
		})
	}
}

// BenchmarkAPIListCursor measures a mid-stream limit=50 cursor page
// over a 10k-operation store: cursor resolution (a point lookup, then a
// per-shard tail-first search, at its dearest mid-index) on top of the
// page opbench's api.serve_list50_us times. No opbench workload sends a cursor.
func BenchmarkAPIListCursor(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			st := bs.mk()
			ops := seedStore(st, 10_000)
			s, _ := newBenchServer(b, st)
			cursor := ops[len(ops)/2].ID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := serve(s, "GET", "/v1/operations?limit=50&cursor="+cursor, "")
				if w.Code != http.StatusOK {
					b.Fatalf("cursor list returned %d", w.Code)
				}
			}
		})
	}
}

// BenchmarkAPISubmitBatch10WAL is the durable end-to-end path: the
// same batch-of-10 submission as BenchmarkAPISubmitBatch10 but with
// the engine running on the WAL store (`-store=wal`), so each request
// pays admission durability. group is the shipping default; always is
// the per-mutation-fsync comparison point. Compare against the
// in-memory rows above for the durability tax at the API layer.
func BenchmarkAPISubmitBatch10WAL(b *testing.B) {
	for _, mode := range []engine.WALSyncMode{engine.WALSyncGroup, engine.WALSyncAlways} {
		b.Run(string(mode), func(b *testing.B) {
			st, err := engine.OpenWALStore(engine.WALConfig{Dir: b.TempDir(), Sync: mode})
			if err != nil {
				b.Fatalf("OpenWALStore: %v", err)
			}
			b.Cleanup(func() {
				if err := st.Close(); err != nil {
					b.Errorf("WALStore.Close: %v", err)
				}
			})
			s, _ := newBenchServer(b, st)
			body := "[" + strings.Repeat(`{"kind":"noop"},`, 9) + `{"kind":"noop"}]`
			rejected := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch w := serve(s, "POST", "/v1/operations", body); w.Code {
				case http.StatusAccepted:
				case http.StatusTooManyRequests:
					rejected++
				default:
					b.Fatalf("batch submit returned %d: %s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			if rejected > 0 {
				b.ReportMetric(float64(rejected), "429s")
			}
		})
	}
}

// BenchmarkAPINotices measures a limit=50 feed page over a populated
// ring — the recurring request of a caught-up notices watcher that
// fell briefly behind. No opbench workload reads /v1/notices.
func BenchmarkAPINotices(b *testing.B) {
	for _, bs := range benchStores() {
		b.Run(bs.name, func(b *testing.B) {
			s, e := newBenchServer(b, bs.mk())
			// Populate the feed with real lifecycles (3 notices each).
			for i := 0; i < 200; i++ {
				w := serve(s, "POST", "/v1/operations", `{"kind":"noop"}`)
				if w.Code != http.StatusAccepted {
					b.Fatalf("seed submit returned %d", w.Code)
				}
			}
			// All 200 lifecycles (3 notices each) settle before
			// measuring.
			for e.Stats().LastNotice < 600 {
				time.Sleep(time.Millisecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := serve(s, "GET", "/v1/notices?limit=50", "")
				if w.Code != http.StatusOK {
					b.Fatalf("notices returned %d", w.Code)
				}
			}
		})
	}
}
