package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
	"opdaemon/internal/raceflag"
)

// discardWriter is an http.ResponseWriter that keeps only the status,
// so the budget counts the server's allocations and not a recorder's.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// TestSubmitAllocBudget is the accept→terminal allocation budget as a
// regression gate: batch-10 noop bodies (the opbench generator's shape)
// go through Server.ServeHTTP — decode, admission, store put, the
// reply — and on through the workers' two transitions to done, and the
// whole process's mallocs and allocated bytes are divided by the
// operations. The collector's work is proportional to both, and under
// submit_mem it was the largest single consumer of daemon CPU.
//
// Read here with this test (go1.24, linux/amd64, GOMAXPROCS 2,
// repeating to the first decimal):
//
//	                       objects/op   bytes/op
//	commit 2b5cd26 (PR 13)    43.9        3527    (noop returning map[string]any{"ok": true}, as cmd/daemon did)
//	PR 15                     13.1        1427
//	PR 20                     12.2        1427    (one []schedItem per batch, not one *schedItem per operation)
//	PR 23                     12.2        1403    (a schedItem carries one pointer, not two strings)
//	scheduler rings           10.8        1405    (the scheduler's rings reuse their storage; 10.0 at GOMAXPROCS 1)
//
// The thresholds are the measured values plus 15 %; they are lowered
// when a change lowers the reading and never raised. A failure means something
// on the path allocates again; find it with
//
//	go test -run SubmitAllocBudget -memprofile /tmp/mem.out -memprofilerate 1 ./internal/api/
func TestSubmitAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates; alloc pinning runs in non-race builds")
	}
	const (
		batch           = 10
		calls           = 300
		maxObjectsPerOp = 12.4
		maxBytesPerOp   = 1613
	)
	e := engine.New(engine.Config{Workers: 8, QueueDepth: 1024})
	defer e.Shutdown(context.Background())
	var ran atomic.Int64
	var result any = json.RawMessage(`{"ok":true}`)
	e.Register("noop", func(context.Context, *core.Operation) (any, error) {
		ran.Add(1)
		return result, nil
	})
	s := New(e)
	body := "[" + strings.TrimSuffix(strings.Repeat(`{"kind":"noop","params":{"n":123456}},`, batch), ",") + "]"

	// run serves n submits, letting each batch's handlers finish before
	// the next so the queue never fills. Requests and writers are built
	// before the caller starts counting.
	run := func(n int) func() {
		reqs := make([]*http.Request, n)
		writers := make([]*discardWriter, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest("POST", "/v1/operations", strings.NewReader(body))
			writers[i] = &discardWriter{h: http.Header{}}
		}
		return func() {
			for i := range reqs {
				want := ran.Load() + batch
				s.ServeHTTP(writers[i], reqs[i])
				if writers[i].code != http.StatusAccepted {
					t.Fatalf("batch submit answered %d", writers[i].code)
				}
				for ran.Load() < want {
					runtime.Gosched()
				}
			}
			time.Sleep(5 * time.Millisecond) // let the last terminal updates land
		}
	}
	run(calls)() // warm the pools and the router
	measured := run(calls)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	measured()
	runtime.ReadMemStats(&after)

	ops := float64(calls * batch)
	objects := float64(after.Mallocs-before.Mallocs) / ops
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / ops
	t.Logf("accept→terminal: %.1f objects/op, %.0f bytes/op", objects, bytes)
	if objects > maxObjectsPerOp {
		t.Errorf("%.1f objects allocated per operation, budget %.1f", objects, maxObjectsPerOp)
	}
	if bytes > maxBytesPerOp {
		t.Errorf("%.0f bytes allocated per operation, budget %d", bytes, maxBytesPerOp)
	}
}
