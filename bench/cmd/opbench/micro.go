package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"opdaemon/internal/api"
	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// The micro pass: fixed-count direct calls into core, and allocation
// counts for one batch-10 submit through api and through the engine
// alone. Its numbers do not depend on the workload and are reported on
// every one.

// sink keeps the compiler from discarding the timed calls.
var sink int

// timeCalls runs f n times and returns nanoseconds per call.
func timeCalls(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start)) / float64(n)
}

// discard is an http.ResponseWriter that keeps only the status.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(code int)        { d.code = code }

func micro(ctx context.Context, res *result) error {
	// The passes before this one leave a large heap behind; collect it
	// now so its marking does not land inside the timed loops.
	runtime.GC()
	at := preloadEpoch
	queued := &core.Operation{
		ID: "0123456789abcdef0123456789abcdef", Kind: "noop", Params: map[string]any{"n": float64(123456)},
		Status: core.StatusQueued, Priority: core.PriorityNormal, Client: "bench-0", CreatedAt: at, UpdatedAt: at,
	}
	done := queued.Clone()
	done.Transition(core.StatusRunning, at.Add(time.Millisecond))
	done.Transition(core.StatusDone, at.Add(2*time.Millisecond))
	done.Result = json.RawMessage(`{"ok":true}`)

	full, err := queued.AppendBinary(nil)
	if err != nil {
		return fmt.Errorf("encoding reference operation: %w", err)
	}
	delta := done.AppendBinaryDelta(nil)
	res.set("core.record_bytes_full", float64(len(full)), 1)
	res.set("core.record_bytes_delta", float64(len(delta)), 1)

	const n = 100_000
	buf := make([]byte, 0, 256)
	res.set("core.encode_ns", timeCalls(n, func() {
		b, _ := queued.AppendBinary(buf[:0]) // cannot fail: encoded once above
		sink += len(b)
	}), n)
	res.set("core.delta_encode_ns", timeCalls(n, func() { sink += len(done.AppendBinaryDelta(buf[:0])) }), n)
	var decodeErr error
	res.set("core.decode_ns", timeCalls(n, func() {
		op, err := core.DecodeBinaryOperation(full)
		if err != nil {
			decodeErr = err
			return
		}
		sink += len(op.ID)
	}), n)
	if decodeErr != nil {
		return fmt.Errorf("decoding reference operation: %w", decodeErr)
	}
	res.set("core.clone_ns", timeCalls(n, func() { sink += len(queued.Clone().ID) }), n)

	allocs, err := submitAllocs(ctx)
	if err != nil {
		return err
	}
	res.set("api.allocs_per_submit10", allocs, allocCalls)
	return nil
}

const allocCalls = 300

// submitAllocs counts the heap allocations of one batch-10 submit that
// belong to the api layer: mallocs per call through
// api.Server.ServeHTTP minus mallocs per call straight into
// Engine.SubmitBatch. Both sides run the ten operations to completion,
// so the engine's and the workers' allocations cancel out.
func submitAllocs(ctx context.Context) (float64, error) {
	eng := engine.New(engine.Config{Workers: 8, QueueDepth: 1024})
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = eng.Shutdown(sctx) // only noops in flight; nothing to report
	}()
	var ran atomic.Int64
	eng.Register("noop", func(context.Context, *core.Operation) (any, error) {
		ran.Add(1)
		return map[string]any{"ok": true}, nil
	})
	srv := api.New(eng)
	body := submitBodies(clientRand(1, 0), 1)[0]
	items := make([]engine.BatchItem, batchSize)
	for i := range items {
		items[i] = engine.BatchItem{Kind: "noop", Params: map[string]any{"n": float64(100_000 + i)}}
	}
	// Requests and reply writers are built before any counting starts,
	// so the harness's own allocations stay out of the api's number.
	reqs := make([]*http.Request, 2*allocCalls)
	writers := make([]*discard, len(reqs))
	for i := range reqs {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/operations", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("building submit request: %w", err)
		}
		reqs[i], writers[i] = req, &discard{h: http.Header{}}
	}
	var callErr error
	next := 0
	viaAPI := func() {
		srv.ServeHTTP(writers[next], reqs[next])
		if code := writers[next].code; code != http.StatusAccepted {
			callErr = fmt.Errorf("batch submit answered %d", code)
		}
		next++
	}
	direct := func() {
		if _, err := eng.SubmitBatch(ctx, items); err != nil {
			callErr = err
		}
	}
	// mallocs runs f allocCalls times, letting each call's ten handlers
	// run before the next so the queue never fills, and returns the
	// process-wide malloc count per call.
	mallocs := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < allocCalls; i++ {
			want := ran.Load() + batchSize
			f()
			for ran.Load() < want && callErr == nil && ctx.Err() == nil {
				runtime.Gosched()
			}
		}
		time.Sleep(5 * time.Millisecond) // let the last terminal updates land
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / allocCalls
	}
	mallocs(viaAPI) // warm pools and the router
	a, d := mallocs(viaAPI), mallocs(direct)
	if callErr != nil {
		return 0, fmt.Errorf("measuring submit allocations: %w", callErr)
	}
	return a - d, nil
}
