package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opdaemon/internal/api"
	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// Tracing from the outside in. The traced run assembles the daemon's
// stack in-process from public functions only —
// api.New(engine.New(Config{Store: tracedStore{real}})) behind an
// http.Server on loopback — and every span is recorded by a bench-owned
// wrapper around a call into a layer: the HTTP middleware (api), the
// Store decorator (store or wal), the operation handlers (engine
// dispatch on one side, transition on the other) and the generator
// (client). Spans of one operation share its ID; the client's request
// key joins a client span to its api span. Nothing inside the program
// is instrumented.

type spanKind uint8

const (
	spAPI spanKind = iota
	spEngine
	spPut
	spUpdate
	spGet
	spList
	spSweep
	spHandler
	spAwait
	spClient
)

var spanNames = [...]string{"api", "engine", "store.put", "store.update", "store.get", "store.list", "store.sweep", "handler", "watch.await", "client"}

// Routes an api span can have taken.
const (
	rtOther uint8 = iota
	rtSubmit
	rtGetWait
	rtGet
	rtList
	rtCancel
)

// span is one timed call into a layer, on the recorder's clock.
type span struct {
	kind       spanKind
	route      uint8 // api spans
	terminal   bool  // update spans: the update published a terminal status
	n          int32 // ops in a put, fn calls in an update, items in a list, evictions in a sweep
	start, end int64
	id         string   // operation ID (the first of a batch)
	req        string   // generator request key, api spans
	ids        []string // every operation ID of a put
}

// recorder keeps spans in memory until the run ends. Appends are spread
// over shards so concurrent workers rarely meet on one mutex.
type recorder struct {
	base   time.Time
	next   atomic.Uint32
	shards [16]struct {
		mu    sync.Mutex
		spans []span
		_     [40]byte // keep neighbouring shards off one cache line
	}
}

func newRecorder(base time.Time) *recorder {
	r := &recorder{base: base}
	for i := range r.shards {
		r.shards[i].spans = make([]span, 0, 1<<14)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	sh := &r.shards[r.next.Add(1)%uint32(len(r.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

func (r *recorder) all() []span {
	var out []span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// tracedStore decorates an engine.Store with one span per call. It
// embeds the real store, so methods it does not time pass through.
type tracedStore struct {
	engine.Store
	rec *recorder
}

func (t *tracedStore) Put(op *core.Operation) {
	id := op.ID
	start := t.rec.now()
	t.Store.Put(op)
	t.rec.add(span{kind: spPut, n: 1, start: start, end: t.rec.now(), id: id, ids: []string{id}})
}

func (t *tracedStore) PutBatch(ops []*core.Operation) {
	ids := make([]string, len(ops))
	for i, op := range ops {
		ids[i] = op.ID
	}
	start := t.rec.now()
	t.Store.PutBatch(ops)
	t.rec.add(span{kind: spPut, n: int32(len(ops)), start: start, end: t.rec.now(), id: ids[0], ids: ids})
}

func (t *tracedStore) Update(id string, fn func(op *core.Operation)) error {
	calls, term := int32(0), false
	start := t.rec.now()
	err := t.Store.Update(id, func(op *core.Operation) {
		calls++
		fn(op)
		term = op.Status.Terminal()
	})
	t.rec.add(span{kind: spUpdate, n: calls, terminal: term, start: start, end: t.rec.now(), id: id})
	return err
}

func (t *tracedStore) Get(id string) (*core.Operation, error) {
	start := t.rec.now()
	op, err := t.Store.Get(id)
	t.rec.add(span{kind: spGet, start: start, end: t.rec.now(), id: id})
	return op, err
}

func (t *tracedStore) List(q engine.ListQuery) ([]*core.Operation, error) {
	start := t.rec.now()
	ops, err := t.Store.List(q)
	t.rec.add(span{kind: spList, n: int32(len(ops)), start: start, end: t.rec.now()})
	return ops, err
}

func (t *tracedStore) SweepTerminalBefore(cutoff time.Time) int {
	start := t.rec.now()
	n := t.Store.SweepTerminalBefore(cutoff)
	t.rec.add(span{kind: spSweep, n: int32(n), start: start, end: t.rec.now()})
	return n
}

// tracedWALStore adds the WALStats forwarder the engine looks for, so a
// decorated durable store still reads as durable in Engine.Stats. It is
// a separate type because a decorated memory store must not.
type tracedWALStore struct {
	tracedStore
	wal *engine.WALStore
}

func (t *tracedWALStore) WALStats() engine.WALStats { return t.wal.WALStats() }

// middleware records the api span around the whole of
// api.Server.ServeHTTP.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := span{kind: spAPI, req: req.Header.Get(reqHeader)}
		rest, isOp := strings.CutPrefix(req.URL.Path, "/v1/operations")
		switch {
		case !isOp:
		case rest == "" && req.Method == http.MethodPost:
			s.route = rtSubmit
		case rest == "":
			s.route = rtList
		case req.Method == http.MethodDelete:
			s.route, s.id = rtCancel, rest[1:]
		case strings.Contains(req.URL.RawQuery, "wait=true"):
			s.route, s.id = rtGetWait, rest[1:]
		default:
			s.route, s.id = rtGet, rest[1:]
		}
		s.start = r.now()
		next.ServeHTTP(w, req)
		s.end = r.now()
		r.add(s)
	})
}

// registerKinds installs bench-owned twins of the daemon's noop, echo
// and sleep handlers. With a recorder each run records a handler span,
// whose start closes the engine's queue wait and whose end opens its
// finish.
func registerKinds(eng *engine.Engine, rec *recorder) {
	wrap := func(h engine.Handler) engine.Handler {
		if rec == nil {
			return h
		}
		return func(ctx context.Context, op *core.Operation) (any, error) {
			start := rec.now()
			res, err := h(ctx, op)
			rec.add(span{kind: spHandler, start: start, end: rec.now(), id: op.ID})
			return res, err
		}
	}
	eng.Register("noop", wrap(func(context.Context, *core.Operation) (any, error) {
		return map[string]any{"ok": true}, nil
	}))
	eng.Register("echo", wrap(func(_ context.Context, op *core.Operation) (any, error) {
		return op.Params, nil
	}))
	eng.Register("sleep", wrap(func(ctx context.Context, op *core.Operation) (any, error) {
		ms, ok := op.Params["ms"].(float64)
		if !ok || ms < 0 || ms > 60_000 {
			return nil, &core.InvalidError{Field: "ms", Reason: "must be a number between 0 and 60000"}
		}
		select {
		case <-time.After(time.Duration(ms) * time.Millisecond):
			return map[string]any{"slept_ms": ms}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}), engine.WithDeadline(90*time.Second))
}

// stack is the daemon's layers assembled in-process.
type stack struct {
	eng  *engine.Engine
	wal  *engine.WALStore // nil on the memory store
	srv  *http.Server
	addr string
	errc chan error
}

// newStack builds store, engine and api with the daemon's settings for
// the workload and serves them on a loopback port. With a recorder the
// store is decorated, the handlers record spans and the middleware
// wraps the api; without one nothing of the bench sits in the path.
func newStack(workload, walDir string, rec *recorder) (*stack, error) {
	s := &stack{errc: make(chan error, 1)}
	var store engine.Store
	if workload == wSubmitWAL {
		ws, err := engine.OpenWALStore(engine.WALConfig{Dir: walDir, Sync: engine.WALSyncGroup})
		if err != nil {
			return nil, fmt.Errorf("opening wal store: %w", err)
		}
		s.wal, store = ws, ws
		if rec != nil {
			store = &tracedWALStore{tracedStore{ws, rec}, ws}
		}
	} else {
		store = engine.NewShardedStore(engine.DefaultShardCount())
		if rec != nil {
			store = &tracedStore{store, rec}
		}
	}
	s.eng = engine.New(engine.Config{
		Workers:    8,
		QueueDepth: 1024,
		Store:      store,
		OpTTL:      2 * time.Second,
		GCInterval: time.Second,
	})
	registerKinds(s.eng, rec)
	var handler http.Handler = api.New(s.eng)
	if rec != nil {
		handler = rec.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := s.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.errc <- err
			return
		}
		s.errc <- nil
	}()
	return s, nil
}

// close stops the server, drains the engine and closes the log.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.srv != nil {
		_ = s.srv.Shutdown(ctx) // best effort: the run is over
		<-s.errc
	}
	_ = s.eng.Shutdown(ctx) // a cancelled sleep op may outlive the budget; nothing to report
	if s.wal != nil {
		_ = s.wal.Close() // the directory is deleted next
	}
}

// writeSpans dumps spans as JSONL: name, start, end (ns since the run's
// epoch) and the identifiers that tie a span to the one that caused it.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		line := struct {
			Name  string `json:"name"`
			Start int64  `json:"start_ns"`
			End   int64  `json:"end_ns"`
			Op    string `json:"op,omitempty"`
			Req   string `json:"req,omitempty"`
			N     int32  `json:"n,omitempty"`
		}{spanNames[s.kind], s.start, s.end, s.id, s.req, s.n}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return fmt.Errorf("writing span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span file: %w", err)
	}
	return f.Close()
}
