// Package api exposes the operation engine over HTTP with snapd-style
// JSON envelopes. Every response is one of three shapes — sync, async,
// or error — documented in docs/api.md.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strconv"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// maxBodyBytes bounds request bodies so a misbehaving client cannot
// exhaust memory.
const maxBodyBytes = 1 << 20

// Server routes v1 API requests to an engine.
type Server struct {
	engine *engine.Engine
	mux    *http.ServeMux
	// maxWait is MaxWait; tests shorten it.
	maxWait time.Duration
	// trustClientHeader controls whether X-Client-Id is honoured for
	// scheduler client attribution. See WithClientHeaderTrust.
	trustClientHeader bool
}

// New builds the API server around an engine.
func New(e *engine.Engine, opts ...Option) *Server {
	s := &Server{engine: e, mux: http.NewServeMux(), maxWait: MaxWait, trustClientHeader: true}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /v1/health", s.health)
	s.mux.HandleFunc("POST /v1/operations", s.submit)
	s.mux.HandleFunc("GET /v1/operations", s.list)
	s.mux.HandleFunc("GET /v1/operations/{id}", s.get)
	s.mux.HandleFunc("DELETE /v1/operations/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/notices", s.notices)
	s.mux.HandleFunc("GET /v1/metrics", s.metrics)
	// Method-less fallbacks so a wrong verb on a known path yields a
	// 405 envelope instead of falling through to the 404 handler.
	s.mux.HandleFunc("/v1/health", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/operations", methodNotAllowed("GET, POST"))
	s.mux.HandleFunc("/v1/operations/{id}", methodNotAllowed("GET, DELETE"))
	s.mux.HandleFunc("/v1/notices", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/metrics", methodNotAllowed("GET"))
	s.mux.HandleFunc("/", s.notFound)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) health(w http.ResponseWriter, _ *http.Request) {
	// Saturation numbers ride along with the liveness bit so clients
	// and operators can see queue pressure without a metrics stack.
	// Stats is embedded, so every field it has (or gains) is reported
	// under its own JSON tag.
	reply(w, http.StatusOK, struct {
		Healthy bool     `json:"healthy"`
		Kinds   []string `json:"kinds"`
		engine.Stats
	}{true, s.engine.Kinds(), s.engine.Stats()}, "")
}

// Option tunes a Server.
type Option func(*Server)

// WithClientHeaderTrust controls whether the scheduler's client
// attribution honours the X-Client-Id request header (the default).
// The header is unauthenticated, so a greedy client can randomize it
// per request to mint itself a fresh fair-queueing share each time;
// deployments serving untrusted clients should pass false to key
// solely on the remote host, which a client cannot cheaply multiply.
// See docs/scheduling.md for the trust model.
func WithClientHeaderTrust(trust bool) Option {
	return func(s *Server) { s.trustClientHeader = trust }
}

// maxClientIDBytes bounds a trusted X-Client-Id. The key is stored on
// every operation of the request and journaled once per WAL record, so
// an unbounded header would multiply into the log by the batch size.
const maxClientIDBytes = 256

// clientKey attributes a request to a client for the scheduler's fair
// queueing: the X-Client-Id header when present and trusted (see
// WithClientHeaderTrust), else the remote host (port stripped, so one
// client's connections pool into one queue). A trusted header longer
// than maxClientIDBytes is answered 400 and reported !ok.
func (s *Server) clientKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	if s.trustClientHeader {
		key := r.Header.Get("X-Client-Id")
		if len(key) > maxClientIDBytes {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("X-Client-Id longer than %d bytes", maxClientIDBytes))
			return "", false
		}
		if key != "" {
			return key, true
		}
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host, true
	}
	return r.RemoteAddr, true
}

// submitRequest is one operation in the body of POST /v1/operations,
// either the whole body (single submission) or one array element
// (batch submission). Its tags are the request format: core.DecodeSubmit
// reads the same shape without reflection, and declines to
// json.Unmarshal into this type whatever it is not sure about.
type submitRequest struct {
	Kind   string         `json:"kind"`
	Params map[string]any `json:"params"`
	// Priority selects the scheduling band (low/normal/high). Absent
	// means normal; unknown values are rejected by the engine with a
	// 400.
	Priority core.Priority `json:"priority"`
}

// decodeSubmit decodes a submit body into engine items; batch reports
// whether it was a JSON array. Every error is json.Unmarshal's.
func decodeSubmit(body []byte) (items []engine.BatchItem, batch bool, err error) {
	if items, batch, ok := core.DecodeSubmit(body); ok {
		return items, batch, nil
	}
	return decodeSubmitReflect(body)
}

// decodeSubmitReflect is the reference decoder: the only producer of
// 400 texts and the only judge of exotic input (escapes, non-ASCII,
// duplicate, unknown or differently-cased keys, nulls).
func decodeSubmitReflect(body []byte) (items []engine.BatchItem, batch bool, err error) {
	if isJSONArray(body) {
		var reqs []submitRequest
		if err := json.Unmarshal(body, &reqs); err != nil {
			return nil, true, err
		}
		items = make([]engine.BatchItem, len(reqs))
		for i, req := range reqs {
			items[i] = engine.BatchItem(req)
		}
		return items, true, nil
	}
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, false, err
	}
	return []engine.BatchItem{engine.BatchItem(req)}, false, nil
}

// isJSONArray reports whether the body's first non-whitespace byte
// opens a JSON array, distinguishing batch from single submissions
// without parsing the body twice.
func isJSONArray(body []byte) bool {
	for _, b := range body {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		default:
			return b == '['
		}
	}
	return false
}

// submit handles POST /v1/operations. A body that is a JSON array is a
// batch: every element is validated, the batch is enqueued atomically,
// and the reply carries one async envelope per item (or one error
// envelope naming every invalid item).
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	client, ok := s.clientKey(w, r)
	if !ok {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := getBuffer()
	defer putBuffer(buf)
	body, err := readBody(r.Body, (*buf)[:0], r.ContentLength)
	*buf = body // hand a grown buffer back to the pool, not the old one
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		writeError(w, http.StatusBadRequest, "reading request body")
		return
	}
	// Nothing decoded aliases body, so it can go back to the pool when
	// this returns.
	items, batch, err := decodeSubmit(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed JSON body: %v", err))
		return
	}
	// Both body shapes take the batch path. Empty and oversized batches
	// are the engine's call (it knows the queue capacity); both surface
	// as InvalidError → 400.
	ops, err := s.engine.SubmitBatch(r.Context(), items, engine.AsClient(client))
	if err != nil {
		if !batch {
			// A single body reports its one item's error as its own,
			// not as a batch rejection.
			err = core.UnwrapSingle(err)
		}
		s.writeEngineError(w, err)
		return
	}
	if batch {
		reply(w, http.StatusAccepted, batchAccepted(ops), "")
		return
	}
	reply(w, http.StatusAccepted, ops[0], resourcePath(ops[0]))
}

// readBody reads r to its end into buf, which it grows as needed — up
// front when the request announced its length, so the usual body costs
// one Read and no reallocation.
func readBody(r io.Reader, buf []byte, contentLength int64) ([]byte, error) {
	if contentLength > 0 && contentLength <= maxBodyBytes {
		// One spare byte: a reader that reports EOF only on a further
		// call still finds room, so the buffer is not grown for it.
		buf = slices.Grow(buf, int(contentLength)+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wait, timeout, ok := s.waitParams(w, r)
	if !ok {
		return
	}
	if wait {
		// Long-poll: block until the operation's state changes, the
		// timeout expires, or the client disconnects. See watch.go.
		s.getWait(w, r, id, timeout)
		return
	}
	op, err := s.engine.Get(id)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	reply(w, http.StatusOK, op, "")
}

// cancel aborts the operation: queued operations go straight to
// cancelled, running ones have their context cancelled and settle as
// cancelled once the handler returns. Cancellation is asynchronous, so
// the reply is an async envelope whose Location is the poll URL.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	op, err := s.engine.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	reply(w, http.StatusAccepted, op, resourcePath(op))
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query()
	var status core.Status
	if raw := query.Get("status"); raw != "" {
		var ok bool
		if status, ok = statusParam(w, raw); !ok {
			return
		}
	}
	// limit caps the reply at the N newest matches; absent means
	// unbounded, for compatibility with pre-limit clients.
	limit, ok := limitParam(w, query.Get("limit"))
	if !ok {
		return
	}
	// cursor resumes listing strictly after the named operation (pass
	// the id of the previous page's last element). It is opaque but
	// shape-checked here so a mangled value is a client error rather
	// than a silently empty page; a well-formed cursor whose operation
	// has been TTL-evicted legitimately yields an empty page — the
	// client fell behind retention and restarts from the top.
	cursor := query.Get("cursor")
	if cursor != "" && !core.ValidID(cursor) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed cursor %q", cursor))
		return
	}
	ops, err := s.engine.List(engine.ListQuery{Status: status, Cursor: cursor, Limit: limit})
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	reply(w, http.StatusOK, ops, "")
}

// statusParam validates one status filter value; an unknown one is
// answered 400 and reported !ok.
func statusParam(w http.ResponseWriter, raw string) (core.Status, bool) {
	st := core.Status(raw)
	if !st.Valid() {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown status filter %q", raw))
		return "", false
	}
	return st, true
}

// limitParam parses the optional limit parameter: 0 when absent (raw
// empty), else a positive integer; anything else is answered 400 and
// reported !ok.
func limitParam(w http.ResponseWriter, raw string) (int, bool) {
	if raw == "" {
		return 0, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("limit must be a positive integer, got %q", raw))
		return 0, false
	}
	return n, true
}

// operationsPath prefixes an operation's poll URL; it lives here, next
// to the mux patterns it must stay in sync with.
const operationsPath = "/v1/operations/"

// resourcePath is the poll URL for an operation.
func resourcePath(op *core.Operation) string {
	return operationsPath + op.ID
}

func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path))
	}
}

func (s *Server) notFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path))
}

// writeEngineError maps engine and core errors onto HTTP codes. It is
// a Server method because the queue-full reply consults the engine for
// its Retry-After estimate.
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	var inv *core.InvalidError
	var batch *core.BatchError
	switch {
	case errors.As(err, &batch):
		writeBatchError(w, batch)
	case errors.As(err, &inv):
		writeError(w, http.StatusBadRequest, inv.Error())
	case errors.Is(err, core.ErrUnknownKind):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, core.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, core.ErrAlreadyTerminal):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, core.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, core.ErrQueueFull):
		// "Come back later": Retry-After carries the engine's
		// depth-over-drain-rate estimate of when the queue will have
		// room, in whole seconds per RFC 9110. It is set before the
		// envelope is encoded: an error envelope holds only strings, so
		// its encode cannot fail over to a reply the header misdescribes.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.engine.RetryAfter().Seconds())))
		writeError(w, http.StatusTooManyRequests, err.Error())
	default:
		// A store failure, such as a WAL write error; the client gets
		// an opaque 500, so the log is the only trace.
		log.Printf("api: internal error: %v", err)
		writeError(w, http.StatusInternalServerError, "internal error")
	}
}
