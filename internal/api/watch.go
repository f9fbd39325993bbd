package api

// The push read path over HTTP: ?wait=true long-polls on
// GET /v1/operations/{id}, and GET /v1/notices serves the cursor-based
// state-transition feed. Both block server-side in the engine's
// waiter table / notices ring and return on state change, timeout
// (200 with the current snapshot — a timeout is a normal "nothing
// happened yet", not an error), or client disconnect (r.Context();
// nothing is written, the connection is already gone).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

const (
	// defaultWait is the long-poll timeout when ?wait=true is given
	// without ?timeout=.
	defaultWait = 30 * time.Second
	// MaxWait bounds client-requested long-poll timeouts; longer
	// requests are clamped, not rejected, so clients need not know the
	// server's bound. An HTTP server's write timeout must outlast it.
	MaxWait = 60 * time.Second
)

// waitParams parses the shared long-poll query parameters. On a
// malformed value it writes the 400 envelope and reports ok=false.
// ?timeout= is parsed (and validated) even without ?wait=true, so a
// client that mistyped wait= still learns about a bad timeout.
func (s *Server) waitParams(w http.ResponseWriter, r *http.Request) (wait bool, timeout time.Duration, ok bool) {
	query := r.URL.Query()
	switch v := query.Get("wait"); v {
	case "", "false", "0":
	case "true", "1":
		wait = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("wait must be true or false, got %q", v))
		return false, 0, false
	}
	timeout = defaultWait
	if raw := query.Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("timeout must be a positive duration like 30s, got %q", raw))
			return false, 0, false
		}
		timeout = d
	}
	if timeout > s.maxWait {
		timeout = s.maxWait
	}
	return wait, timeout, true
}

// getWait is the long-poll arm of GET /v1/operations/{id}: it blocks
// until the operation leaves the state it is in now, the timeout
// expires (200 with the unchanged snapshot), or the client goes away.
// Unknown IDs are a 404 exactly as without wait — there is nothing to
// wait for on an operation that does not exist.
func (s *Server) getWait(w http.ResponseWriter, r *http.Request, id string, timeout time.Duration) {
	op, err := s.engine.Get(id)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	if op.Status.Terminal() {
		// Terminal states never change; waiting would always time out.
		writeSync(w, http.StatusOK, op)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	next, err := s.engine.AwaitChange(ctx, id, op.Status)
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// Client disconnected (or the server is draining): the
			// waiter is already deregistered, and there is nobody left
			// to write a response to.
		case errors.Is(err, context.DeadlineExceeded):
			// Long-poll timeout: report the current snapshot with 200 —
			// "no change yet" is a normal outcome the client re-polls
			// from, not an error.
			cur, gerr := s.engine.Get(id)
			if gerr != nil {
				// Evicted while we waited; now it IS a 404.
				s.writeEngineError(w, gerr)
				return
			}
			writeSync(w, http.StatusOK, cur)
		default:
			s.writeEngineError(w, err)
		}
		return
	}
	writeSync(w, http.StatusOK, next)
}

// notices serves GET /v1/notices: the retained state-transition feed
// from cursor `after`, optionally long-polling until something newer
// matches. Responses are oldest-first; the client advances after= to
// the last seq it received.
func (s *Server) notices(w http.ResponseWriter, r *http.Request) {
	wait, timeout, ok := s.waitParams(w, r)
	if !ok {
		return
	}
	query := r.URL.Query()
	var after uint64
	if raw := query.Get("after"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("after must be a non-negative integer cursor, got %q", raw))
			return
		}
		after = n
	}
	var statuses []core.Status
	for _, raw := range query["status"] {
		st, ok := statusParam(w, raw)
		if !ok {
			return
		}
		statuses = append(statuses, st)
	}
	limit, ok := limitParam(w, query.Get("limit"))
	if !ok {
		return
	}
	nq := engine.NoticeQuery{
		After:    after,
		Kinds:    query["kind"],
		Statuses: statuses,
		Limit:    limit,
	}

	if !wait {
		writeNotices(w, s.engine.Notices(nq))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ns, err := s.engine.AwaitNotices(ctx, nq)
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// Client gone; nothing to write.
		case errors.Is(err, context.DeadlineExceeded):
			// Caught up for the whole window: an empty page with 200,
			// the client re-polls with the same cursor.
			writeNotices(w, nil)
		default:
			s.writeEngineError(w, err)
		}
		return
	}
	writeNotices(w, ns)
}

// writeNotices emits the page, normalizing nil so an empty feed
// marshals as [] rather than null.
func writeNotices(w http.ResponseWriter, ns []engine.Notice) {
	if ns == nil {
		ns = []engine.Notice{}
	}
	writeSync(w, http.StatusOK, ns)
}
