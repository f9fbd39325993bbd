package api

import (
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"sync"

	"opdaemon/internal/core"
)

// Response is the JSON envelope wrapping every API reply, following
// the snapd REST convention: type is "sync" for immediate results,
// "async" for accepted background operations, and "error" for
// failures. Status is the HTTP status text and StatusCode mirrors the
// HTTP code so clients can log the body alone.
type Response struct {
	Type       string `json:"type"`
	Status     string `json:"status"`
	StatusCode int    `json:"status_code"`
	Result     any    `json:"result"`
}

const (
	typeSync  = "sync"
	typeAsync = "async"
	typeError = "error"
)

// bufferPool holds the byte buffers request bodies are read into and
// replies are built in. A buffer that grew past maxPooledBuffer (a long
// list page, a near-limit body) is dropped instead of pinning that much
// memory per idle pool slot.
var bufferPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxPooledBuffer = 64 << 10

func getBuffer() *[]byte { return bufferPool.Get().(*[]byte) }

func putBuffer(b *[]byte) {
	if cap(*b) <= maxPooledBuffer {
		bufferPool.Put(b)
	}
}

// jsonContentType is the Content-Type value of every reply. Assigning
// the shared slice saves the one-element slice Header.Set allocates per
// reply; nothing writes through a header's value slice.
var jsonContentType = []string{"application/json"}

// writeJSON encodes the envelope into a pooled buffer and replies with
// it, plus any extra headers, in one Write. Headers are only applied
// after a successful encode so the fallback error response doesn't
// carry headers describing the reply that failed (e.g. a Location for
// an async result).
func writeJSON(w http.ResponseWriter, code int, resp *Response, headers map[string]string) {
	buf := getBuffer()
	defer putBuffer(buf)
	body, err := appendEnvelope((*buf)[:0], resp)
	if err != nil {
		// A handler produced a result json cannot represent; keep
		// the envelope contract with a 500 error instead of sending
		// a success header with an empty body. Error envelopes only
		// contain strings, so this cannot recurse.
		log.Printf("api: encoding %s response: %v", resp.Type, err)
		writeError(w, http.StatusInternalServerError, "response not serializable")
		return
	}
	*buf = body
	for k, v := range headers {
		w.Header().Set(k, v)
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		log.Printf("api: writing response: %v", err)
	}
}

// appendEnvelope appends the reply body: byte for byte what
// json.Marshal(resp) produces, plus the closing newline. The four
// envelope fields are written by hand and operations go through
// core's append codec — the replies on the accept→terminal path never
// touch reflection. Every other result (health, notices, errors) is
// marshalled on its own and spliced in.
func appendEnvelope(dst []byte, resp *Response) ([]byte, error) {
	dst = appendEnvelopeHead(dst, resp.Type, resp.Status, resp.StatusCode)
	dst = append(dst, `,"result":`...)
	var err error
	switch result := resp.Result.(type) {
	case *core.Operation:
		if dst, err = result.AppendJSON(dst); err != nil {
			return nil, err
		}
	case []*core.Operation:
		if result == nil {
			dst = append(dst, "null"...)
			break
		}
		dst = append(dst, '[')
		for i, op := range result {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = op.AppendJSON(dst); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	case batchAccepted:
		dst = append(dst, '[')
		for i, op := range result {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendEnvelopeHead(dst, typeAsync, http.StatusText(http.StatusAccepted), http.StatusAccepted)
			dst = append(dst, `,"location":`...)
			if core.ValidID(op.ID) {
				// Hex needs no escaping: spare the poll URL's string.
				dst = append(dst, '"')
				dst = append(dst, operationsPath...)
				dst = append(dst, op.ID...)
				dst = append(dst, '"')
			} else {
				dst = core.AppendJSONString(dst, resourcePath(op))
			}
			dst = append(dst, `,"result":`...)
			if dst, err = op.AppendJSON(dst); err != nil {
				return nil, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	default:
		b, err := json.Marshal(result)
		if err != nil {
			return nil, err
		}
		dst = append(dst, b...)
	}
	return append(dst, '}', '\n'), nil
}

// appendEnvelopeHead opens an envelope object with the three fields
// every envelope starts with.
func appendEnvelopeHead(dst []byte, typ, status string, code int) []byte {
	dst = append(dst, `{"type":`...)
	dst = core.AppendJSONString(dst, typ)
	dst = append(dst, `,"status":`...)
	dst = core.AppendJSONString(dst, status)
	dst = append(dst, `,"status_code":`...)
	return strconv.AppendInt(dst, int64(code), 10)
}

// writeSync replies with a 200-style synchronous result envelope.
func writeSync(w http.ResponseWriter, code int, result any) {
	writeJSON(w, code, &Response{
		Type:       typeSync,
		Status:     http.StatusText(code),
		StatusCode: code,
		Result:     result,
	}, nil)
}

// writeAsync replies 202 Accepted with the operation snapshot and sets
// the Location header to the operation's poll URL.
func writeAsync(w http.ResponseWriter, location string, result any) {
	writeJSON(w, http.StatusAccepted, &Response{
		Type:       typeAsync,
		Status:     http.StatusText(http.StatusAccepted),
		StatusCode: http.StatusAccepted,
		Result:     result,
	}, map[string]string{"Location": location})
}

// batchAccepted is the result of an accepted batch: encoded as one
// async envelope per operation, each mirroring the top-level envelope
// and carrying its own "location", because a single Location header
// cannot point at many operations.
type batchAccepted []*core.Operation

// writeBatchAsync replies 202 Accepted with one async envelope per
// accepted operation, in batch order. No Location header is set; each
// item embeds its own poll URL.
func writeBatchAsync(w http.ResponseWriter, ops []*core.Operation) {
	writeJSON(w, http.StatusAccepted, &Response{
		Type:       typeAsync,
		Status:     http.StatusText(http.StatusAccepted),
		StatusCode: http.StatusAccepted,
		Result:     batchAccepted(ops),
	}, nil)
}

// errorResult is the result payload of an error envelope.
type errorResult struct {
	Message string `json:"message"`
}

// batchErrorResult is the result payload when a batch submission fails
// validation: a summary message plus every invalid item, so the client
// can repair the whole batch in one round trip.
type batchErrorResult struct {
	Message string           `json:"message"`
	Items   []batchItemError `json:"items"`
}

// batchItemError names one invalid batch element by its zero-based
// position in the submitted array.
type batchItemError struct {
	Index   int    `json:"index"`
	Message string `json:"message"`
}

// writeBatchError replies 400 with an error envelope listing every
// invalid item of a rejected batch.
func writeBatchError(w http.ResponseWriter, berr *core.BatchError) {
	items := make([]batchItemError, len(berr.Items))
	for i, it := range berr.Items {
		items[i] = batchItemError{Index: it.Index, Message: it.Err.Error()}
	}
	writeJSON(w, http.StatusBadRequest, &Response{
		Type:       typeError,
		Status:     http.StatusText(http.StatusBadRequest),
		StatusCode: http.StatusBadRequest,
		Result:     batchErrorResult{Message: berr.Error(), Items: items},
	}, nil)
}

// writeError replies with an error envelope carrying a client-safe
// message.
func writeError(w http.ResponseWriter, code int, message string) {
	writeErrorHeaders(w, code, message, nil)
}

// writeErrorHeaders is writeError plus extra response headers, for
// error replies that carry metadata (429's Retry-After).
func writeErrorHeaders(w http.ResponseWriter, code int, message string, headers map[string]string) {
	writeJSON(w, code, &Response{
		Type:       typeError,
		Status:     http.StatusText(code),
		StatusCode: code,
		Result:     errorResult{Message: message},
	}, headers)
}
