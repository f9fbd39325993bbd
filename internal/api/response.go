package api

import (
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"sync"

	"opdaemon/internal/core"
)

// Every reply is a JSON envelope, following the snapd REST convention:
// {"type", "status", "status_code", "result"}. All three leading fields
// follow from the HTTP code: type is "sync" for an immediate result,
// "async" for an accepted background operation (202) and "error" from
// 400 up, status is the code's status text, and status_code mirrors the
// code so clients can log the body alone.
const (
	typeSync  = "sync"
	typeAsync = "async"
	typeError = "error"
)

// envelopeType is the envelope type of a reply with this HTTP code.
func envelopeType(code int) string {
	switch {
	case code == http.StatusAccepted:
		return typeAsync
	case code >= http.StatusBadRequest:
		return typeError
	}
	return typeSync
}

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

// reply encodes the envelope of code around result into a pooled buffer
// and sends it in one Write. A non-empty location is the Location header
// of an async reply, set only after a successful encode so the fallback
// error reply doesn't carry a poll URL for the reply that failed.
func reply(w http.ResponseWriter, code int, result any, location string) {
	buf := getBuffer()
	defer putBuffer(buf)
	body, err := appendEnvelope((*buf)[:0], code, result)
	if err != nil {
		// A handler produced a result json cannot represent; keep
		// the envelope contract with a 500 error instead of sending
		// a success header with an empty body. Error envelopes only
		// contain strings, so this cannot recurse.
		log.Printf("api: encoding %s response: %v", envelopeType(code), err)
		writeError(w, http.StatusInternalServerError, "response not serializable")
		return
	}
	*buf = body
	h := w.Header()
	if location != "" {
		h.Set("Location", location)
	}
	h["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		log.Printf("api: writing response: %v", err)
	}
}

// appendEnvelope appends the reply body of code around result: byte for
// byte what json.Marshal of the envelope produces, plus the closing
// newline. The four envelope fields are written by hand and operations go through
// core's append codec — the replies on the accept→terminal path never
// touch reflection. Every other result (health, notices, errors) is
// marshalled on its own and spliced in.
func appendEnvelope(dst []byte, code int, result any) ([]byte, error) {
	dst = appendEnvelopeHead(dst, code)
	dst = append(dst, `,"result":`...)
	var err error
	switch result := result.(type) {
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
			dst = appendEnvelopeHead(dst, http.StatusAccepted)
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
// every envelope starts with, all derived from code.
func appendEnvelopeHead(dst []byte, code int) []byte {
	dst = append(dst, `{"type":`...)
	dst = core.AppendJSONString(dst, envelopeType(code))
	dst = append(dst, `,"status":`...)
	dst = core.AppendJSONString(dst, http.StatusText(code))
	dst = append(dst, `,"status_code":`...)
	return strconv.AppendInt(dst, int64(code), 10)
}

// batchAccepted is the result of an accepted batch: encoded as one
// async envelope per operation, each mirroring the top-level envelope
// and carrying its own "location", because a single Location header
// cannot point at many operations.
type batchAccepted []*core.Operation

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
	reply(w, http.StatusBadRequest, batchErrorResult{Message: berr.Error(), Items: items}, "")
}

// writeError replies with an error envelope carrying a client-safe
// message.
func writeError(w http.ResponseWriter, code int, message string) {
	reply(w, code, errorResult{Message: message}, "")
}
