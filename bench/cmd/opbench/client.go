package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// reqHeader carries the generator's request key ("<client>-<seq>") so
// the traced run can join a client span to the api span it caused. It
// is sent in every mode so traced and untraced traffic are identical.
const reqHeader = "X-Bench-Req"

// httpClient is one closed-loop caller: one keep-alive connection, one
// request in flight. It speaks just enough HTTP/1.1 for the daemon's
// replies (Content-Length or chunked bodies) straight on the socket,
// because net/http's client spends more CPU per request than the
// daemon does, and on a two-core box that CPU comes out of the
// daemon's share. It is not safe for concurrent use.
type httpClient struct {
	addr string
	name string
	seq  int
	conn net.Conn
	br   *bufio.Reader
	out  []byte
	buf  []byte
}

func newHTTPClient(addr, name string) *httpClient {
	return &httpClient{addr: addr, name: name}
}

func (c *httpClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// requestTimeout is longer than the 10 s long-poll timeout the
// lifecycles ask for, so a time-out is the daemon's to report, not the
// socket's.
const requestTimeout = 15 * time.Second

// do sends one request and returns the status and body. The body is
// only valid until the next call. After a transport error the
// connection is dropped and the next call dials a fresh one.
func (c *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	c.seq++
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 32<<10)
	}
	out := append(c.out[:0], method...)
	out = append(out, ' ')
	out = append(out, path...)
	out = append(out, " HTTP/1.1\r\nHost: "...)
	out = append(out, c.addr...)
	out = append(out, "\r\nX-Client-Id: "...)
	out = append(out, c.name...)
	out = append(out, "\r\n"+reqHeader+": "...)
	out = append(out, c.name...)
	out = append(out, '-')
	out = strconv.AppendInt(out, int64(c.seq), 10)
	if body != nil {
		out = append(out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		out = strconv.AppendInt(out, int64(len(body)), 10)
	}
	out = append(out, "\r\n\r\n"...)
	out = append(out, body...)
	c.out = out
	status, reply, err := c.roundTrip(out)
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return status, reply, nil
}

func (c *httpClient) roundTrip(out []byte) (int, []byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(out); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	c.buf = c.buf[:0]
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			hex, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
			size, err := strconv.ParseUint(string(hex), 16, 31)
			if err != nil {
				return 0, nil, fmt.Errorf("malformed chunk size %q", line)
			}
			// A chunk is followed by CRLF; the last (empty) one by the
			// empty trailer section this server sends.
			if err := c.readBody(int(size) + 2); err != nil {
				return 0, nil, err
			}
			c.buf = c.buf[:len(c.buf)-2]
			if size == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("reply has neither Content-Length nor chunked encoding")
	}
	if closing {
		c.close()
	}
	return status, c.buf, nil
}

// readBody appends exactly n bytes of the reply to c.buf.
func (c *httpClient) readBody(n int) error {
	at := len(c.buf)
	if need := at + n; need > cap(c.buf) {
		c.buf = append(make([]byte, 0, 2*need), c.buf...)
	}
	c.buf = c.buf[:at+n]
	_, err := io.ReadFull(c.br, c.buf[at:])
	return err
}

// The replies are read by scanning for keys, not by unmarshalling:
// verifying a 3 KB batch reply or a 20 KB list page then costs the
// generator microseconds, and on a two-core box the generator's CPU
// comes out of the daemon's share. It is sound because the generator
// chooses every params value itself — none contains a quote, a brace
// or one of the scanned keys — so each hit is the daemon's own field.

// scanStrings appends the value of every `"key":"value"` in body.
func scanStrings(dst []string, body []byte, key string) []string {
	pat := []byte(`"` + key + `":"`)
	for {
		i := bytes.Index(body, pat)
		if i < 0 {
			return dst
		}
		body = body[i+len(pat):]
		j := bytes.IndexByte(body, '"')
		if j < 0 {
			return dst
		}
		dst = append(dst, string(body[:j]))
		body = body[j:]
	}
}

// scanIDs appends every operation ID found in a submit reply.
func scanIDs(dst []string, body []byte) []string { return scanStrings(dst, body, "id") }

// validID reports whether id has the shape the daemon mints: 32
// lowercase hex digits. Written out here, not imported, so the check
// cannot drift with the code under test.
func validID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// checkIDs verifies that a submit reply carried exactly want distinct,
// well-formed operation IDs.
func checkIDs(ids []string, want int) error {
	if len(ids) != want {
		return fmt.Errorf("reply carries %d operation ids, want %d", len(ids), want)
	}
	for i, id := range ids {
		if !validID(id) {
			return fmt.Errorf("malformed operation id %q", id)
		}
		for _, prev := range ids[:i] {
			if prev == id {
				return fmt.Errorf("duplicate operation id %q", id)
			}
		}
	}
	return nil
}

// opView is the part of an operation snapshot the checks read.
type opView struct {
	Status string
	Error  string
	Result string // the handler's result, as the JSON object it was sent as
}

// strField is the value of the first `"key":"value"` in body, or "".
func strField(body []byte, key string) string {
	pat := []byte(`"` + key + `":"`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return ""
	}
	body = body[i+len(pat):]
	if j := bytes.IndexByte(body, '"'); j >= 0 {
		return string(body[:j])
	}
	return ""
}

// decodeOp reads a single-operation reply: the envelope's result is
// the operation, whose own status, error and result follow its params.
func decodeOp(body []byte) (opView, error) {
	i := bytes.Index(body, []byte(`"result":{"id":"`))
	if i < 0 {
		return opView{}, fmt.Errorf("reply carries no operation: %.120s", body)
	}
	op := body[i+len(`"result":`):]
	v := opView{Status: strField(op, "status"), Error: strField(op, "error")}
	if v.Status == "" {
		return opView{}, fmt.Errorf("operation carries no status: %.120s", body)
	}
	// Every bench handler returns a flat JSON object, so the result
	// ends at the first closing brace.
	if j := bytes.Index(op, []byte(`"result":{`)); j >= 0 {
		res := op[j+len(`"result":`):]
		if k := bytes.IndexByte(res, '}'); k >= 0 {
			v.Result = string(res[:k+1])
		}
	}
	return v, nil
}

// envelope is the daemon's reply wrapper, for the few replies that are
// decoded in full.
type envelope struct {
	Result json.RawMessage `json:"result"`
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "cancelled"
}

// awaitTerminal long-polls the operation until it settles and returns
// the final snapshot and the number of GETs that took. A long-poll that
// times out server-side (200 with an unchanged snapshot) is simply
// re-issued; limit bounds the whole wait.
func (c *httpClient) awaitTerminal(id string, limit time.Duration) (opView, int, error) {
	deadline := time.Now().Add(limit)
	gets := 0
	for {
		status, body, err := c.do(http.MethodGet, "/v1/operations/"+id+"?wait=true&timeout=10s", nil)
		gets++
		if err != nil {
			return opView{}, gets, err
		}
		if status != http.StatusOK {
			return opView{}, gets, fmt.Errorf("GET operation %s: status %d", id, status)
		}
		op, err := decodeOp(body)
		if err != nil {
			return opView{}, gets, err
		}
		if terminal(op.Status) {
			return op, gets, nil
		}
		if time.Now().After(deadline) {
			return op, gets, fmt.Errorf("operation %s still %s after %s", id, op.Status, limit)
		}
	}
}
