package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// actionTrace renders the first n draws of one client's sequence.
func actionTrace(seed int64, client, n int) []byte {
	var b bytes.Buffer
	rng := clientRand(seed, client)
	for i := 0; i < n; i++ {
		a := drawAction(rng)
		fmt.Fprintf(&b, "%d:%d\n", a.kind, a.n)
	}
	return b.Bytes()
}

func TestSameSeedSameActions(t *testing.T) {
	a, b := actionTrace(7, 1, 10_000), actionTrace(7, 1, 10_000)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed and client drew different action sequences")
	}
	if bytes.Equal(a, actionTrace(8, 1, 10_000)) {
		t.Error("a different seed drew the same sequence")
	}
	if bytes.Equal(a, actionTrace(7, 0, 10_000)) {
		t.Error("two clients of one seed drew the same sequence")
	}
	// The mix is the documented one, within sampling error.
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(a)), "\n") {
		counts[line[:1]]++
	}
	for kind, want := range map[uint8]int{kEcho: 8700, kSleep: 200, kCancel: 100, kList: 1000} {
		got := counts[fmt.Sprint(kind)]
		if got < want*8/10 || got > want*12/10 {
			t.Errorf("%s drawn %d times in 10000, want about %d", kindName(kind), got, want)
		}
	}
}

func TestSameSeedSameSubmitBodies(t *testing.T) {
	a, b := submitBodies(clientRand(3, 0), 8), submitBodies(clientRand(3, 0), 8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between two builds of one seed", i)
		}
		if len(a[i]) != len(a[0]) {
			t.Errorf("body %d is %d bytes, body 0 is %d: request sizes must not vary", i, len(a[i]), len(a[0]))
		}
	}
}

// logBytes concatenates a WAL directory's files in name order.
func logBytes(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var all []byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, raw...)
	}
	return all
}

func TestSameSeedSamePreload(t *testing.T) {
	dir := t.TempDir()
	a, err := buildPreload(filepath.Join(dir, "a"), 5, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildPreload(filepath.Join(dir, "b"), 5, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := logBytes(t, b.dir), logBytes(t, a.dir); !bytes.Equal(got, want) {
		t.Errorf("two preloads of one seed differ: %d vs %d bytes", len(got), len(want))
	}
	if len(a.queued) != 100 || len(a.running) != 21 {
		t.Errorf("2000-operation preload leaves %d queued and %d running, want 100 and 21", len(a.queued), len(a.running))
	}
	c, err := buildPreload(filepath.Join(dir, "c"), 6, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(logBytes(t, c.dir), logBytes(t, a.dir)) {
		t.Error("a different seed wrote the same log")
	}
}

func TestClientReadsBothBodyFramings(t *testing.T) {
	big := strings.Repeat("x", 70_000) // several chunks, larger than the read buffer
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(reqHeader) == "" || r.Header.Get("X-Client-Id") != "bench-9" {
			http.Error(w, "missing bench headers", http.StatusBadRequest)
			return
		}
		switch r.URL.Path {
		case "/length":
			w.Header().Set("Content-Length", "5")
			fmt.Fprint(w, "hello")
		case "/chunked":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, big[:10])
			w.(http.Flusher).Flush()
			fmt.Fprint(w, big[10:])
		case "/empty":
			w.WriteHeader(http.StatusNoContent)
		case "/close":
			w.Header().Set("Connection", "close")
			fmt.Fprint(w, "bye")
		}
	}))
	defer srv.Close()
	c := newHTTPClient(strings.TrimPrefix(srv.URL, "http://"), "bench-9")
	defer c.close()
	for _, tc := range []struct {
		path   string
		status int
		body   string
	}{
		{"/length", 200, "hello"},
		{"/chunked", 202, big},
		{"/length", 200, "hello"}, // the connection survives a chunked reply
		{"/close", 200, "bye"},
		{"/length", 200, "hello"}, // and is redialled after Connection: close
	} {
		status, body, err := c.do(http.MethodPost, tc.path, []byte(`{"k":1}`))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if status != tc.status || string(body) != tc.body {
			t.Errorf("%s: got %d with %d bytes, want %d with %d bytes", tc.path, status, len(body), tc.status, len(tc.body))
		}
	}
	if _, _, err := c.do(http.MethodGet, "/empty", nil); err == nil {
		t.Error("a reply without a body framing was accepted")
	}
}

func TestReplyScanning(t *testing.T) {
	batch := []byte(`{"type":"async","status":"Accepted","status_code":202,"result":[` +
		`{"type":"async","location":"/v1/operations/0123456789abcdef0123456789abcdef","result":{"id":"0123456789abcdef0123456789abcdef","kind":"noop"}},` +
		`{"type":"async","location":"/v1/operations/fedcba9876543210fedcba9876543210","result":{"id":"fedcba9876543210fedcba9876543210","kind":"noop"}}]}`)
	ids := scanIDs(nil, batch)
	if err := checkIDs(ids, 2); err != nil {
		t.Errorf("well-formed batch reply: %v", err)
	}
	if checkIDs(ids, 3) == nil {
		t.Error("a short reply passed")
	}
	if checkIDs([]string{ids[0], ids[0]}, 2) == nil {
		t.Error("duplicate ids passed")
	}
	if checkIDs([]string{"0123456789ABCDEF0123456789abcdef"}, 1) == nil {
		t.Error("an upper-case id passed")
	}

	done := []byte(`{"type":"sync","status":"OK","status_code":200,"result":{"id":"0123456789abcdef0123456789abcdef","kind":"echo","params":{"c":1,"n":123456},"status":"done","result":{"c":1,"n":123456},"priority":"normal"}}`)
	op, err := decodeOp(done)
	if err != nil || op.Status != "done" || op.Result != `{"c":1,"n":123456}` || op.Error != "" {
		t.Errorf("done reply decoded as %+v, %v", op, err)
	}
	cancelled := []byte(`{"type":"sync","status":"OK","status_code":200,"result":{"id":"0123456789abcdef0123456789abcdef","kind":"sleep","params":{"ms":1000},"status":"cancelled","error":"operation cancelled"}}`)
	op, err = decodeOp(cancelled)
	if err != nil || op.Status != "cancelled" || op.Result != "" || op.Error != "operation cancelled" {
		t.Errorf("cancelled reply decoded as %+v, %v", op, err)
	}
	if _, err := decodeOp([]byte(`{"type":"error","status":"Not Found","status_code":404,"result":{"message":"operation not found"}}`)); err == nil {
		t.Error("an error envelope decoded as an operation")
	}
}
