package api

// The wire codec seen from the API: core.DecodeSubmit against the
// reflection decoder it stands in for, the hand-written reply envelope
// against json.Marshal of the structs it replaced, and the 400 texts,
// which must not notice any of it.
//
// make fuzz-smoke runs FuzzDecodeSubmit for 10s; longer local runs:
//
//	go test -fuzz FuzzDecodeSubmit -fuzztime 5m ./internal/api/

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// checkDecodeSubmit holds core.DecodeSubmit to the reference decoder:
// when it accepts, json.Unmarshal into submitRequest accepts too and
// builds the same items. It may decline anything; it may never
// disagree.
func checkDecodeSubmit(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	items, batch, ok := core.DecodeSubmit(body)
	if !ok {
		return false
	}
	want, wantBatch, err := decodeSubmitReflect(body)
	if err != nil {
		t.Fatalf("core.DecodeSubmit accepted %q, json.Unmarshal rejects it: %v", body, err)
	}
	if batch != wantBatch || !reflect.DeepEqual(items, want) {
		t.Fatalf("decoders disagree on %q\n got: %#v (batch %v)\nwant: %#v (batch %v)", body, items, batch, want, wantBatch)
	}
	// DeepEqual calls 0 and -0 equal; their encodings are not.
	for i := range items {
		a, _ := core.AppendJSONValue(nil, items[i].Params)
		b, _ := core.AppendJSONValue(nil, want[i].Params)
		if !bytes.Equal(a, b) {
			t.Fatalf("decoders disagree on %q item %d params: %s vs %s", body, i, a, b)
		}
	}
	return true
}

func FuzzDecodeSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"noop"}`, `[{"kind":"noop","params":{"n":123456}},{"kind":"noop","params":{"n":-7}}]`,
		` { "kind" : "sleep" , "params" : { "ms" : 250 } , "priority" : "high" } `,
		`{"kind":"echo","params":{"a":[1,2.5,-0,0,1e3,1E-2,"s",true,false,null,{"b":{}},[]],"a":2}}`,
		`{"kind":"a","kind":"b"}`, `{"Kind":"a"}`, `{"kind":"a","extra":1}`, `{"kind":"a\u0041"}`, `{"kind":"é"}`,
		`{"kind":null}`, `{"params":null}`, `{"params":[]}`, `{"kind":5}`, `[]`, `[null]`, `[{}]`, `{}`, `null`, ``,
		`{"kind":"a"} x`, `[{"kind":"a"},]`, `{"kind":"a",}`, `{"params":{"x":1e999}}`, `{"params":{"x":01}}`,
		`{"params":{"n":123456789012345678}}`, `{"params":{"n":-0}}`, `{"params":{"n":0.0}}`, "\ufeff{}",
		strings.Repeat(`{"params":{"a":`, 40) + `1` + strings.Repeat(`}}`, 40),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeSubmit(t, body) })
}

// TestDecodeSubmitFastPathAcceptsKnownTraffic: the fast decoder may
// decline anything, so nothing but this test stops it from silently
// declining the traffic it exists for — every request body the API
// document shows, what a json.Marshal client sends, and what the
// opbench generator writes.
func TestDecodeSubmitFastPathAcceptsKnownTraffic(t *testing.T) {
	bodies := map[string]string{
		// A Go client: json.Marshal of {Kind, Params omitempty}, alone or in an array.
		"marshal single":       `{"kind":"noop"}`,
		"marshal sleep params": `{"kind":"sleep","params":{"ms":5}}`,
		"marshal batch":        `[{"kind":"noop"},{"kind":"echo","params":{"ms":5}},{"kind":"sleep","params":{"ms":5}}]`,
		// bench/cmd/opbench: submitBodies and the lifecycle actions.
		"opbench batch":  `[` + strings.Repeat(`{"kind":"noop","params":{"n":123456}},`, 9) + `{"kind":"noop","params":{"n":999999}}]`,
		"opbench echo":   `{"kind":"echo","params":{"c":1,"n":123456}}`,
		"opbench sleep":  `{"kind":"sleep","params":{"ms":1000}}`,
		"priority, nest": `{"kind":"echo","params":{"a":[1,"two",{"three":3.5}],"b":null,"c":true},"priority":"low"}`,
	}
	// docs/api.md: every JSON object or array of objects with a "kind"
	// that is not a reply (no "id", "seq" or "type" beside it).
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatalf("reading the API document: %v", err)
	}
	fenced := regexp.MustCompile("(?s)```[a-z]*\n(.*?)```")
	curlBody := regexp.MustCompile(`-d '([^']+)'`)
	var fromDoc int
	for _, block := range fenced.FindAllSubmatch(doc, -1) {
		text := string(block[1])
		candidates := []string{text}
		for _, m := range curlBody.FindAllStringSubmatch(text, -1) {
			candidates = append(candidates, m[1])
		}
		for _, c := range candidates {
			c = strings.TrimSpace(c)
			if !strings.Contains(c, `"kind"`) || !json.Valid([]byte(c)) ||
				strings.Contains(c, `"id"`) || strings.Contains(c, `"seq"`) || strings.Contains(c, `"type"`) {
				continue
			}
			fromDoc++
			bodies["docs/api.md: "+c] = c
		}
	}
	if fromDoc < 4 {
		t.Errorf("found only %d request bodies in docs/api.md; the extraction above no longer matches the document", fromDoc)
	}
	for name, body := range bodies {
		if !checkDecodeSubmit(t, []byte(body)) {
			t.Errorf("%s: fast decoder declined %s", name, body)
		}
	}
}

// TestBadRequestMessagesUnchanged pins the text of every 400 a submit
// body can draw, as recorded on the commit before the fast decoder
// existed. The JSON errors name the Go request type, so they also pin
// that malformed bodies still reach json.Unmarshal into submitRequest.
func TestBadRequestMessagesUnchanged(t *testing.T) {
	const malformed = "malformed JSON body: "
	for _, tc := range []struct{ body, want string }{
		{`{"kind":`, malformed + "unexpected end of JSON input"},
		{`[{"kind":"echo"},`, malformed + "unexpected end of JSON input"},
		{`{"kind":5}`, malformed + "json: cannot unmarshal number into Go struct field submitRequest.kind of type string"},
		{`[{"kind":"echo","params":[]}]`, malformed + "json: cannot unmarshal array into Go struct field submitRequest.params of type map[string]interface {}"},
		{`{"kind":"echo","priority":7}`, malformed + "json: cannot unmarshal number into Go struct field submitRequest.priority of type core.Priority"},
		{`{"kind":"echo"} x`, malformed + "invalid character 'x' after top-level value"},
		{`[{"kind":"echo"}]]`, malformed + "invalid character ']' after top-level value"},
		{`{"kind":"echo","params":{"x":1e999}}`, malformed + "json: cannot unmarshal number 1e999 into Go struct field submitRequest.params of type float64"},
		{`{kind:"echo"}`, malformed + "invalid character 'k' looking for beginning of object key string"},
		{`nope`, malformed + "invalid character 'o' in literal null (expecting 'u')"},
		{`"echo"`, malformed + "json: cannot unmarshal string into Go value of type api.submitRequest"},
		{`[1]`, malformed + "json: cannot unmarshal number into Go value of type api.submitRequest"},
		{`{"kind":"nope"}`, `unknown operation kind: "nope"`},
		{`{"KIND":"nope"}`, `unknown operation kind: "nope"`},
		{`{"kind":"a","kind":"nope"}`, `unknown operation kind: "nope"`},
		{`{"kind":"\u006eope"}`, `unknown operation kind: "nope"`},
		{`{}`, "invalid kind: must not be empty"},
		{`null`, "invalid kind: must not be empty"},
		{`[]`, "invalid batch: must contain at least one item"},
		{`{"kind":"echo","priority":"urgent"}`, `invalid priority: must be low, normal, or high, got "urgent"`},
		{`[{"kind":"echo"},{"kind":"bogus"},{}]`, "batch rejected: 2 of 3 items invalid"},
	} {
		s, _ := newTestServer(t)
		w, resp := doJSON(t, s, "POST", "/v1/operations", tc.body)
		checkEnvelope(t, w, resp, "error", http.StatusBadRequest)
		result, _ := resp.Result.(map[string]any)
		if got, _ := result["message"].(string); got != tc.want {
			t.Errorf("POST %s: message %q, want %q", tc.body, got, tc.want)
		}
	}
}

// batchItemReference is the struct the batch reply's items were
// marshalled from before the envelope was written by hand.
type batchItemReference struct {
	Type       string          `json:"type"`
	Status     string          `json:"status"`
	StatusCode int             `json:"status_code"`
	Location   string          `json:"location"`
	Result     *core.Operation `json:"result"`
}

// TestEnvelopeMatchesMarshal: appendEnvelope is json.Marshal of the
// envelope plus a newline, byte for byte, for every kind of result the
// handlers pass it, under a sync, an async and an error code.
func TestEnvelopeMatchesMarshal(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	queued := &core.Operation{
		ID: "0123456789abcdef0123456789abcdef", Kind: "echo", Params: map[string]any{"x": 1.0, "a": "<b>"},
		Status: core.StatusQueued, Priority: core.PriorityNormal, Client: "192.0.2.1", CreatedAt: at, UpdatedAt: at,
	}
	done := queued.Clone()
	done.ID, done.Status, done.Result, done.UpdatedAt = "not hex: \"<>\"", core.StatusDone, json.RawMessage(`{"x":1}`), at.Add(time.Second)
	ops := []*core.Operation{queued, done}
	reference := func(ops []*core.Operation) []batchItemReference {
		items := make([]batchItemReference, len(ops))
		for i, op := range ops {
			items[i] = batchItemReference{typeAsync, "Accepted", http.StatusAccepted, resourcePath(op), op}
		}
		return items
	}
	for name, tc := range map[string]struct{ result, reference any }{
		"operation":       {queued, queued},
		"nil operation":   {(*core.Operation)(nil), nil},
		"list":            {ops, ops},
		"empty list":      {[]*core.Operation{}, []*core.Operation{}},
		"nil list":        {[]*core.Operation(nil), nil},
		"list with a nil": {[]*core.Operation{nil, done}, []*core.Operation{nil, done}},
		"batch":           {batchAccepted(ops), reference(ops)},
		"empty batch":     {batchAccepted{}, reference(nil)},
		"error":           {errorResult{Message: "no <such> thing"}, errorResult{Message: "no <such> thing"}},
		"health":          {map[string]any{"healthy": true, "kinds": []string{"a"}}, map[string]any{"healthy": true, "kinds": []string{"a"}}},
		"notices":         {[]engine.Notice{{Seq: 1, OpID: "x", Kind: "k", Status: core.StatusDone, Time: at}}, []engine.Notice{{Seq: 1, OpID: "x", Kind: "k", Status: core.StatusDone, Time: at}}},
		"nothing":         {nil, nil},
	} {
		for code, typ := range map[int]string{http.StatusOK: typeSync, http.StatusAccepted: typeAsync, http.StatusTeapot: typeError} {
			got, err := appendEnvelope([]byte("kept"), code, tc.result)
			if err != nil {
				t.Errorf("%s %d: appendEnvelope: %v", name, code, err)
				continue
			}
			want, err := json.Marshal(Response{Type: typ, Status: http.StatusText(code), StatusCode: code, Result: tc.reference})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "kept"+string(want)+"\n" {
				t.Errorf("%s %d:\n got %s\nwant kept%s", name, code, got, want)
			}
		}
	}
	// What json.Marshal refuses, appendEnvelope refuses.
	for name, result := range map[string]any{
		"bad result bytes": &core.Operation{Result: json.RawMessage(`{`)},
		"bad list member":  []*core.Operation{queued, {Params: map[string]any{"c": make(chan int)}}},
		"bad batch member": batchAccepted{{Result: json.RawMessage(`{`)}},
		"bad value":        map[string]any{"c": make(chan int)},
	} {
		if _, err := appendEnvelope(nil, http.StatusOK, result); err == nil {
			t.Errorf("%s: appendEnvelope succeeded, want json.Marshal's error", name)
		}
	}
}
