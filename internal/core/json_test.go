package core

// Equivalence tests for the append-based JSON codec. encoding/json
// driven by the struct tags is the specification; the hand-written
// paths may be faster, and may hand work back to it, but may never
// produce a different byte or a different value.
//
// make fuzz-smoke runs the fuzzer for 10s; longer local runs:
//
//	go test -fuzz FuzzOperationAppendJSON -fuzztime 5m ./internal/core/
//
// DecodeSubmit's reference is the API's request type, so its
// equivalence tests and fuzzer live in internal/api (codec_test.go).

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"opdaemon/internal/raceflag"
)

// checkAppendJSON holds op.AppendJSON to json.Marshal(op): same bytes
// after the caller's prefix, or both fail and the prefix comes back
// untouched.
func checkAppendJSON(t *testing.T, op *Operation) {
	t.Helper()
	const prefix = `[1,`
	want, wantErr := json.Marshal(op)
	got, gotErr := op.AppendJSON([]byte(prefix))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("AppendJSON error = %v, json.Marshal error = %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if string(got) != prefix {
			t.Fatalf("AppendJSON failed and returned %q, want the untouched prefix", got)
		}
		return
	}
	if string(got) != prefix+string(want) {
		t.Fatalf("AppendJSON disagrees with json.Marshal\n got: %s\nwant: %s", got[len(prefix):], want)
	}
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	full := &Operation{
		ID: "0123456789abcdef0123456789abcdef", Kind: "echo",
		Params: map[string]any{
			"z": 1.0, "a": "x<y>&z", "m": map[string]any{"k": []any{1.5, nil, true, "s"}, "e": map[string]any{}},
			"neg0": math.Copysign(0, -1), "big": 1e21, "small": 1e-7, "frac": 0.1, "int15": 1e15, "l": []any{},
			"nilmap": map[string]any(nil), "nilslice": []any(nil), "odd": []int{1, 2}, "n": json.Number("12"),
			"bad\xffkey": "  \x00\x1f\x7f\"\\\b\f\n\r\t",
		},
		Status: StatusCancelled, Result: json.RawMessage(`{"ok":true}`), Error: "boom", Priority: PriorityHigh,
		Client: "tenant-é", Deadline: 90 * time.Second, CreatedAt: at, UpdatedAt: at.Add(time.Second),
		CancelledAt: at.In(time.FixedZone("east", 5*3600+1800)),
	}
	for name, op := range map[string]*Operation{
		"full":             full,
		"zero":             {},
		"minimal":          {ID: "a", Kind: "noop", Status: StatusQueued, CreatedAt: at, UpdatedAt: at},
		"empty params":     {Params: map[string]any{}},
		"local zone":       {CreatedAt: at.In(time.Local), UpdatedAt: time.Unix(0, 0)},
		"spaced result":    {Result: json.RawMessage(" { \"a\" : [ 1 , 2 ] } ")},
		"html result":      {Result: json.RawMessage(`{"a":"<&> "}`)},
		"escaped result":   {Result: json.RawMessage(`["é\n\/\"",-0.5e+7,null]`)},
		"invalid result":   {Result: json.RawMessage(`{"a":}`)},
		"truncated result": {Result: json.RawMessage(`"abc`)},
		"nan param":        {Params: map[string]any{"x": math.NaN()}},
		"chan param":       {Params: map[string]any{"x": make(chan int)}},
		"year 10000":       {CreatedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		"zone past a day":  {UpdatedAt: at.In(time.FixedZone("far", 25*3600))},
	} {
		t.Run(name, func(t *testing.T) { checkAppendJSON(t, op) })
	}
}

// TestAppendJSONDeepAndCyclicParams: nesting past the hand-written
// limit and a map that contains itself both end up with encoding/json,
// which encodes the first and refuses the second.
func TestAppendJSONDeepAndCyclicParams(t *testing.T) {
	deep := map[string]any{}
	for cur, i := deep, 0; i < 3*maxFastDepth; i++ {
		next := map[string]any{}
		cur["d"] = []any{next}
		cur = next
	}
	checkAppendJSON(t, &Operation{Params: deep})

	cyclic := map[string]any{}
	cyclic["self"] = cyclic
	checkAppendJSON(t, &Operation{Params: cyclic})
}

func FuzzOperationAppendJSON(f *testing.F) {
	f.Add("0123456789abcdef0123456789abcdef", "noop", "queued", "", "normal", "bench-0",
		[]byte(nil), []byte(`{"n":123456}`), int64(0), int64(1786190400), int64(123456789), int64(1), uint8(0))
	f.Add("id", "k<i>nd", "done", "it \"failed\"\n", "high", "c\xff", []byte(`{"ok":true}`),
		[]byte(`{"b":[1,2.5,-0,1e300,1e-9," ",{"x":null}],"a":{"":false}}`), int64(90e9), int64(0), int64(0), int64(0), uint8(1))
	f.Add("", "", "", "", "", "", []byte(` [ 1 ] `), []byte(`{}`), int64(-1), int64(-62135596800), int64(0), int64(-5), uint8(6))
	f.Add("x", "y", "failed", "e", "low", "", []byte(`{"a":`), []byte(`{"k":"v"}`), int64(1), int64(253402300800), int64(999999999), int64(0), uint8(8))
	f.Fuzz(func(t *testing.T, id, kind, status, errText, priority, client string,
		result, params []byte, deadline, sec, nsec, step int64, flags uint8) {
		created := time.Unix(sec, nsec)
		switch flags & 3 {
		case 1:
			created = created.UTC()
		case 2:
			created = created.In(time.FixedZone("", int(step%100000)))
		case 3:
			created = time.Time{}
		}
		op := &Operation{
			ID: id, Kind: kind, Status: Status(status), Error: errText, Priority: Priority(priority), Client: client,
			Result: result, Deadline: time.Duration(deadline), CreatedAt: created, UpdatedAt: created.Add(time.Duration(step)),
		}
		if flags&4 != 0 {
			op.CancelledAt = op.UpdatedAt
		}
		// Params of the decoded-JSON kinds come from decoding; the flag
		// bits mix in what a Go caller can add beyond them.
		if json.Unmarshal(params, &op.Params) != nil {
			op.Params = nil
		}
		if flags&8 != 0 {
			if op.Params == nil {
				op.Params = map[string]any{}
			}
			op.Params[kind] = []any{int(step), float32(0.1), json.Number("7"), []string{client}, math.Float64frombits(uint64(step))}
		}
		if flags&16 != 0 && op.Params != nil {
			op.Params[errText] = make(chan int)
		}
		checkAppendJSON(t, op)
	})
}

// TestAppendJSONValueMatchesMarshal covers the value encoder's own
// entry point, which AppendBinary and the engine's result encoding use.
func TestAppendJSONValueMatchesMarshal(t *testing.T) {
	for _, v := range []any{
		nil, true, "s", 1.0, -2.5, 1e100, map[string]any{"b": 1.0, "a": []any{"x"}}, []any{},
		map[string]any(nil), 7, []string{"a"}, struct{ A int }{1}, json.RawMessage(`{"a" : 1}`), math.Inf(1),
	} {
		want, wantErr := json.Marshal(v)
		got, gotErr := AppendJSONValue([]byte("p"), v)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%#v: error = %v, json.Marshal error = %v", v, gotErr, wantErr)
			continue
		}
		if string(got) != "p"+string(want) {
			t.Errorf("%#v: got %s, want p%s", v, got, want)
		}
	}
}

func TestCanonicalJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{`{"ok":true}`, true},
		{`{"slept_ms":5}`, true},
		{`[]`, true}, {`{}`, true}, {`null`, true}, {`-0.5e+7`, true}, {`"a\né\/"`, true},
		{`[1,[2,{"a":[]}],"é"]`, true},
		{``, false}, {` 1`, false}, {`1 `, false}, {`{"a": 1}`, false}, {`[1, 2]`, false},
		{`"<"`, false}, {`"&"`, false}, {"\" \"", false}, {`"\x"`, false}, {`"\u12g4"`, false},
		{`01`, false}, {`1.`, false}, {`.5`, false}, {`+1`, false}, {`-`, false}, {`1e`, false},
		{`{"a":1,}`, false}, {`{"a"}`, false}, {`{a:1}`, false}, {`[1,]`, false}, {`[`, false}, {`{"a":1`, false},
		{`tru`, false}, {`nul`, false}, {`"abc`, false}, {"\"a\tb\"", false}, {`1 2`, false}, {`{}{}`, false},
		{strings.Repeat("[", 100) + strings.Repeat("]", 100), false},
	} {
		if got := CanonicalJSON([]byte(tc.in)); got != tc.want {
			t.Errorf("CanonicalJSON(%q) = %v, want %v", tc.in, got, tc.want)
		}
		// Whatever it accepts, json.Marshal must leave alone.
		if tc.want {
			out, err := json.Marshal(json.RawMessage(tc.in))
			if err != nil || string(out) != tc.in {
				t.Errorf("json.Marshal(RawMessage(%q)) = %q, %v: not canonical after all", tc.in, out, err)
			}
		}
	}
}

func TestDecodeSubmitDeclines(t *testing.T) {
	for _, body := range []string{
		`{"kind":"a","kind":"b"}`, `{"params":{},"params":{}}`, `{"Kind":"a"}`, `{"KIND":"a"}`, `{"kind":"a","x":1}`,
		`{"kind":"a\n"}`, `{"kind":"a\u0041"}`, `{"kind":"é"}`, `{"params":{"é":1}}`, `{"params":{"a":"\t"}}`,
		`{"kind":null}`, `{"params":null}`, `{"priority":null}`, `{"kind":1}`, `{"params":[]}`, `[]`, `[null]`, `[1]`, `null`, `"x"`, ``,
		`{"kind":"a"}{"kind":"b"}`, `[{"kind":"a"}] 1`, `{"params":{"x":1e999}}`, "\ufeff{}",
	} {
		if _, _, ok := DecodeSubmit([]byte(body)); ok {
			t.Errorf("DecodeSubmit accepted %q, want it left to json.Unmarshal", body)
		}
	}
}

func TestDecodeSubmitSharesRepeatedKind(t *testing.T) {
	items, batch, ok := DecodeSubmit([]byte(`[{"kind":"noop"},{"kind":"noop"},{"kind":"echo"},{}]`))
	if !ok || !batch || len(items) != 4 {
		t.Fatalf("DecodeSubmit = %v, batch %v, ok %v; want 4 items", items, batch, ok)
	}
	if items[0].Kind != "noop" || items[1].Kind != "noop" || items[2].Kind != "echo" || items[3].Kind != "" {
		t.Errorf("kinds = %q %q %q %q", items[0].Kind, items[1].Kind, items[2].Kind, items[3].Kind)
	}
}

// TestAppendJSONAllocs pins the encoder's point: into a warm buffer an
// operation without params costs no allocation, and one with several
// (sorted on the stack) at most one.
func TestAppendJSONAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates; alloc pinning runs in non-race builds")
	}
	at := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	plain := &Operation{
		ID: "0123456789abcdef0123456789abcdef", Kind: "noop", Status: StatusDone, Result: json.RawMessage(`{"ok":true}`),
		Priority: PriorityNormal, Client: "bench-0", CreatedAt: at, UpdatedAt: at,
	}
	withParams := plain.Clone()
	withParams.Params = map[string]any{"n": 123456.0, "c": 1.0, "s": "x", "b": true, "l": []any{1.0, "y"}}
	buf := make([]byte, 0, 1024)
	for _, tc := range []struct {
		name string
		op   *Operation
		max  float64
	}{{"no params", plain, 0}, {"five sorted params", withParams, 1}} {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := tc.op.AppendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: AppendJSON allocates %.1f objects/op, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}
