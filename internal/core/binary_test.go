package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleOps() []*Operation {
	now := time.Unix(1700000000, 123456789)
	return []*Operation{
		{
			ID:        "0123456789abcdef0123456789abcdef",
			Kind:      "noop",
			Status:    StatusQueued,
			Priority:  PriorityNormal,
			CreatedAt: now,
			UpdatedAt: now,
		},
		{
			ID:       "ffffffffffffffffffffffffffffffff",
			Kind:     "sleep",
			Params:   map[string]any{"ms": float64(25), "label": "x"},
			Status:   StatusRunning,
			Priority: PriorityHigh,
			Client:   "client-a",
			Deadline: 5 * time.Second,
			// Sub-second-only and pre-epoch times exercise the zigzag
			// seconds encoding.
			CreatedAt: time.Unix(-5, 999999999),
			UpdatedAt: now.Add(time.Minute),
		},
		{
			ID:          "00000000000000000000000000000001",
			Kind:        "job",
			Status:      StatusCancelled,
			Priority:    PriorityLow,
			Error:       "cancelled by client",
			Result:      json.RawMessage(`{"partial":true}`),
			CreatedAt:   now,
			UpdatedAt:   now.Add(2 * time.Second),
			CancelledAt: now.Add(time.Second),
		},
		{
			// Pre-publication shape: empty priority, zero times.
			ID:     "00000000000000000000000000000002",
			Kind:   "draft",
			Status: StatusFailed,
			Error:  "boom",
		},
	}
}

func opsEquivalent(t *testing.T, want, got *Operation) {
	t.Helper()
	a, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal want: %v", err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("marshal got: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("round-trip mismatch:\n want %s\n  got %s", a, b)
	}
	if !want.CreatedAt.Equal(got.CreatedAt) || !want.UpdatedAt.Equal(got.UpdatedAt) ||
		!want.CancelledAt.Equal(got.CancelledAt) {
		t.Fatalf("timestamp mismatch: want %+v got %+v", want, got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, op := range sampleOps() {
		enc, err := op.AppendBinary(nil)
		if err != nil {
			t.Fatalf("AppendBinary(%s): %v", op.ID, err)
		}
		got, err := DecodeBinaryOperation(enc)
		if err != nil {
			t.Fatalf("DecodeBinaryOperation(%s): %v", op.ID, err)
		}
		opsEquivalent(t, op, got)
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	for _, op := range sampleOps() {
		enc, err := op.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) >= len(j) {
			t.Errorf("op %s: binary %dB not smaller than JSON %dB", op.ID, len(enc), len(j))
		}
	}
}

func TestBinaryAppendPreservesPrefix(t *testing.T) {
	op := sampleOps()[1]
	prefix := []byte("prefix")
	enc, err := op.AppendBinary(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("AppendBinary clobbered the destination prefix")
	}
	if _, err := DecodeBinaryOperation(enc[len(prefix):]); err != nil {
		t.Fatalf("decode after prefix: %v", err)
	}
}

// TestBinaryParamsBlobInPlace: the params blob is encoded where it
// lands and shifted behind its length prefix afterwards. Hold that to
// the straightforward construction for prefixes of one and two bytes,
// and check that a failed encode hands the destination back untouched.
func TestBinaryParamsBlobInPlace(t *testing.T) {
	for _, params := range []map[string]any{
		{}, {"n": 123456.0}, {"b": []any{1.5, "x<y", nil}, "a": map[string]any{"k": true}},
		{"long": strings.Repeat("x", 200)}, {"odd": []int{1, 2, 3}},
	} {
		op := &Operation{ID: "id", Kind: "echo", Params: params, Status: StatusQueued, Priority: PriorityLow}
		enc, err := op.AppendBinary([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(params)
		if err != nil {
			t.Fatal(err)
		}
		bare := *op
		bare.Params = nil
		want, _ := bare.AppendBinary([]byte("prefix"))
		want[len("prefix")] |= binHasParams
		want = appendBlob(want, blob)
		if !bytes.Equal(enc, want) {
			t.Errorf("params %v:\n got %q\nwant %q", params, enc, want)
		}
	}
	bad := &Operation{ID: "id", Kind: "echo", Params: map[string]any{"c": make(chan int)}, Status: StatusQueued}
	if enc, err := bad.AppendBinary([]byte("prefix")); err == nil || string(enc) != "prefix" {
		t.Errorf("unencodable params: got %q, %v; want the untouched prefix and an error", enc, err)
	}
}

func TestBinaryDecodeRejectsGarbage(t *testing.T) {
	op := sampleOps()[1]
	enc, err := op.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a valid record must fail cleanly, not panic.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeBinaryOperation(enc[:i]); err == nil {
			t.Fatalf("truncated record of %d/%d bytes decoded cleanly", i, len(enc))
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := DecodeBinaryOperation(append(append([]byte(nil), enc...), 0xff)); err == nil {
		t.Fatal("record with trailing bytes decoded cleanly")
	}
	for _, bad := range [][]byte{
		nil,
		{0x00},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		[]byte("not a record at all"),
	} {
		if _, err := DecodeBinaryOperation(bad); err == nil {
			t.Fatalf("garbage %q decoded cleanly", bad)
		}
	}
}

func TestBinaryDeltaRoundTrip(t *testing.T) {
	base := sampleOps()[1]
	next := base.Clone()
	if !next.Transition(StatusDone, time.Unix(1700000100, 42)) {
		t.Fatal("transition refused")
	}
	next.Result = json.RawMessage(`"ok"`)

	enc := next.AppendBinaryDelta(nil)
	d, err := DecodeBinaryDelta(enc)
	if err != nil {
		t.Fatalf("DecodeBinaryDelta: %v", err)
	}
	got := d.Apply(base)
	opsEquivalent(t, next, got)

	// The delta must be dramatically smaller than the full record.
	full, err := next.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(full) {
		t.Errorf("delta %dB not smaller than full record %dB", len(enc), len(full))
	}
}

func TestBinaryDeltaOverwritesAllMutableFields(t *testing.T) {
	// Applying a delta onto a base that is NEWER than the delta's
	// origin must still yield exactly the delta's mutable state —
	// fields the delta lacks are cleared, not inherited.
	base := sampleOps()[2] // has Error, Result, CancelledAt
	next := base.Clone()
	next.Status = StatusDone
	next.Error = ""
	next.Result = nil
	next.CancelledAt = time.Time{}
	next.UpdatedAt = time.Unix(1700000200, 0)

	d, err := DecodeBinaryDelta(next.AppendBinaryDelta(nil))
	if err != nil {
		t.Fatal(err)
	}
	got := d.Apply(base)
	if got.Error != "" || got.Result != nil || !got.CancelledAt.IsZero() {
		t.Fatalf("delta apply inherited stale mutable fields: %+v", got)
	}
	if got.Status != StatusDone || !got.UpdatedAt.Equal(next.UpdatedAt) {
		t.Fatalf("delta apply lost its own fields: %+v", got)
	}
	if base.Status != StatusCancelled {
		t.Fatal("Apply mutated the base snapshot")
	}
}

func TestBinaryDeltaDecodeRejectsGarbage(t *testing.T) {
	op := sampleOps()[2]
	enc := op.AppendBinaryDelta(nil)
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeBinaryDelta(enc[:i]); err == nil {
			t.Fatalf("truncated delta of %d/%d bytes decoded cleanly", i, len(enc))
		}
	}
	if _, err := DecodeBinaryDelta(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatal("delta with trailing bytes decoded cleanly")
	}
}

func TestDeltaEligible(t *testing.T) {
	base := sampleOps()[1]

	transition := base.Clone()
	transition.Transition(StatusDone, time.Unix(1700000100, 0))
	transition.Result = json.RawMessage(`"ok"`)
	if !DeltaEligible(base, transition) {
		t.Fatal("pure lifecycle transition should be delta-eligible")
	}

	for name, mutate := range map[string]func(*Operation){
		"id":       func(c *Operation) { c.ID = "11111111111111111111111111111111" },
		"kind":     func(c *Operation) { c.Kind = "other" },
		"priority": func(c *Operation) { c.Priority = PriorityLow },
		"client":   func(c *Operation) { c.Client = "client-b" },
		"deadline": func(c *Operation) { c.Deadline = time.Minute },
		"created":  func(c *Operation) { c.CreatedAt = c.CreatedAt.Add(time.Second) },
		"params":   func(c *Operation) { c.Params = map[string]any{"ms": float64(25), "label": "x"} },
	} {
		c := base.Clone()
		mutate(c)
		if DeltaEligible(base, c) {
			t.Errorf("change to %s should disqualify the delta", name)
		}
	}

	// Shared params map (the lifecycle-transition shape) stays eligible.
	shared := base.Clone()
	shared.Status = StatusDone
	if !DeltaEligible(base, shared) {
		t.Fatal("shared params map should be delta-eligible")
	}

	// nil→nil params stays eligible.
	a, b := sampleOps()[0], sampleOps()[0].Clone()
	b.Status = StatusRunning
	if !DeltaEligible(a, b) {
		t.Fatal("nil params on both sides should be delta-eligible")
	}

	// An unknown status can't be encoded in a delta.
	weird := base.Clone()
	weird.Status = Status("limbo")
	if DeltaEligible(base, weird) {
		t.Fatal("unknown status must disqualify the delta")
	}
}

func TestBinaryDecodeOwnsMemory(t *testing.T) {
	op := sampleOps()[2]
	enc, err := op.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinaryOperation(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := append(json.RawMessage(nil), got.Result...)
	for i := range enc {
		enc[i] = 0xee
	}
	if !reflect.DeepEqual(got.Result, want) {
		t.Fatal("decoded operation aliases the input buffer")
	}
}
