package core

// Binary wire codec for Operation: the WAL's v2 record bodies. The JSON
// tags on Operation define the API wire format; this file defines the
// compact durable format — varint-framed fields, no field names, no
// quoting — so a log record costs bytes proportional to the data it
// actually carries instead of to the schema.
//
// Two shapes exist:
//
//   - the full record (AppendBinary / DecodeBinaryOperation): every
//     field, self-contained, replayable with no prior state;
//   - the delta record (AppendBinaryDelta / DecodeBinaryDelta): the ID
//     plus only the fields a lifecycle transition may change — status,
//     timestamps, error, result. A delta always carries the complete
//     mutable set, so applying the newest delta for an ID onto any full
//     base yields the final mutable state regardless of the
//     intermediate deltas.
//
// Layout conventions: strings and byte blobs are uvarint length +
// bytes; times are zigzag-varint unix seconds + uvarint nanoseconds,
// elided entirely (a flag bit) when zero; enums are one byte. Decoders
// bounds-check every read and return an error — never panic — on
// arbitrary input, which is what lets the WAL treat "undecodable" as
// just another corrupt-frame shape.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"time"
)

// ErrBinaryCorrupt is the sentinel wrapped by every binary decode
// failure, so callers can classify without string matching.
var ErrBinaryCorrupt = errors.New("corrupt binary operation record")

// Full-record flag bits: presence markers for the elidable fields.
const (
	binHasParams = 1 << iota
	binHasResult
	binHasError
	binHasClient
	binHasDeadline
	binHasCreatedAt
	binHasUpdatedAt
	binHasCancelledAt
)

// Delta-record flag bits.
const (
	deltaHasResult = 1 << iota
	deltaHasError
	deltaHasUpdatedAt
	deltaHasCancelledAt
)

// statusToByte maps the closed Status set onto stable one-byte codes.
// 0 is deliberately unused so an all-zeroes body can never decode as a
// valid status.
func statusToByte(s Status) (byte, bool) {
	switch s {
	case StatusQueued:
		return 1, true
	case StatusRunning:
		return 2, true
	case StatusDone:
		return 3, true
	case StatusFailed:
		return 4, true
	case StatusCancelled:
		return 5, true
	}
	return 0, false
}

func statusFromByte(b byte) (Status, bool) {
	switch b {
	case 1:
		return StatusQueued, true
	case 2:
		return StatusRunning, true
	case 3:
		return StatusDone, true
	case 4:
		return StatusFailed, true
	case 5:
		return StatusCancelled, true
	}
	return "", false
}

// priorityToByte maps Priority onto one-byte codes; 0 is the unset
// (empty) priority, which pre-publication operations may carry.
func priorityToByte(p Priority) (byte, bool) {
	switch p {
	case "":
		return 0, true
	case PriorityLow:
		return 1, true
	case PriorityNormal:
		return 2, true
	case PriorityHigh:
		return 3, true
	}
	return 0, false
}

func priorityFromByte(b byte) (Priority, bool) {
	switch b {
	case 0:
		return "", true
	case 1:
		return PriorityLow, true
	case 2:
		return PriorityNormal, true
	case 3:
		return PriorityHigh, true
	}
	return "", false
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendBlob(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendTime encodes a non-zero time as zigzag seconds + nanoseconds.
// Callers elide zero times via a flag bit instead of calling this.
func appendTime(dst []byte, t time.Time) []byte {
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

// binReader is a bounds-checked cursor over a record body. Every take
// method reports failure instead of panicking, so decoding arbitrary
// bytes is safe by construction.
type binReader struct {
	data []byte
	pos  int
	err  error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrBinaryCorrupt, what, r.pos)
	}
}

func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail(what)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// blob returns a sub-slice of the underlying data; callers that retain
// it must copy (see the Result handling in decode).
func (r *binReader) blob(what string) []byte {
	n := r.uvarint(what + " length")
	if r.err != nil {
		return nil
	}
	if uint64(len(r.data)-r.pos) < n {
		r.fail(what + " truncated")
		return nil
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

func (r *binReader) string(what string) string {
	return string(r.blob(what))
}

func (r *binReader) time(what string) time.Time {
	sec := r.varint(what + " seconds")
	nsec := r.uvarint(what + " nanoseconds")
	if r.err != nil {
		return time.Time{}
	}
	if nsec >= 1e9 {
		r.fail(what + " nanoseconds out of range")
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec))
}

// AppendBinary appends the operation's full binary record body to dst
// and returns the extended slice. It fails only if Params holds a
// value JSON cannot represent — the same failure mode the JSON codec
// has — and leaves dst untouched in that case.
func (op *Operation) AppendBinary(dst []byte) ([]byte, error) {
	n0 := len(dst)
	sb, ok := statusToByte(op.Status)
	if !ok {
		return dst, fmt.Errorf("encoding operation %s: unknown status %q", op.ID, op.Status)
	}
	pb, ok := priorityToByte(op.Priority)
	if !ok {
		return dst, fmt.Errorf("encoding operation %s: unknown priority %q", op.ID, op.Priority)
	}
	var flags uint64
	if op.Params != nil {
		flags |= binHasParams
	}
	if op.Result != nil {
		flags |= binHasResult
	}
	if op.Error != "" {
		flags |= binHasError
	}
	if op.Client != "" {
		flags |= binHasClient
	}
	if op.Deadline != 0 {
		flags |= binHasDeadline
	}
	if !op.CreatedAt.IsZero() {
		flags |= binHasCreatedAt
	}
	if !op.UpdatedAt.IsZero() {
		flags |= binHasUpdatedAt
	}
	if !op.CancelledAt.IsZero() {
		flags |= binHasCancelledAt
	}
	dst = appendUvarint(dst, flags)
	dst = appendString(dst, op.ID)
	dst = appendString(dst, op.Kind)
	dst = append(dst, sb, pb)
	if flags&binHasParams != 0 {
		var err error
		if dst, err = appendParamsBlob(dst, op.Params); err != nil {
			return dst[:n0], fmt.Errorf("encoding operation %s params: %w", op.ID, err)
		}
	}
	if flags&binHasResult != 0 {
		dst = appendBlob(dst, op.Result)
	}
	if flags&binHasError != 0 {
		dst = appendString(dst, op.Error)
	}
	if flags&binHasClient != 0 {
		dst = appendString(dst, op.Client)
	}
	if flags&binHasDeadline != 0 {
		dst = appendUvarint(dst, uint64(op.Deadline))
	}
	if flags&binHasCreatedAt != 0 {
		dst = appendTime(dst, op.CreatedAt)
	}
	if flags&binHasUpdatedAt != 0 {
		dst = appendTime(dst, op.UpdatedAt)
	}
	if flags&binHasCancelledAt != 0 {
		dst = appendTime(dst, op.CancelledAt)
	}
	return dst, nil
}

// appendParamsBlob appends params as a length-prefixed JSON blob,
// encoding in place: the JSON is written where the blob's bytes belong
// and moved up by the width of its length prefix once that is known, so
// no intermediate buffer is allocated.
func appendParamsBlob(dst []byte, params map[string]any) ([]byte, error) {
	start := len(dst)
	dst, err := AppendJSONValue(dst, params)
	if err != nil {
		return dst, err
	}
	n := len(dst) - start
	var prefix [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(prefix[:], uint64(n))
	dst = append(dst, prefix[:w]...)
	copy(dst[start+w:], dst[start:start+n])
	copy(dst[start:], prefix[:w])
	return dst, nil
}

// DecodeBinaryOperation decodes a full binary record body. The returned
// operation owns its memory — nothing aliases data, so the caller may
// reuse or discard the buffer.
func DecodeBinaryOperation(data []byte) (*Operation, error) {
	r := &binReader{data: data}
	flags := r.uvarint("flags")
	op := &Operation{
		ID:   r.string("id"),
		Kind: r.string("kind"),
	}
	sb, pb := r.byte("status"), r.byte("priority")
	if flags&binHasParams != 0 {
		blob := r.blob("params")
		if r.err == nil {
			if err := json.Unmarshal(blob, &op.Params); err != nil {
				return nil, fmt.Errorf("%w: params: %v", ErrBinaryCorrupt, err)
			}
		}
	}
	if flags&binHasResult != 0 {
		if blob := r.blob("result"); r.err == nil {
			op.Result = append(json.RawMessage(nil), blob...)
		}
	}
	if flags&binHasError != 0 {
		op.Error = r.string("error")
	}
	if flags&binHasClient != 0 {
		op.Client = r.string("client")
	}
	if flags&binHasDeadline != 0 {
		op.Deadline = time.Duration(r.uvarint("deadline"))
	}
	if flags&binHasCreatedAt != 0 {
		op.CreatedAt = r.time("created_at")
	}
	if flags&binHasUpdatedAt != 0 {
		op.UpdatedAt = r.time("updated_at")
	}
	if flags&binHasCancelledAt != 0 {
		op.CancelledAt = r.time("cancelled_at")
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinaryCorrupt, len(data)-r.pos)
	}
	var ok bool
	if op.Status, ok = statusFromByte(sb); !ok {
		return nil, fmt.Errorf("%w: unknown status code %d", ErrBinaryCorrupt, sb)
	}
	if op.Priority, ok = priorityFromByte(pb); !ok {
		return nil, fmt.Errorf("%w: unknown priority code %d", ErrBinaryCorrupt, pb)
	}
	if op.ID == "" {
		return nil, fmt.Errorf("%w: operation record without an id", ErrBinaryCorrupt)
	}
	return op, nil
}

// BinaryDelta is a decoded delta record: the complete mutable field
// set a lifecycle transition may change. Apply folds it onto a full
// base snapshot.
type BinaryDelta struct {
	ID          string
	Status      Status
	UpdatedAt   time.Time
	CancelledAt time.Time
	Error       string
	Result      json.RawMessage
}

// AppendBinaryDelta appends the operation's delta record body — ID
// plus the full mutable field set — to dst. Deltas carry no Params, so
// encoding cannot fail.
func (op *Operation) AppendBinaryDelta(dst []byte) []byte {
	// A delta is only encoded for statuses the lifecycle can produce,
	// so statusToByte cannot miss here; the eligibility check guards it.
	sb, _ := statusToByte(op.Status)
	var flags uint64
	if op.Result != nil {
		flags |= deltaHasResult
	}
	if op.Error != "" {
		flags |= deltaHasError
	}
	if !op.UpdatedAt.IsZero() {
		flags |= deltaHasUpdatedAt
	}
	if !op.CancelledAt.IsZero() {
		flags |= deltaHasCancelledAt
	}
	dst = appendUvarint(dst, flags)
	dst = appendString(dst, op.ID)
	dst = append(dst, sb)
	if flags&deltaHasResult != 0 {
		dst = appendBlob(dst, op.Result)
	}
	if flags&deltaHasError != 0 {
		dst = appendString(dst, op.Error)
	}
	if flags&deltaHasUpdatedAt != 0 {
		dst = appendTime(dst, op.UpdatedAt)
	}
	if flags&deltaHasCancelledAt != 0 {
		dst = appendTime(dst, op.CancelledAt)
	}
	return dst
}

// AppendBinary re-encodes a decoded delta, mirroring
// Operation.AppendBinaryDelta. Round-tripping through decode and back
// reaches a fixed point after one pass, which is what the codec fuzz
// target checks.
func (d *BinaryDelta) AppendBinary(dst []byte) []byte {
	op := Operation{
		ID:          d.ID,
		Status:      d.Status,
		UpdatedAt:   d.UpdatedAt,
		CancelledAt: d.CancelledAt,
		Error:       d.Error,
		Result:      d.Result,
	}
	return op.AppendBinaryDelta(dst)
}

// DecodeBinaryDelta decodes a delta record body. The returned delta
// owns its memory.
func DecodeBinaryDelta(data []byte) (*BinaryDelta, error) {
	r := &binReader{data: data}
	flags := r.uvarint("flags")
	d := &BinaryDelta{ID: r.string("id")}
	sb := r.byte("status")
	if flags&deltaHasResult != 0 {
		if blob := r.blob("result"); r.err == nil {
			d.Result = append(json.RawMessage(nil), blob...)
		}
	}
	if flags&deltaHasError != 0 {
		d.Error = r.string("error")
	}
	if flags&deltaHasUpdatedAt != 0 {
		d.UpdatedAt = r.time("updated_at")
	}
	if flags&deltaHasCancelledAt != 0 {
		d.CancelledAt = r.time("cancelled_at")
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinaryCorrupt, len(data)-r.pos)
	}
	var ok bool
	if d.Status, ok = statusFromByte(sb); !ok {
		return nil, fmt.Errorf("%w: unknown status code %d", ErrBinaryCorrupt, sb)
	}
	if d.ID == "" {
		return nil, fmt.Errorf("%w: delta record without an id", ErrBinaryCorrupt)
	}
	return d, nil
}

// Apply folds the delta onto a full base snapshot, returning a fresh
// operation (the base is never mutated — it may be a published
// snapshot). Every mutable field is overwritten from the delta, so the
// newest delta alone determines the final mutable state.
func (d *BinaryDelta) Apply(base *Operation) *Operation {
	c := base.Clone()
	c.Status = d.Status
	c.UpdatedAt = d.UpdatedAt
	c.CancelledAt = d.CancelledAt
	c.Error = d.Error
	c.Result = d.Result
	return c
}

// DeltaEligible reports whether the transition old → new touched only
// the mutable field set a delta record carries. The store's Update
// refuses a transition that changed any other field (identity, kind,
// params, scheduling attributes, creation time), so every update it
// journals is a delta. Params is compared by reference: lifecycle transitions share the params map
// with the base snapshot, and a replaced map — even a deep-equal one —
// disqualifies the delta rather than risking a lossy replay.
func DeltaEligible(old, new *Operation) bool {
	if old.ID != new.ID || old.Kind != new.Kind ||
		old.Priority != new.Priority || old.Client != new.Client ||
		old.Deadline != new.Deadline || !old.CreatedAt.Equal(new.CreatedAt) {
		return false
	}
	if _, ok := statusToByte(new.Status); !ok {
		return false
	}
	return sameMapRef(old.Params, new.Params)
}

// sameMapRef reports whether two maps are the same reference (or both
// nil). Maps are not comparable with ==; the reflect pointer identity
// is the cheapest honest check.
func sameMapRef(a, b map[string]any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}
