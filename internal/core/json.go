package core

// JSON wire codec for the operation API: the append-based twin of
// binary.go. The struct tags on Operation (and on the API's request
// type) still define the wire format — encoding/json driven by those
// tags is the reference this file is fuzzed against — but the
// accept→terminal path no longer pays for reflection to produce or
// consume it.
//
//   - AppendJSON / AppendJSONValue / AppendJSONString write exactly the
//     bytes json.Marshal would (field order, omitempty/omitzero, sorted
//     map keys, HTML and invalid-UTF-8 escaping, ES6 float formatting,
//     RFC 3339 nano times). Values of the kinds a JSON decode produces
//     are written directly; any other dynamic type is handed to
//     json.Marshal for that value alone, and anything json.Marshal
//     would reject makes the whole call fall back to it, so it stays
//     the only source of encoding errors.
//   - DecodeSubmit reads a POST /v1/operations body in one pass. It
//     only ever *accepts* input it is certain about — known lower-case
//     keys, no duplicates, no string escapes, ASCII only — and declines
//     the rest to the caller's json.Unmarshal, which stays the only
//     producer of error texts and the only judge of exotic input.

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"
)

// maxFastDepth bounds the container nesting the hand-written paths
// follow. Deeper values go to encoding/json, which also owns cycle
// detection, so a self-referential map cannot recurse forever here.
const maxFastDepth = 32

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// verbatim with HTML escaping on (its htmlSafeSet): printable, and none
// of `"`, `\`, `<`, `>`, `&`.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendJSONString appends s as a JSON string, escaped the way
// json.Marshal escapes: `"`, `\`, control characters, `<`, `>`, `&`,
// U+2028 and U+2029 are escaped, and invalid UTF-8 becomes U+FFFD.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONValue appends the JSON encoding of v — the bytes
// json.Marshal(v) returns — to dst. On error dst is returned unchanged.
func AppendJSONValue(dst []byte, v any) ([]byte, error) {
	if b, ok := appendValue(dst, v, 0); ok {
		return b, nil
	}
	// Only values json.Marshal rejects end up here; let it say why.
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendValue writes the decoded-JSON kinds directly and everything
// else through json.Marshal. ok is false when json.Marshal refused a
// value (or would have: NaN, ±Inf); dst's contents past its original
// length are then unspecified.
func appendValue(dst []byte, v any, depth int) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), true
	case bool:
		return strconv.AppendBool(dst, x), true
	case string:
		return AppendJSONString(dst, x), true
	case float64:
		return appendFloat(dst, x)
	case map[string]any:
		if depth < maxFastDepth {
			return appendMap(dst, x, depth)
		}
	case []any:
		if depth < maxFastDepth {
			return appendArray(dst, x, depth)
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, false
	}
	return append(dst, b...), true
}

// appendFloat formats f as encoding/json does: ES6 number-to-string,
// exponent form outside [1e-6, 1e21).
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	// Integral values print as their digits; AppendInt gets there
	// without the shortest-float search. Negative zero keeps its sign
	// through the float path.
	if abs < 1e15 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, int64(f), 10), true
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// appendMap writes the object with its keys in byte order, as
// encoding/json sorts them. Up to eight keys sort on the stack.
func appendMap(dst []byte, m map[string]any, depth int) ([]byte, bool) {
	if m == nil {
		return append(dst, "null"...), true
	}
	var stack [8]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		var ok bool
		if dst, ok = appendValue(dst, m[k], depth+1); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

func appendArray(dst []byte, a []any, depth int) ([]byte, bool) {
	if a == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i, v := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendValue(dst, v, depth+1); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// appendJSONTime writes t as a quoted RFC 3339 string with nanoseconds.
// ok is false for the times Time.MarshalJSON refuses (year outside
// [0,9999], zone offset of a day or more).
func appendJSONTime(dst []byte, t time.Time) ([]byte, bool) {
	b, err := t.AppendText(append(dst, '"'))
	if err != nil {
		return dst, false
	}
	return append(b, '"'), true
}

// AppendJSON appends the operation's API wire form — byte for byte what
// json.Marshal(op) returns, "null" for a nil op included — to dst. It
// fails exactly when json.Marshal does (an unrepresentable Params
// value, a Result that is not JSON, an unformattable timestamp),
// returning dst unchanged and json.Marshal's error.
func (op *Operation) AppendJSON(dst []byte) ([]byte, error) {
	if op == nil {
		return append(dst, "null"...), nil
	}
	if b, ok := op.appendJSON(dst); ok {
		return b, nil
	}
	b, err := json.Marshal(op)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

func (op *Operation) appendJSON(dst []byte) ([]byte, bool) {
	var ok bool
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, op.ID)
	dst = append(dst, `,"kind":`...)
	dst = AppendJSONString(dst, op.Kind)
	if len(op.Params) > 0 {
		dst = append(dst, `,"params":`...)
		if dst, ok = appendMap(dst, op.Params, 0); !ok {
			return dst, false
		}
	}
	dst = append(dst, `,"status":`...)
	dst = AppendJSONString(dst, string(op.Status))
	if len(op.Result) > 0 {
		dst = append(dst, `,"result":`...)
		if CanonicalJSON(op.Result) {
			dst = append(dst, op.Result...)
		} else {
			// Valid but not in encoding/json's output form (whitespace,
			// a raw '<'), or not valid at all: its compaction decides.
			b, err := json.Marshal(op.Result)
			if err != nil {
				return dst, false
			}
			dst = append(dst, b...)
		}
	}
	if op.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = AppendJSONString(dst, op.Error)
	}
	if op.Priority != "" {
		dst = append(dst, `,"priority":`...)
		dst = AppendJSONString(dst, string(op.Priority))
	}
	if op.Client != "" {
		dst = append(dst, `,"client":`...)
		dst = AppendJSONString(dst, op.Client)
	}
	if op.Deadline != 0 {
		dst = append(dst, `,"deadline_ns":`...)
		dst = strconv.AppendInt(dst, int64(op.Deadline), 10)
	}
	dst = append(dst, `,"created_at":`...)
	if dst, ok = appendJSONTime(dst, op.CreatedAt); !ok {
		return dst, false
	}
	dst = append(dst, `,"updated_at":`...)
	if dst, ok = appendJSONTime(dst, op.UpdatedAt); !ok {
		return dst, false
	}
	if !op.CancelledAt.IsZero() {
		dst = append(dst, `,"cancelled_at":`...)
		if dst, ok = appendJSONTime(dst, op.CancelledAt); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// CanonicalJSON reports whether b is one JSON value already in the form
// json.Marshal gives a json.RawMessage: valid, no whitespace between
// tokens, and none of the bytes its compaction would escape ('<', '>',
// '&', U+2028, U+2029). Such bytes can be published or embedded as they
// are. The check is conservative — false only means "let encoding/json
// look at it" — and allocation-free.
func CanonicalJSON(b []byte) bool {
	r := jsonReader{b: b}
	return r.skipCanonical(0) && r.i == len(b)
}

// SubmitItem is one operation of a POST /v1/operations body: the whole
// body for a single submission, one array element for a batch. The
// engine takes it as engine.BatchItem.
type SubmitItem struct {
	// Kind selects the registered handler.
	Kind string
	// Params is the handler's input, passed through verbatim.
	Params map[string]any
	// Priority is the item's scheduling class; empty falls back to the
	// submission-level priority, then the kind's registered default,
	// then normal. Non-empty invalid values fail validation.
	Priority Priority
}

// DecodeSubmit is the single-pass decoder for a POST /v1/operations
// body: one {"kind","params","priority"} object, or an array of them
// (batch is true). When ok is true, items are exactly what
// json.Unmarshal builds from the same bytes. ok false means it
// declined — not that the body is malformed — and the caller decodes
// with json.Unmarshal instead.
func DecodeSubmit(body []byte) (items []SubmitItem, batch, ok bool) {
	r := jsonReader{b: body}
	r.space()
	// Items collect on the stack and leave in one exactly-sized
	// allocation; a batch past the array's length spills to the heap.
	var stack [16]SubmitItem
	acc := stack[:0]
	switch r.peek() {
	case '{':
		acc = append(acc, SubmitItem{})
		if !r.submitItem(&acc[0], nil) {
			return nil, false, false
		}
	case '[':
		batch = true
		r.i++
		for {
			r.space()
			if r.peek() != '{' {
				// Includes the empty array: json.Unmarshal's empty
				// non-nil slice is not worth a special case here.
				return nil, false, false
			}
			acc = append(acc, SubmitItem{})
			n := len(acc)
			var prev *SubmitItem
			if n > 1 {
				prev = &acc[n-2]
			}
			if !r.submitItem(&acc[n-1], prev) {
				return nil, false, false
			}
			r.space()
			c := r.peek()
			r.i++
			if c == ']' {
				break
			}
			if c != ',' {
				return nil, false, false
			}
		}
	default:
		return nil, false, false
	}
	r.space()
	if r.i != len(r.b) {
		return nil, false, false
	}
	items = make([]SubmitItem, len(acc))
	copy(items, acc)
	return items, batch, true
}

// jsonReader is a cursor over JSON text for the two hand-written
// readers. Every method reports failure instead of panicking on
// arbitrary bytes; peek returns 0 at the end of input, which no
// grammar rule accepts.
type jsonReader struct {
	b []byte
	i int
}

func (r *jsonReader) peek() byte { return r.at(r.i) }

func (r *jsonReader) at(i int) byte {
	if i < len(r.b) {
		return r.b[i]
	}
	return 0
}

func (r *jsonReader) space() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\r', '\n':
			r.i++
		default:
			return
		}
	}
}

// eat consumes lit if the input continues with it.
func (r *jsonReader) eat(lit string) bool {
	if len(r.b)-r.i >= len(lit) && string(r.b[r.i:r.i+len(lit)]) == lit {
		r.i += len(lit)
		return true
	}
	return false
}

// number consumes one number of the JSON grammar and returns its text.
func (r *jsonReader) number() ([]byte, bool) {
	start := r.i
	if r.peek() == '-' {
		r.i++
	}
	switch c := r.peek(); {
	case c == '0':
		r.i++
	case '1' <= c && c <= '9':
		r.digits()
	default:
		return nil, false
	}
	if r.peek() == '.' {
		r.i++
		if !r.digits() {
			return nil, false
		}
	}
	if c := r.peek(); c == 'e' || c == 'E' {
		r.i++
		if c := r.peek(); c == '+' || c == '-' {
			r.i++
		}
		if !r.digits() {
			return nil, false
		}
	}
	return r.b[start:r.i], true
}

// digits consumes a run of decimal digits, reporting whether there was
// at least one.
func (r *jsonReader) digits() bool {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}

// skipCanonical consumes one value in json.Marshal's compact output
// form (see CanonicalJSON).
func (r *jsonReader) skipCanonical(depth int) bool {
	if depth > maxFastDepth {
		return false
	}
	switch c := r.peek(); c {
	case '{':
		r.i++
		if r.peek() == '}' {
			r.i++
			return true
		}
		for {
			if !r.skipCanonicalString() || r.peek() != ':' {
				return false
			}
			r.i++
			if !r.skipCanonical(depth + 1) {
				return false
			}
			c := r.peek()
			r.i++
			if c == '}' {
				return true
			}
			if c != ',' {
				return false
			}
		}
	case '[':
		r.i++
		if r.peek() == ']' {
			r.i++
			return true
		}
		for {
			if !r.skipCanonical(depth + 1) {
				return false
			}
			c := r.peek()
			r.i++
			if c == ']' {
				return true
			}
			if c != ',' {
				return false
			}
		}
	case '"':
		return r.skipCanonicalString()
	case 't':
		return r.eat("true")
	case 'f':
		return r.eat("false")
	case 'n':
		return r.eat("null")
	default:
		_, ok := r.number()
		return ok
	}
}

// skipCanonicalString consumes a string whose bytes json.Marshal's
// compaction would copy unchanged. Escape sequences are validated, not
// normalised — compaction keeps them as written. Bytes above ASCII pass
// (compaction does not check UTF-8) except 0xE2, the lead byte of
// U+2028/9, which it may rewrite.
func (r *jsonReader) skipCanonicalString() bool {
	if r.peek() != '"' {
		return false
	}
	for r.i++; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return true
		case c == '\\':
			r.i++
			switch r.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if !isHex(r.at(r.i + k)) {
						return false
					}
				}
				r.i += 4
			default:
				return false
			}
		case c < 0x20, c == '<', c == '>', c == '&', c == 0xE2:
			return false
		}
	}
	return false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// plainString consumes a string holding only printable ASCII and no
// escapes, returning its contents (aliasing the input). Anything else —
// an escape, a control byte, a byte above ASCII — declines.
func (r *jsonReader) plainString() ([]byte, bool) {
	if r.peek() != '"' {
		return nil, false
	}
	start := r.i + 1
	for i := start; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			r.i = i + 1
			return r.b[start:i], true
		case c == '\\', c < 0x20, c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// Presence bits for the three keys of a submit item.
const (
	seenKind = 1 << iota
	seenParams
	seenPriority
)

// submitItem decodes one {"kind","params","priority"} object into it.
// prev is the previous item of the batch, if any: a batch usually
// repeats one kind, and sharing the string saves an allocation per
// item.
func (r *jsonReader) submitItem(it, prev *SubmitItem) bool {
	r.i++ // the caller saw '{'
	r.space()
	if r.peek() == '}' {
		r.i++
		return true
	}
	var seen uint
	for {
		r.space()
		key, ok := r.plainString()
		if !ok {
			return false
		}
		r.space()
		if r.peek() != ':' {
			return false
		}
		r.i++
		r.space()
		var bit uint
		switch string(key) {
		case "kind":
			bit = seenKind
		case "params":
			bit = seenParams
		case "priority":
			bit = seenPriority
		}
		// bit 0: an unknown key, or a case variant json.Unmarshal would
		// fold onto a known one.
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		switch bit {
		case seenKind:
			s, ok := r.plainString()
			if !ok {
				return false
			}
			if prev != nil && prev.Kind == string(s) {
				it.Kind = prev.Kind
			} else {
				it.Kind = string(s)
			}
		case seenParams:
			if r.peek() != '{' {
				return false
			}
			if it.Params, ok = r.object(1); !ok {
				return false
			}
		case seenPriority:
			s, ok := r.plainString()
			if !ok {
				return false
			}
			it.Priority = Priority(s)
		}
		r.space()
		c := r.peek()
		r.i++
		if c == '}' {
			return true
		}
		if c != ',' {
			return false
		}
	}
}

// value decodes one value into the representation json.Unmarshal gives
// an interface target.
func (r *jsonReader) value(depth int) (any, bool) {
	switch r.peek() {
	case '"':
		s, ok := r.plainString()
		return string(s), ok
	case '{':
		return r.object(depth + 1)
	case '[':
		return r.array(depth + 1)
	case 't':
		return true, r.eat("true")
	case 'f':
		return false, r.eat("false")
	case 'n':
		return nil, r.eat("null")
	}
	text, ok := r.number()
	if !ok {
		return nil, false
	}
	// Short integers convert exactly without the general parser; "-0"
	// must keep its sign, so zero takes the long way.
	if len(text) <= 15 {
		digits, neg := text, text[0] == '-'
		if neg {
			digits = text[1:]
		}
		var n int64
		for _, c := range digits {
			if c < '0' || c > '9' {
				n = 0
				break
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		if n != 0 {
			return float64(n), true
		}
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		// Out of range: json.Unmarshal words that error.
		return nil, false
	}
	return f, true
}

// object decodes an object into a map. A repeated key keeps its last
// value, which is also what json.Unmarshal does below the top level.
func (r *jsonReader) object(depth int) (map[string]any, bool) {
	if depth > maxFastDepth {
		return nil, false
	}
	r.i++ // the caller saw '{'
	m := make(map[string]any)
	r.space()
	if r.peek() == '}' {
		r.i++
		return m, true
	}
	for {
		r.space()
		key, ok := r.plainString()
		if !ok {
			return nil, false
		}
		r.space()
		if r.peek() != ':' {
			return nil, false
		}
		r.i++
		r.space()
		v, ok := r.value(depth)
		if !ok {
			return nil, false
		}
		m[string(key)] = v
		r.space()
		c := r.peek()
		r.i++
		if c == '}' {
			return m, true
		}
		if c != ',' {
			return nil, false
		}
	}
}

// array decodes an array; like json.Unmarshal, an empty one is an empty
// non-nil slice.
func (r *jsonReader) array(depth int) ([]any, bool) {
	if depth > maxFastDepth {
		return nil, false
	}
	r.i++ // the caller saw '['
	a := []any{}
	r.space()
	if r.peek() == ']' {
		r.i++
		return a, true
	}
	for {
		r.space()
		v, ok := r.value(depth)
		if !ok {
			return nil, false
		}
		a = append(a, v)
		r.space()
		c := r.peek()
		r.i++
		if c == ']' {
			return a, true
		}
		if c != ',' {
			return nil, false
		}
	}
}
