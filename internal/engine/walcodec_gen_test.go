package engine

// Record-codec tests: which record type each kind of mutation logs, and
// fuzzing of the binary bodies.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// countWALRecordTypes replays every segment in dir and tallies record
// types across them.
func countWALRecordTypes(t *testing.T, dir string) map[byte]int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[byte]int)
	for _, e := range entries {
		var i int
		if !parseWALName(e.Name(), "wal-%08d.log", &i) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := walReplay(data, func(typ byte, _ []byte) error {
			counts[typ]++
			return nil
		}); err != nil {
			t.Fatalf("replaying %s: %v", e.Name(), err)
		}
	}
	return counts
}

// TestWALDeltaChainBound: the delta chain has no bound — every Update
// journals exactly one delta record however long the run grows, so N
// updates log 1 full record (the Put) and N deltas, and replay folds
// the whole chain back to the published state.
func TestWALDeltaChainBound(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})

	s.Put(mkOp("chained", t0))
	const updates = 40
	for i := 0; i < updates; i++ {
		if err := s.Update("chained", func(op *core.Operation) {
			op.Error = fmt.Sprintf("attempt %d", i)
			op.UpdatedAt = t0.Add(time.Duration(i+1) * time.Second)
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := listAll(t, s)
	s.closeAbrupt()

	counts := countWALRecordTypes(t, dir)
	if counts[walRecOpV2] != 1 || counts[walRecDeltaV2] != updates || len(counts) != 2 {
		t.Errorf("record counts by type = %v, want 1 full (the Put) and %d deltas", counts, updates)
	}

	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	sameOps(t, listAll(t, r), want)
	got, err := r.Get("chained")
	if err != nil || got.Error != fmt.Sprintf("attempt %d", updates-1) {
		t.Fatalf("Get(chained) = (%+v, %v), want final delta applied", got, err)
	}
}

// TestWALImmutableChangeLogsFullRecord: an Update that touches an
// immutable field (here Deadline) is refused, so no record of any kind
// is journaled for it — the only full record is the Put's — and replay
// recovers the operation without the change.
func TestWALImmutableChangeLogsFullRecord(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})

	s.Put(mkOp("imm", t0))
	if err := s.Update("imm", func(op *core.Operation) {
		op.Deadline = time.Hour
		op.UpdatedAt = t0.Add(time.Second)
	}); !errors.Is(err, errImmutableUpdate) {
		t.Fatalf("Update changing Deadline = %v, want errImmutableUpdate", err)
	}
	s.closeAbrupt()

	counts := countWALRecordTypes(t, dir)
	if counts[walRecOpV2] != 1 || len(counts) != 1 {
		t.Errorf("record counts by type = %v, want only the Put's full record", counts)
	}

	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	got, err := r.Get("imm")
	if err != nil || got.Deadline != 0 || !got.UpdatedAt.Equal(t0) {
		t.Fatalf("Get(imm) = (%+v, %v), want the Put's state with no deadline", got, err)
	}
}

// FuzzWALCodecBinary fuzzes the binary bodies directly: decoding
// arbitrary bytes never panics, anything that decodes cleanly
// re-encodes to a decodable body, and re-encoding reaches a fixed
// point after one pass (a crafted record may set a presence flag on a
// zero value, so the first re-encode may normalise, but no more).
func FuzzWALCodecBinary(f *testing.F) {
	t0 := time.Unix(1000, 0)
	op := mkOp("fuzz-seed", t0)
	op.Params = map[string]any{"k": "v"}
	op.Priority = core.PriorityHigh
	op.Error = "boom"
	op.Result = json.RawMessage(`{"ok":true}`)
	full, err := op.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full, true)
	f.Add(op.AppendBinaryDelta(nil), false)
	f.Add([]byte{}, true)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, false)

	f.Fuzz(func(t *testing.T, data []byte, asOp bool) {
		if asOp {
			dec, err := core.DecodeBinaryOperation(data)
			if err != nil {
				return
			}
			enc1, err := dec.AppendBinary(nil)
			if err != nil {
				t.Fatalf("re-encode of decoded op failed: %v", err)
			}
			dec2, err := core.DecodeBinaryOperation(enc1)
			if err != nil {
				t.Fatalf("re-encoded op body does not decode: %v", err)
			}
			enc2, err := dec2.AppendBinary(nil)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if string(enc2) != string(enc1) {
				t.Fatalf("op codec has no fixed point:\n enc1 %x\n enc2 %x", enc1, enc2)
			}
			if dec2.ID != dec.ID || dec2.Status != dec.Status || !dec2.UpdatedAt.Equal(dec.UpdatedAt) {
				t.Fatalf("re-encode lost fields: %+v vs %+v", dec2, dec)
			}
		} else {
			dec, err := core.DecodeBinaryDelta(data)
			if err != nil {
				return
			}
			enc1 := dec.AppendBinaryDelta(nil)
			dec2, err := core.DecodeBinaryDelta(enc1)
			if err != nil {
				t.Fatalf("re-encoded delta body does not decode: %v", err)
			}
			if string(dec2.AppendBinaryDelta(nil)) != string(enc1) {
				t.Fatalf("delta codec has no fixed point for %x", data)
			}
		}
	})
}
