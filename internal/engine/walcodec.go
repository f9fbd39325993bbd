package engine

// The WAL record codec: a self-describing framed byte format shared by
// log segments and snapshots, so one replay routine (and one fuzz
// target) covers both.
//
// Each frame is
//
//	| length uint32 LE | crc32 uint32 LE | payload (length bytes) |
//
// where payload is one record-type byte followed by the record body and
// the checksum (IEEE CRC32) covers the whole payload. The length prefix
// makes frames skippable without parsing bodies; the checksum makes a
// torn or bit-flipped tail detectable, which is what lets recovery
// truncate at the first bad frame instead of guessing. Zeros from a
// frame boundary to the end of a file end it cleanly: segments are
// zero-filled before the log writes into them (see wal.prepareNext and
// wal.createSegment).
//
// Record bodies: a full snapshot (type 4, written by Put/PutBatch and
// compaction, and by Update in older daemons) is the operation's compact
// binary encoding (core.AppendBinary); a delta (type 5, every Update)
// carries only the mutable field set (core.AppendBinaryDelta); a delete
// (type 3) is the raw ID. Every record decodes in place into the walRef
// the frame scan filled (decodeWALRecord). A delta replays by folding
// onto the ID's current replay state (core.ApplyDelta); a delta whose
// base is absent is skipped —
// the snapshot-overlap window makes that shape legitimate (the op was
// deleted before the snapshot was cut, but its delta records live in
// retained segments).
//
// Replay treats every full-record type as an idempotent upsert keyed
// by ID, so re-applying an overlapping snapshot + segment suffix
// converges on the same state.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"opdaemon/internal/core"
)

// WAL record types. The zero value is deliberately unused so an
// all-zeroes torn frame can never masquerade as a valid record type.
// Types 1 and 2 were a JSON-bodied generation that never shipped; like
// any unknown type they end the valid prefix.
const (
	walRecDelete  byte = 3 // raw ID body
	walRecOpV2    byte = 4 // full snapshot, binary body
	walRecDeltaV2 byte = 5 // mutable-field delta, binary body
)

// walFrameHeader is the fixed per-frame overhead: 4-byte length plus
// 4-byte checksum.
const walFrameHeader = 8

// walMaxRecordBytes bounds a single frame's payload. Real records are a
// few hundred bytes; the bound exists so a corrupt (or fuzzed) length
// field is rejected as a bad frame instead of driving a giant
// allocation.
const walMaxRecordBytes = 64 << 20

// Sentinel replay failures. Both mean "the valid prefix ends here";
// they differ only in what the bytes after it look like, which recovery
// reports but handles the same way.
var (
	// errWALTorn means the data ends mid-frame — the classic crash
	// mid-append shape.
	errWALTorn = errors.New("wal: torn trailing frame")
	// errWALCorrupt means a structurally complete frame failed its
	// checksum or carried an impossible length or type.
	errWALCorrupt = errors.New("wal: corrupt frame")
)

// reserveWALFrame appends a zeroed frame header to dst and returns the
// grown slice plus the header's offset. The caller appends the payload
// (type byte + body) directly, then calls finishWALFrame with the same
// mark — the record is built in place with no intermediate body
// buffer.
func reserveWALFrame(dst []byte) ([]byte, int) {
	mark := len(dst)
	var hdr [walFrameHeader]byte
	return append(dst, hdr[:]...), mark
}

// finishWALFrame backfills the length and checksum for the frame whose
// header was reserved at mark, covering everything appended since.
func finishWALFrame(dst []byte, mark int) []byte {
	payload := dst[mark+walFrameHeader:]
	binary.LittleEndian.PutUint32(dst[mark:mark+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[mark+4:mark+8], crc32.ChecksumIEEE(payload))
	return dst
}

// encodeOpRecordV2 appends a framed v2 full-snapshot record to dst in
// place: header reserved, payload appended directly, length + CRC
// backfilled. No intermediate body allocation.
func encodeOpRecordV2(dst []byte, op *core.Operation) ([]byte, error) {
	dst, mark := reserveWALFrame(dst)
	dst = append(dst, walRecOpV2)
	dst, err := op.AppendBinary(dst)
	if err != nil {
		return dst[:mark], fmt.Errorf("wal: %w", err)
	}
	return finishWALFrame(dst, mark), nil
}

// encodeDeltaRecordV2 appends a framed v2 delta record for op to dst
// in place. The caller has already established delta eligibility
// (core.DeltaEligible), which guarantees encoding cannot fail.
func encodeDeltaRecordV2(dst []byte, op *core.Operation) []byte {
	dst, mark := reserveWALFrame(dst)
	dst = append(dst, walRecDeltaV2)
	dst = op.AppendBinaryDelta(dst)
	return finishWALFrame(dst, mark)
}

// appendDeleteRecord appends a framed deletion to dst; the body is the
// raw ID.
func appendDeleteRecord(dst []byte, id string) []byte {
	dst, mark := reserveWALFrame(dst)
	dst = append(dst, walRecDelete)
	dst = append(dst, id...)
	return finishWALFrame(dst, mark)
}

// deleteRecordLen is how many bytes appendDeleteRecord appends for id.
func deleteRecordLen(id string) int {
	return walFrameHeader + 1 + len(id)
}

// walEncPool recycles record-encode buffers so the hot mutation path
// (which must encode before taking the shard lock, see lockscope's
// codec rule) doesn't allocate a fresh buffer per record. Pooled as
// *[]byte to keep the slice header off the heap on Put.
var walEncPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// walEncPoolMaxCap bounds what returns to the pool: an occasional
// giant record (big params blob) must not pin its buffer forever.
const walEncPoolMaxCap = 1 << 20

// getEncBuf returns an empty pooled encode buffer.
func getEncBuf() *[]byte {
	b := walEncPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putEncBuf returns a buffer to the pool once its bytes have been
// copied into the WAL batch. Oversized buffers are dropped; nil (a
// store without a journal never took one) is a no-op.
func putEncBuf(b *[]byte) {
	if b != nil && cap(*b) <= walEncPoolMaxCap {
		walEncPool.Put(b)
	}
}

// walZeros is the one zero buffer the log needs: segment preparation
// writes it over and over to zero-fill a file, and replay compares
// against it to recognise a zero tail. Never written.
var walZeros [64 << 10]byte

// walAllZero reports whether b holds nothing but zero bytes.
func walAllZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(walZeros))
		if !bytes.Equal(b[:n], walZeros[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// walFrameLen reads the payload length from a frame header; the caller
// guarantees at least walFrameHeader bytes.
func walFrameLen(frame []byte) uint32 {
	return binary.LittleEndian.Uint32(frame[0:4])
}

// walFrameCRCOK checks the frame's stored checksum against its payload.
func walFrameCRCOK(frame, payload []byte) bool {
	return crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(frame[4:8])
}

// decodeWALRecord completes a scanned record in place: it sets r.id and
// r.op from r.typ and r.body without touching replay state — the pure
// half that parallel recovery fans out. A full record decodes to the
// whole operation, a delta to one holding only the ID and the mutable
// field set (core.DecodeBinaryDelta), a delete to its ID alone. The
// decoded operation owns its memory; body may be reused.
func decodeWALRecord(r *walRef) error {
	var err error
	switch r.typ {
	case walRecOpV2:
		r.op, err = core.DecodeBinaryOperation(r.body)
	case walRecDeltaV2:
		r.op, err = core.DecodeBinaryDelta(r.body)
	case walRecDelete:
		r.id = string(r.body)
		return nil
	default:
		return fmt.Errorf("%w: unknown record type %d", errWALCorrupt, r.typ)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errWALCorrupt, err)
	}
	r.id = r.op.ID
	return nil
}

// applyDecoded folds one decoded record into the replay state map:
// full records upsert, deltas fold onto the ID's current state (a
// delta with no base is skipped — see the package comment), deletes
// remove. The sequential reference the tests hold recovery to and
// recovery's replay into the store's shard maps share this one
// definition of "apply", so their semantics cannot drift.
func applyDecoded(state map[string]*core.Operation, r *walRef) {
	switch r.typ {
	case walRecOpV2:
		state[r.id] = r.op
	case walRecDeltaV2:
		if base, ok := state[r.id]; ok {
			state[r.id] = core.ApplyDelta(base, r.op)
		}
	case walRecDelete:
		delete(state, r.id)
	}
}
