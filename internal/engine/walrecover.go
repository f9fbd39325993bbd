package engine

// Crash recovery for the WAL store: scan the directory, load the
// newest snapshot, replay the segment suffix on top of it, and repair
// the torn tail a crash mid-append leaves behind.
//
// Recovery replays straight into the store that will serve traffic,
// each file in three steps:
//
//  1. a sequential frame scan — framing is inherently serial (each
//     frame's position depends on the previous length prefix), but it
//     is only header reads plus a CRC per frame;
//  2. parallel decode — the expensive half, the binary record codec,
//     runs over contiguous chunks of the scanned frames, one worker per
//     chunk, as many as GOMAXPROCS and the record count allow;
//  3. apply in log order, each record straight into its shard's map,
//     which is all last-writer-wins needs.
//
// The shard indexes are left empty while the maps fill and are sorted
// once, in parallel, after the last file. The contract is the
// sequential reference's the tests pin (walReplay + applyWALRecord):
// same valid-prefix semantics, same final state.

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// walReplayLogEvery is the record-count granularity of replay progress
// logging: a large-log boot prints a line at least this often instead
// of hanging silently.
const walReplayLogEvery = 50_000

// walDecodeChunk is the fewest records a decode worker is handed:
// below it, starting another goroutine costs more than it saves.
const walDecodeChunk = 1024

// walRef locates one validated frame's payload inside a mapped file:
// the scan stage's output, the decode stage's input.
type walRef struct {
	typ  byte
	body []byte
	off  int // frame's byte offset in the file, for truncation reports
}

// walScanFrames walks the frames in data, validating framing and
// checksums and collecting payload refs (appended to refs, reused
// across files). It returns the refs, the byte length of the
// well-framed prefix, and the torn/corrupt error that ended the walk,
// if any. No record is decoded here.
//
// Zeros from a frame boundary to the end of data are a clean end, and
// count as part of the well-framed prefix: they are the preallocated
// space of a segment the log never reached (wal.prepareNext,
// wal.createSegment). A zero header followed by anything else stays
// corrupt.
func walScanFrames(data []byte, refs []walRef) ([]walRef, int, error) {
	pos := 0
	for pos < len(data) {
		if data[pos] == 0 && walAllZero(data[pos:]) {
			return refs, len(data), nil
		}
		if len(data)-pos < walFrameHeader {
			return refs, pos, errWALTorn
		}
		n := int(walFrameLen(data[pos:]))
		if n < 1 || n > walMaxRecordBytes {
			return refs, pos, fmt.Errorf("%w: impossible payload length %d", errWALCorrupt, n)
		}
		if len(data)-pos-walFrameHeader < n {
			return refs, pos, errWALTorn
		}
		payload := data[pos+walFrameHeader : pos+walFrameHeader+n]
		if !walFrameCRCOK(data[pos:], payload) {
			return refs, pos, fmt.Errorf("%w: checksum mismatch", errWALCorrupt)
		}
		refs = append(refs, walRef{typ: payload[0], body: payload[1:], off: pos})
		pos += walFrameHeader + n
	}
	return refs, pos, nil
}

// replay scans data's frames and applies its records to s's shard maps
// in log order, leaving the indexes to indexAll. It returns how many
// records applied, the byte length of the trusted prefix, and the torn,
// corrupt or undecodable frame that ended it, if any — the contract of
// sequential replay: everything before the failure is applied,
// everything from it on is untrusted. refs is scratch reused across
// files. The store must not be serving yet; nothing is locked.
func (s *shardedStore) replay(data []byte, refs *[]walRef) (applied, valid int, err error) {
	*refs, valid, err = walScanFrames(data, (*refs)[:0])
	scanned := *refs

	// Workers decode disjoint chunks, each stopping at its own first
	// failure; the earliest failing chunk's failure is the cut, and
	// whatever later chunks decoded past it is never applied.
	workers := max(1, min(runtime.GOMAXPROCS(0), len(scanned)/walDecodeChunk))
	chunk := (len(scanned) + workers - 1) / workers
	decoded := make([]walDecoded, len(scanned))
	cuts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * chunk; i < min((w+1)*chunk, len(scanned)); i++ {
				if decoded[i], errs[w] = decodeWALRecord(scanned[i].typ, scanned[i].body); errs[w] != nil {
					cuts[w] = i
					return
				}
			}
		}()
	}
	wg.Wait()

	applied = len(scanned)
	for w, derr := range errs {
		if derr != nil {
			applied, valid, err = cuts[w], scanned[cuts[w]].off, derr
			break
		}
	}
	for _, d := range decoded[:applied] {
		applyDecoded(s.shard(d.id()).ops, d)
	}
	return applied, valid, err
}

// walLayout describes what recovery found on disk, for newWAL to
// continue from.
type walLayout struct {
	// segs are the surviving segment indexes, ascending. They stay
	// live (and are replayed on the next open too) until compaction
	// folds them into a snapshot.
	segs []int
	// snapSeg is the highest segment index the loaded snapshot covers,
	// -1 when no snapshot was used.
	snapSeg int
	// maxSeg is the highest segment index ever observed (on disk or
	// covered by a snapshot); the next segment opens at maxSeg+1 so
	// indexes never repeat even across compactions.
	maxSeg int
}

// recoverWALState rebuilds the operation state from dir into a fresh
// store of the given shard count, with no journal attached: newest
// intact snapshot first, then every segment newer than it in ascending
// order. A segment's zero tail is its clean end, not a bad frame (see
// walScanFrames), so a closed segment with unused preallocated space
// costs the segments after it nothing. Replay stops at the first torn
// or corrupt frame; the file holding it is truncated to its valid
// prefix and any later segments — which a pure crash cannot produce,
// only real corruption — are deleted (loudly) so that what remains on
// disk always equals the recovered state. An unusable snapshot is an error unless every segment it
// covered beyond the state fallen back to is still on disk: booting
// without them would silently forget acknowledged operations.
func recoverWALState(dir string, shards int) (*shardedStore, walLayout, error) {
	layout := walLayout{snapSeg: -1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, layout, fmt.Errorf("wal: scanning %s: %w", dir, err)
	}
	var segs, snaps []int
	for _, e := range entries {
		var i int
		switch {
		case parseWALName(e.Name(), "wal-%08d.log", &i):
			segs = append(segs, i)
		case parseWALName(e.Name(), "snap-%08d.wal", &i):
			snaps = append(snaps, i)
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)

	state := newShardedStore(shards)
	replayed := 0 // cumulative applied records, for progress logging
	var refs []walRef

	// Try snapshots newest-first, each into a fresh store that is
	// adopted only if it replays cleanly: a snapshot that does not
	// (which the atomic rename install should make impossible) is
	// skipped entirely rather than half-applied. skipped is the newest
	// one passed over.
	skipped := -1
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(dir, walSnapName(snaps[i]))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, layout, fmt.Errorf("wal: reading snapshot %s: %w", path, err)
		}
		trial := newShardedStore(shards)
		n, valid, rerr := trial.replay(data, &refs)
		if rerr != nil {
			log.Printf("engine: wal snapshot %s unusable (%v at offset %d); skipping it", path, rerr, valid)
			skipped = max(skipped, snaps[i])
			continue
		}
		state = trial
		layout.snapSeg = snaps[i]
		replayed = n
		log.Printf("engine: wal replayed snapshot %s: %d records, %d operations live", path, n, state.Len())
		break
	}
	layout.maxSeg = layout.snapSeg
	// Falling back is complete only in the crash window between a
	// snapshot's install and the prune of what it covers: segment
	// indexes are consecutive, so every one in (snapSeg, skipped] must
	// still be there to replay.
	for seg := layout.snapSeg + 1; seg <= skipped; seg++ {
		if _, ok := slices.BinarySearch(segs, seg); !ok {
			return nil, layout, fmt.Errorf("wal: snapshot %s is unusable and segment %s, which it covered, is already pruned: refusing to start without the operations they held",
				filepath.Join(dir, walSnapName(skipped)), walSegName(seg))
		}
	}

	// Replay segments newer than the snapshot, oldest first. The first
	// bad frame ends the trusted history: truncate there, drop
	// anything after.
	truncated := false
	for _, seg := range segs {
		if seg > layout.maxSeg {
			layout.maxSeg = seg
		}
		if seg <= layout.snapSeg {
			// Obsolete: its contents are inside the snapshot. Remove it now
			// so the live set stays minimal.
			if err := os.Remove(filepath.Join(dir, walSegName(seg))); err != nil {
				return nil, layout, fmt.Errorf("wal: pruning covered segment %d: %w", seg, err)
			}
			continue
		}
		path := filepath.Join(dir, walSegName(seg))
		if truncated {
			log.Printf("engine: wal dropping segment %s: it follows a corrupt frame", path)
			if err := os.Remove(path); err != nil {
				return nil, layout, fmt.Errorf("wal: dropping segment %d: %w", seg, err)
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, layout, fmt.Errorf("wal: reading segment %s: %w", path, err)
		}
		n, valid, rerr := state.replay(data, &refs)
		layout.segs = append(layout.segs, seg)
		before := replayed
		replayed += n
		log.Printf("engine: wal replayed segment %s: %d records, %d operations live", path, n, state.Len())
		if before/walReplayLogEvery != replayed/walReplayLogEvery {
			log.Printf("engine: wal replay progress: %d records applied", replayed)
		}
		if rerr != nil {
			log.Printf("engine: wal segment %s: %v at offset %d; truncating to valid prefix", path, rerr, valid)
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, layout, fmt.Errorf("wal: truncating torn segment %d: %w", seg, err)
			}
			truncated = true
		}
	}
	state.indexAll()
	return state, layout, nil
}

// parseWALName matches a directory entry against a wal file pattern,
// requiring an exact round-trip so stray files (snap.tmp, editor
// droppings) are ignored.
func parseWALName(name, pattern string, i *int) bool {
	var n int
	if _, err := fmt.Sscanf(name, pattern, &n); err != nil {
		return false
	}
	if fmt.Sprintf(pattern, n) != name {
		return false
	}
	*i = n
	return true
}
