package engine

// Crash recovery for the WAL store: scan the directory, load the
// newest snapshot, replay the segment suffix on top of it, and repair
// the torn tail a crash mid-append leaves behind.
//
// Replay is a three-stage pipeline per file:
//
//  1. a sequential frame scan — framing is inherently serial (each
//     frame's position depends on the previous length prefix), but it
//     is only header reads plus a CRC per frame;
//  2. parallel decode — the expensive half, the binary record codec,
//     fans out across GOMAXPROCS workers over contiguous chunks of the
//     scanned frames;
//  3. partitioned apply — records are partitioned by operation ID
//     (the shard key), and one worker per partition walks the decoded
//     records in log order applying only its own IDs. Same ID → same
//     partition → same worker, so per-operation replay order is
//     exactly the log order, which is all last-writer-wins needs.
//
// The partition states persist across the snapshot and every segment
// and merge into one map at the end, so the function's contract is
// identical to the sequential version the fuzz target still pins
// (walReplay + applyWALRecord): same valid-prefix semantics, same
// final state.

import (
	"fmt"
	"hash/maphash"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"opdaemon/internal/core"
)

// walReplayLogEvery is the record-count granularity of replay progress
// logging: a large-log boot prints a line at least this often instead
// of hanging silently.
const walReplayLogEvery = 50_000

// walParallelMinRecords is the fan-out floor: files with fewer scanned
// records decode inline — goroutine startup would cost more than it
// saves.
const walParallelMinRecords = 4096

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
func walScanFrames(data []byte, refs []walRef) ([]walRef, int, error) {
	pos := 0
	for pos < len(data) {
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

// replayPartitions is replay state sharded for parallel apply: one
// operation map per worker, partitioned by ID hash so each ID's
// records always land in the same map in log order.
type replayPartitions struct {
	n     int
	state []map[string]*core.Operation
}

func newReplayPartitions(n int) *replayPartitions {
	if n < 1 {
		n = 1
	}
	p := &replayPartitions{n: n, state: make([]map[string]*core.Operation, n)}
	for i := range p.state {
		p.state[i] = make(map[string]*core.Operation)
	}
	return p
}

// part maps an operation ID to its partition — the same maphash the
// store's sharding uses, modulo the worker count.
func (p *replayPartitions) part(id string) int {
	if p.n == 1 {
		return 0
	}
	return int(maphash.String(shardSeed, id) % uint64(p.n))
}

// len counts live operations across all partitions.
func (p *replayPartitions) len() int {
	total := 0
	for _, m := range p.state {
		total += len(m)
	}
	return total
}

// merge flattens the partitions into one map, consuming the receiver.
func (p *replayPartitions) merge() map[string]*core.Operation {
	out := make(map[string]*core.Operation, p.len())
	for _, m := range p.state {
		for id, op := range m {
			out[id] = op
		}
	}
	return out
}

// applyRefs decodes and applies the scanned records in log order,
// fanning decode and apply out across the partitions' workers when the
// file is big enough to pay for it. It returns how many leading
// records applied and, when that is fewer than len(refs), the decode
// failure that ended the trusted prefix — the same contract as
// sequential replay: everything before the failure is applied,
// everything from it on is untrusted.
func (p *replayPartitions) applyRefs(refs []walRef) (int, error) {
	if len(refs) == 0 {
		return 0, nil
	}
	if p.n == 1 || len(refs) < walParallelMinRecords {
		for i, ref := range refs {
			d, err := decodeWALRecord(ref.typ, ref.body)
			if err != nil {
				return i, err
			}
			applyDecoded(p.state[p.part(d.id())], d)
		}
		return len(refs), nil
	}

	// Decode stage: contiguous chunks, one worker each. Workers write
	// disjoint index ranges of decoded/parts, so no locking; the
	// earliest failing index wins via atomic min and bounds the
	// trusted prefix.
	decoded := make([]walDecoded, len(refs))
	parts := make([]int32, len(refs))
	errs := make([]error, len(refs))
	errIdx := atomic.Int64{}
	errIdx.Store(int64(len(refs)))
	chunk := (len(refs) + p.n - 1) / p.n
	var wg sync.WaitGroup
	for w := 0; w < p.n; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(refs))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				d, err := decodeWALRecord(refs[i].typ, refs[i].body)
				if err != nil {
					// Everything after a bad record is untrusted, so
					// this chunk is done; later chunks may decode bytes
					// beyond the cut, which apply then ignores.
					errs[i] = err
					for {
						cur := errIdx.Load()
						if int64(i) >= cur || errIdx.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					return
				}
				decoded[i] = d
				parts[i] = int32(p.part(d.id()))
			}
		}(lo, hi)
	}
	wg.Wait()

	cut := int(errIdx.Load())
	// Apply stage: one worker per partition walks the decoded records
	// in log order and applies only its own IDs — per-ID order is the
	// log order by construction.
	for w := 0; w < p.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := p.state[w]
			for i := 0; i < cut; i++ {
				if parts[i] == int32(w) {
					applyDecoded(state, decoded[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if cut < len(refs) {
		return cut, errs[cut]
	}
	return cut, nil
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

// recoverWALState rebuilds the operation state from dir: newest intact
// snapshot first, then every segment newer than it in ascending order.
// Replay stops at the first torn or corrupt frame; the file holding it
// is truncated to its valid prefix and any later segments — which a
// pure crash cannot produce, only real corruption — are deleted (loudly)
// so that what remains on disk always equals the recovered state. An
// unusable snapshot is an error unless every segment it covered beyond
// the state fallen back to is still on disk: booting without them would
// silently forget acknowledged operations.
func recoverWALState(dir string) (map[string]*core.Operation, walLayout, error) {
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

	state := newReplayPartitions(runtime.GOMAXPROCS(0))
	replayed := 0 // cumulative applied records, for progress logging
	var refs []walRef

	// Try snapshots newest-first; a snapshot that fails to replay
	// cleanly (which the atomic rename install should make impossible)
	// is skipped entirely rather than half-applied. skipped is the
	// newest one passed over.
	skipped := -1
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(dir, walSnapName(snaps[i]))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, layout, fmt.Errorf("wal: reading snapshot %s: %w", path, err)
		}
		var valid int
		var rerr error
		refs, valid, rerr = walScanFrames(data, refs[:0])
		trial := newReplayPartitions(state.n)
		n := 0
		if rerr == nil {
			n, rerr = trial.applyRefs(refs)
		}
		if rerr != nil {
			log.Printf("engine: wal snapshot %s unusable (%v at offset %d); skipping it", path, rerr, valid)
			skipped = max(skipped, snaps[i])
			continue
		}
		state = trial
		layout.snapSeg = snaps[i]
		replayed = n
		log.Printf("engine: wal replayed snapshot %s: %d records, %d operations live", path, n, state.len())
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
		var valid int
		var rerr error
		refs, valid, rerr = walScanFrames(data, refs[:0])
		n, aerr := state.applyRefs(refs)
		if aerr != nil {
			// A record that scans but does not decode ends the trusted
			// prefix at its own frame, before wherever the scan stopped.
			valid, rerr = refs[n].off, aerr
		}
		layout.segs = append(layout.segs, seg)
		before := replayed
		replayed += n
		log.Printf("engine: wal replayed segment %s: %d records, %d operations live", path, n, state.len())
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
	return state.merge(), layout, nil
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
