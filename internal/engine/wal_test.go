package engine

// Crash-recovery, compaction, and observability tests for the WAL
// store, plus the engine-level Recover contract. The crash tests use
// closeAbrupt — the committer exits without the final flush, like a
// killed process — and byte-level corruption injection to simulate
// torn writes.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// openWAL opens a store over dir with test-friendly defaults, failing
// the test on error. The caller owns Close (or closeAbrupt).
func openWAL(t *testing.T, dir string, cfg WALConfig) *WALStore {
	t.Helper()
	cfg.Dir = dir
	s, err := OpenWALStore(cfg)
	if err != nil {
		t.Fatalf("OpenWALStore(%s): %v", dir, err)
	}
	return s
}

// sameOps asserts two listings are equal on every field replay must
// preserve.
func sameOps(t *testing.T, got, want []*core.Operation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("listing has %d ops, want %d\ngot:  %v\nwant: %v",
			len(got), len(want), listIDs(got), listIDs(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.Status != w.Status {
			t.Errorf("op[%d] = {%s %s %s}, want {%s %s %s}",
				i, g.ID, g.Kind, g.Status, w.ID, w.Kind, w.Status)
		}
		if !g.CreatedAt.Equal(w.CreatedAt) || !g.UpdatedAt.Equal(w.UpdatedAt) {
			t.Errorf("op[%d] %s times = (%v, %v), want (%v, %v)",
				i, g.ID, g.CreatedAt, g.UpdatedAt, w.CreatedAt, w.UpdatedAt)
		}
	}
}

// TestWALStoreRecoversAfterCrash is the core durability claim: under
// WALSyncAlways every returned mutation survives an abrupt exit, so
// the recovered index is byte-for-byte the pre-crash index.
func TestWALStoreRecoversAfterCrash(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})

	for i := 0; i < 10; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%02d", i), t0.Add(time.Duration(i)*time.Second)))
	}
	for i := 0; i < 10; i += 2 {
		id := fmt.Sprintf("op-%02d", i)
		if err := s.Update(id, func(op *core.Operation) {
			op.Status = core.StatusDone
			op.UpdatedAt = t0.Add(time.Minute)
		}); err != nil {
			t.Fatalf("Update(%s): %v", id, err)
		}
	}
	// Tombstone op-03 and op-07 through a sweep, the store's only
	// eviction path.
	for _, id := range []string{"op-03", "op-07"} {
		if err := s.Update(id, func(op *core.Operation) { op.Status = core.StatusFailed }); err != nil {
			t.Fatalf("Update(%s): %v", id, err)
		}
	}
	if got := s.SweepTerminalBefore(t0.Add(time.Minute)); got != 2 {
		t.Fatalf("sweep evicted %d, want op-03 and op-07", got)
	}
	want := listAll(t, s)

	s.closeAbrupt()

	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	sameOps(t, listAll(t, r), want)
}

// TestWALStoreRecoversTornTail simulates a crash mid-append: garbage
// after the last complete frame. Recovery must truncate the segment
// back to its valid prefix and lose nothing that was committed.
func TestWALStoreRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	for i := 0; i < 5; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second)))
	}
	want := listAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The first open wrote segment 0. Tear its tail: a length prefix
	// promising more bytes than exist, the shape an interrupted
	// write+crash leaves behind.
	seg := filepath.Join(dir, walSegName(0))
	intact, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("stat segment: %v", err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open segment for tearing: %v", err)
	}
	if _, err := f.Write([]byte{0xEE, 0x01, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x42}); err != nil {
		t.Fatalf("tearing segment: %v", err)
	}
	f.Close()

	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	sameOps(t, listAll(t, r), want)
	repaired, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("stat repaired segment: %v", err)
	}
	if repaired.Size() != intact.Size() {
		t.Errorf("repaired segment is %d bytes, want %d (truncated to valid prefix)",
			repaired.Size(), intact.Size())
	}
}

// TestWALStoreRecoversCorruptMiddle damages an earlier record: the
// valid prefix ends there, and recovery must converge on exactly the
// operations before it — deterministic state, not best-effort
// scavenging. The damage is either a bit flip (checksum mismatch) or a
// well-formed frame of a type replay does not know; types 1 and 2, the
// retired JSON-bodied generation, are exactly that now.
func TestWALStoreRecoversCorruptMiddle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		damage  func(frame []byte)
		wantErr string
	}{
		{"bit flip", func(frame []byte) {
			frame[walFrameHeader+2] ^= 0xFF // payload bit-flip → CRC mismatch
		}, "checksum mismatch"},
		{"retired type 1", func(frame []byte) { retypeFrame(frame, 1) }, "unknown record type 1"},
		{"retired type 2", func(frame []byte) { retypeFrame(frame, 2) }, "unknown record type 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			t0 := time.Unix(1000, 0)
			s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
			ops := make([]*core.Operation, 6)
			offset := 0 // byte offset of each op's frame in segment 0
			corruptAt, corruptLen := -1, 0
			const corruptIdx = 3
			for i := range ops {
				ops[i] = mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i)*time.Second))
				rec, err := encodeOpRecordV2(nil, ops[i])
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				if i == corruptIdx {
					corruptAt, corruptLen = offset, len(rec)
				}
				offset += len(rec)
				s.Put(ops[i])
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			seg := filepath.Join(dir, walSegName(0))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatalf("reading segment: %v", err)
			}
			tc.damage(data[corruptAt : corruptAt+corruptLen])
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatalf("writing corrupted segment: %v", err)
			}

			state := make(map[string]*core.Operation)
			n, err := walReplay(data, func(typ byte, body []byte) error {
				return applyWALRecord(state, typ, body)
			})
			if n != corruptAt || !errors.Is(err, errWALCorrupt) || !strings.Contains(fmt.Sprint(err), tc.wantErr) {
				t.Errorf("replay = (%d, %v), want the valid prefix to end at %d as errWALCorrupt %q", n, err, corruptAt, tc.wantErr)
			}

			r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
			defer r.Close()
			got := listAll(t, r)
			if len(got) != corruptIdx {
				t.Fatalf("recovered %d ops (%v), want the %d before the corrupt frame",
					len(got), listIDs(got), corruptIdx)
			}
			for _, op := range got {
				if _, err := r.Get(op.ID); err != nil {
					t.Errorf("Get(%s): %v", op.ID, err)
				}
			}
		})
	}
}

// retypeFrame rewrites a frame's record-type byte and re-seals its
// checksum, leaving a structurally valid frame of another type.
func retypeFrame(frame []byte, typ byte) {
	frame[walFrameHeader] = typ
	finishWALFrame(frame, 0)
}

// TestWALRecoverZeroTails: zeros to the end of a segment are the unused
// preallocated space of a segment the log moved past or never reached,
// so a closed segment with a zero tail, or one that is all zeros, ends
// cleanly: recovery keeps every record in it and every segment after it,
// and truncates nothing. Zeros followed by anything else stay corrupt.
func TestWALRecoverZeroTails(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// segment writes seg of dir holding the given operations' records,
	// then tail.
	segment := func(t *testing.T, dir string, seg int, tail []byte, ids ...string) {
		t.Helper()
		var data []byte
		for i, id := range ids {
			var err error
			if data, err = encodeOpRecordV2(data, mkOp(id, t0.Add(time.Duration(i)*time.Second))); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, walSegName(seg)), append(data, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	zeros := make([]byte, 3*len(walZeros)/2) // more than one comparison chunk

	t.Run("closed zero-tailed segments keep what follows", func(t *testing.T) {
		dir := t.TempDir()
		segment(t, dir, 0, zeros, "a", "b")
		segment(t, dir, 1, zeros) // a prepared segment never used
		segment(t, dir, 2, zeros[:5], "c")
		segment(t, dir, 3, nil, "d")
		s, layout, err := recoverWALState(dir, 4)
		if err != nil {
			t.Fatalf("recoverWALState: %v", err)
		}
		if got := s.Len(); got != 4 {
			t.Errorf("recovered %d operations, want all 4", got)
		}
		if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(layout.segs, want) {
			t.Errorf("live segments = %v, want %v: a zero tail dropped what follows", layout.segs, want)
		}
		if fi, err := os.Stat(filepath.Join(dir, walSegName(1))); err != nil || fi.Size() != int64(len(zeros)) {
			t.Errorf("the all-zero segment was changed: %v, %v", fi, err)
		}
	})

	t.Run("zeros then garbage are corrupt", func(t *testing.T) {
		dir := t.TempDir()
		segment(t, dir, 0, append(append([]byte(nil), zeros...), 0x42), "a", "b")
		segment(t, dir, 1, nil, "c")
		s, layout, err := recoverWALState(dir, 4)
		if err != nil {
			t.Fatalf("recoverWALState: %v", err)
		}
		if got := s.Len(); got != 2 {
			t.Errorf("recovered %d operations, want the 2 before the corruption", got)
		}
		if want := []int{0}; !reflect.DeepEqual(layout.segs, want) {
			t.Errorf("live segments = %v, want %v: a segment after a corrupt frame survived", layout.segs, want)
		}
	})
}

// TestWALStoreFlushBarrier: group mode logs transitions asynchronously,
// but Flush is a hard durability barrier — everything staged before it
// must survive a crash immediately after it.
func TestWALStoreFlushBarrier(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncGroup})
	s.Put(mkOp("a", t0))
	if err := s.Update("a", func(op *core.Operation) {
		op.Status = core.StatusDone
		op.UpdatedAt = t0.Add(time.Minute)
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s.closeAbrupt()

	r := openWAL(t, dir, WALConfig{Sync: WALSyncGroup})
	defer r.Close()
	got, err := r.Get("a")
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if got.Status != core.StatusDone {
		t.Errorf("recovered status = %s, want done (flushed update lost)", got.Status)
	}
}

// waitSnapshot waits for the asynchronous compaction to install a
// snapshot in dir.
func waitSnapshot(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.wal")); len(snaps) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot appeared although closed segments exceed maxSegs")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWALStoreCompaction drives segment rotation until the committer
// folds closed segments into a snapshot, then proves the snapshot is
// sufficient: a reopen recovers the full state from it plus the
// surviving suffix.
func TestWALStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	// Every commit overflows the 1-byte segment bound, so each Put
	// rotates once the one before it has prepared the next segment; two
	// closed segments trigger compaction.
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: 1, maxSegs: 2})
	const n = 12
	for i := 0; i < n; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%02d", i), t0.Add(time.Duration(i)*time.Second)))
		awaitPrep(s)
	}
	waitSnapshot(t, dir)
	want := listAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) >= n {
		t.Errorf("%d segments survive after compaction, want far fewer than %d", len(segs), n)
	}

	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	sameOps(t, listAll(t, r), want)
}

// TestWALFailedCompactionWaitsForRotation: a snapshot that cannot be
// written (ENOSPC, EIO) is not retried by every commit — each retry
// dumps the whole store again and logs a line — but once per segment
// closed since the attempt.
func TestWALFailedCompactionWaitsForRotation(t *testing.T) {
	attempts := make(chan struct{}, 1024)
	hook := func(f *os.File) error {
		if filepath.Base(f.Name()) == walSnapTmp {
			attempts <- struct{}{}
			return syscall.EIO
		}
		return f.Sync()
	}
	dir := t.TempDir()
	// One closed segment triggers compaction; a 4 KiB segment takes
	// many Puts to fill, so the commits between rotations are many.
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: 4 << 10, maxSegs: 1, syncHook: hook})
	i := 0
	put := func() {
		s.Put(mkOp(fmt.Sprintf("op-%03d", i), time.Unix(1000+int64(i), 0)))
		i++
		awaitPrep(s)
	}
	rotate := func() {
		for n := s.WALStats().Segments; s.WALStats().Segments == n; {
			put()
		}
	}
	rotate()
	select {
	case <-attempts:
	case <-time.After(5 * time.Second):
		t.Fatal("no compaction attempt after a segment closed")
	}
	for range 8 { // commits that close no segment
		put()
	}
	rotate()
	if err := s.Close(); err != nil { // waits for a compaction in flight
		t.Fatalf("Close: %v", err)
	}
	if got := len(attempts); got != 1 {
		t.Errorf("%d compaction attempts after the first failed, want 1: one for the one segment closed since", got)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap*")); len(snaps) != 0 {
		t.Errorf("failed compactions left %v", snaps)
	}
}

// flipByte inverts the byte in the middle of the file, which lands inside
// a CRC-covered frame.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("reading %s to corrupt it: %d bytes, %v", path, len(data), err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALStoreUnusableSnapshot: a snapshot that does not replay may be
// passed over only while the segments it covered are all still on disk
// (a crash between its install and the prune); once they are pruned the
// store refuses to open rather than boot without the operations the
// snapshot held. One passed over is pruned by the next compaction, like
// any snapshot older than the one it installs.
func TestWALStoreUnusableSnapshot(t *testing.T) {
	t0 := time.Unix(1000, 0)
	const n = 12
	// With 64-byte segments every Put after the first rotates, once the
	// Put before it has prepared the next segment.
	fill := func(s *WALStore) []*core.Operation {
		for i := 0; i < n; i++ {
			s.Put(mkOp(fmt.Sprintf("op-%02d", i), t0.Add(time.Duration(i)*time.Second)))
			awaitPrep(s)
		}
		return listAll(t, s)
	}

	t.Run("covered segments pruned", func(t *testing.T) {
		dir := t.TempDir()
		s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: 64, maxSegs: 2})
		fill(s)
		waitSnapshot(t, dir)
		if err := s.Close(); err != nil { // waits for the compaction's prune
			t.Fatalf("Close: %v", err)
		}
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.wal"))
		newest := snaps[len(snaps)-1]
		flipByte(t, newest)
		r, err := OpenWALStore(WALConfig{Dir: dir, Sync: WALSyncAlways})
		if err == nil {
			got := r.Len()
			r.Close()
			t.Fatalf("OpenWALStore over a corrupt snapshot whose segments are pruned = nil error, %d of %d operations", got, n)
		}
		if !strings.Contains(err.Error(), filepath.Base(newest)) {
			t.Errorf("error %q does not name the snapshot %s", err, filepath.Base(newest))
		}
	})

	t.Run("covered segments still on disk", func(t *testing.T) {
		dir := t.TempDir()
		// Rotation without compaction: every segment stays.
		s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: 64, maxSegs: 1 << 20})
		want := fill(s)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if len(segs) < 3 {
			t.Fatalf("%d segments after %d puts with 64-byte segments, want several", len(segs), n)
		}
		// The crash window: a snapshot covering every segment was
		// installed, unreadable, and nothing was pruned yet.
		var last int
		if !parseWALName(filepath.Base(segs[len(segs)-1]), "wal-%08d.log", &last) {
			t.Fatalf("unparsable segment name %s", segs[len(segs)-1])
		}
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		snap := filepath.Join(dir, walSnapName(last))
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipByte(t, snap)
		r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
		defer r.Close()
		sameOps(t, listAll(t, r), want)
	})

	t.Run("skipped snapshot pruned by the next compaction", func(t *testing.T) {
		dir := t.TempDir()
		s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: 64, maxSegs: 1 << 20})
		fill(s)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// An unreadable snapshot over segments that are all still on
		// disk: recovery skips it and replays the segments instead.
		data, err := os.ReadFile(filepath.Join(dir, walSegName(0)))
		if err != nil {
			t.Fatal(err)
		}
		planted := filepath.Join(dir, walSnapName(2))
		if err := os.WriteFile(planted, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipByte(t, planted)
		// Every segment counts as closed past the (absent) usable
		// snapshot, so the first commit compacts; Close waits for it.
		r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: 64, maxSegs: 2})
		r.Put(mkOp("after-reopen", t0))
		want := listAll(t, r)
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.wal"))
		if len(snaps) != 1 || snaps[0] == planted {
			t.Fatalf("snapshots after compaction = %v, want exactly one, newer than the skipped %s", snaps, filepath.Base(planted))
		}
		again := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
		defer again.Close()
		sameOps(t, listAll(t, again), want)
	})
}

// TestWALStoreStats exercises the observability counters end to end:
// the store reports them and Engine.Stats surfaces them when its store
// is durable.
func TestWALStoreStats(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1000, 0)
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	for i := 0; i < 4; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%d", i), t0))
	}
	ws := s.WALStats()
	if ws.Segments < 1 {
		t.Errorf("WALStats.Segments = %d, want >= 1", ws.Segments)
	}
	if ws.BatchP50 < 1 {
		t.Errorf("WALStats.BatchP50 = %v, want >= 1 after committed batches", ws.BatchP50)
	}
	if ws.FsyncsPerSec <= 0 {
		t.Errorf("WALStats.FsyncsPerSec = %v, want > 0 under WALSyncAlways", ws.FsyncsPerSec)
	}

	e := New(Config{Workers: 1, Store: s})
	st := e.Stats()
	if !st.Durable {
		t.Error("Engine.Stats().Durable = false with a WAL store")
	}
	if st.Segments != ws.Segments {
		t.Errorf("Engine.Stats().Segments = %d, want %d", st.Segments, ws.Segments)
	}
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	mem := New(Config{Workers: 1})
	defer mem.Shutdown(context.Background())
	if mem.Stats().Durable {
		t.Error("Engine.Stats().Durable = true with an in-memory store")
	}
}

// TestOpenWALStoreValidates rejects a missing directory and an unknown
// sync mode up front.
func TestOpenWALStoreValidates(t *testing.T) {
	if _, err := OpenWALStore(WALConfig{}); err == nil {
		t.Error("OpenWALStore without Dir succeeded, want error")
	}
	if _, err := OpenWALStore(WALConfig{Dir: t.TempDir(), Sync: "sometimes"}); err == nil {
		t.Error("OpenWALStore with bad sync mode succeeded, want error")
	}
}

// TestEngineRecover is the boot-time contract: queued operations found
// in a recovered store are resubmitted and run; operations that were
// running when the old process died are failed with ErrInterrupted.
func TestEngineRecover(t *testing.T) {
	t0 := time.Unix(1000, 0)
	store := NewShardedStore(4)

	queued := []string{"q-old", "q-mid", "q-new"}
	for i, id := range queued {
		op := mkOp(id, t0.Add(time.Duration(i)*time.Second))
		op.Kind = "echo"
		store.Put(op)
	}
	running := mkOp("was-running", t0)
	running.Kind = "echo"
	running.Status = core.StatusRunning
	store.Put(running)
	done := mkOp("already-done", t0)
	done.Kind = "echo"
	done.Status = core.StatusDone
	store.Put(done)

	e := New(Config{Workers: 2, Store: store})
	defer e.Shutdown(context.Background())
	e.Register("echo", func(_ context.Context, op *core.Operation) (any, error) {
		return op.ID, nil
	})

	requeued, interrupted, err := e.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if requeued != len(queued) || interrupted != 1 {
		t.Fatalf("Recover = (%d requeued, %d interrupted), want (%d, 1)",
			requeued, interrupted, len(queued))
	}

	for _, id := range queued {
		op := waitStatus(t, e, id)
		if op.Status != core.StatusDone {
			t.Errorf("requeued %s finished as %s, want done (err=%s)", id, op.Status, op.Error)
		}
	}
	op, err := e.Get("was-running")
	if err != nil {
		t.Fatal(err)
	}
	if op.Status != core.StatusFailed || op.Error != core.ErrInterrupted.Error() {
		t.Errorf("was-running = (%s, %q), want (failed, %q)", op.Status, op.Error, core.ErrInterrupted)
	}
	if op, _ := e.Get("already-done"); op.Status != core.StatusDone {
		t.Errorf("already-done touched by Recover: %s", op.Status)
	}
}

// TestEngineRecoverOverflow: more queued survivors than the queue can
// hold. The overflow must fail loudly as interrupted, never block boot
// or vanish. With one worker parked on a blocking handler at most
// queue-capacity+1 operations can be requeued; the rest must be
// interrupted.
func TestEngineRecoverOverflow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	store := NewShardedStore(4)
	const n = 6
	for i := 0; i < n; i++ {
		op := mkOp(fmt.Sprintf("q-%d", i), t0.Add(time.Duration(i)*time.Second))
		op.Kind = "block"
		store.Put(op)
	}

	e := New(Config{Workers: 1, QueueDepth: 1, Store: store})
	release := make(chan struct{})
	e.Register("block", func(ctx context.Context, _ *core.Operation) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	requeued, interrupted, err := e.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if requeued+interrupted != n {
		t.Fatalf("Recover = (%d, %d), want counts summing to %d", requeued, interrupted, n)
	}
	if requeued < 1 || requeued > 2 {
		t.Errorf("requeued = %d, want 1 or 2 (queue depth 1, one blocked worker)", requeued)
	}
	if interrupted < n-2 {
		t.Errorf("interrupted = %d, want >= %d", interrupted, n-2)
	}
	close(release)
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// FuzzWALReplay fuzzes the codec's central promise: replay never
// panics, the reported valid prefix is within bounds, and replaying
// that prefix alone is clean and converges on the identical state.
func FuzzWALReplay(f *testing.F) {
	t0 := time.Unix(1000, 0)
	var valid []byte
	for i := 0; i < 3; i++ {
		var err error
		valid, err = encodeOpRecordV2(valid, mkOp(fmt.Sprintf("op-%d", i), t0))
		if err != nil {
			f.Fatal(err)
		}
	}
	done := mkOp("op-2", t0)
	done.Status = core.StatusDone
	done.UpdatedAt = t0.Add(time.Minute)
	valid = encodeDeltaRecordV2(valid, done)
	valid = appendDeleteRecord(valid, "op-1")
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[11] ^= 0x80 // checksum mismatch in the first record
	f.Add(flipped)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // impossible length
	// The shapes a preallocated segment leaves: records then its zero
	// tail (a clean end), a frame torn into that tail, and zeros that
	// give way to garbage (corrupt, not a tail).
	zeros := make([]byte, 64)
	f.Add(append(append([]byte(nil), valid...), zeros...))
	f.Add(append(append([]byte(nil), valid[:len(valid)-5]...), zeros...))
	f.Add(append(append([]byte(nil), zeros...), 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		state, _, n, err := referenceReplay(data)
		if n < 0 || n > len(data) {
			t.Fatalf("valid prefix %d out of bounds [0, %d]", n, len(data))
		}
		if err == nil && n != len(data) {
			t.Fatalf("clean replay consumed %d of %d bytes", n, len(data))
		}
		// Only zeros to the end of the file are a clean end.
		if err != nil && walAllZero(data[n:]) {
			t.Fatalf("replay failed at %d (%v) although only zeros follow", n, err)
		}
		// The prefix property recovery depends on: truncating to the
		// reported prefix yields a clean replay with the same state.
		again, _, m, err2 := referenceReplay(data[:n])
		if err2 != nil || m != n {
			t.Fatalf("replay of valid prefix = (%d, %v), want (%d, nil)", m, err2, n)
		}
		if len(again) != len(state) {
			t.Fatalf("prefix replay state has %d ops, want %d", len(again), len(state))
		}
		for id, op := range state {
			got, ok := again[id]
			if !ok || got.Status != op.Status || !got.UpdatedAt.Equal(op.UpdatedAt) {
				t.Fatalf("prefix replay diverges on %s", id)
			}
		}
		// What recovery actually runs must agree with the reference.
		matchReference(t, data)
	})
}

// referenceReplay is sequential replay into a map (walReplay +
// applyWALRecord), the reference recovery is held to: the final state,
// how many records applied, the valid prefix and the error ending it.
func referenceReplay(data []byte) (map[string]*core.Operation, int, int, error) {
	state := make(map[string]*core.Operation)
	applied := 0
	valid, err := walReplay(data, func(typ byte, body []byte) error {
		err := applyWALRecord(state, typ, body)
		if err == nil {
			applied++
		}
		return err
	})
	return state, applied, valid, err
}

// matchReference replays data into a fresh store as recovery does and
// fails unless the outcome is exactly the reference's: the same
// operations, applied count, valid prefix and error.
func matchReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantApplied, wantValid, wantErr := referenceReplay(data)
	s := newShardedStore(4)
	applied, valid, err := s.replay(data, new([]walRef))
	if applied != wantApplied || valid != wantValid || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("store replay = (%d applied, prefix %d, %v), reference (%d, %d, %v)",
			applied, valid, err, wantApplied, wantValid, wantErr)
	}
	if s.Len() != len(want) {
		t.Fatalf("store replay left %d operations, reference %d", s.Len(), len(want))
	}
	for id, w := range want {
		if g, err := s.Get(id); err != nil || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s after store replay = %+v (%v), reference %+v", id, g, err, w)
		}
	}
}

// replayTestLog builds a seeded log of n mixed records over a few
// hundred IDs — full snapshots, deltas (some with no base, which replay
// skips) and deletes — returning the bytes and each frame's offset.
func replayTestLog(t *testing.T, seed int64, n int) (data []byte, offs []int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	t0 := time.Unix(1000, 0)
	live := make(map[string]*core.Operation)
	for i := 0; i < n; i++ {
		offs = append(offs, len(data))
		id := fmt.Sprintf("op-%03d", r.Intn(300))
		at := t0.Add(time.Duration(i) * time.Second)
		cur, ok := live[id]
		switch roll := r.Intn(10); {
		case roll == 0 || (!ok && roll < 8):
			op := mkOp(id, at)
			var err error
			if data, err = encodeOpRecordV2(data, op); err != nil {
				t.Fatal(err)
			}
			live[id] = op
		case roll == 1:
			data = appendDeleteRecord(data, id)
			delete(live, id)
		default:
			if !ok {
				cur = mkOp(id, at) // a delta whose base is absent
			}
			c := cur.Clone()
			c.Status = modelStatuses[r.Intn(len(modelStatuses))]
			c.Error = fmt.Sprintf("step %d", i)
			c.UpdatedAt = at
			data = encodeDeltaRecordV2(data, c)
			if ok {
				live[id] = c
			}
		}
	}
	return data, offs
}

// TestReplayParallelMatchesSequential holds the replay path recovery
// runs — the frame scan, the chunked decode and the in-order apply into
// the store's shards — to the sequential reference (walReplay +
// applyWALRecord): same final state, same applied count, same cut and
// error. Each case runs at GOMAXPROCS 1, one decode chunk, and at 4,
// four chunks, whatever the host has.
func TestReplayParallelMatchesSequential(t *testing.T) {
	const records = 8*walDecodeChunk + 321 // at least one chunk per worker at 4
	clean, offs := replayTestLog(t, 7, records)
	retyped := append([]byte(nil), clean...)
	// Mid-file, inside the second of the four decode chunks: later
	// chunks decode records past the cut, which apply must ignore, and
	// the fourth fails too, which must not move the cut.
	const bad, worse = records/4 + 100, 3*records/4 + 100
	retypeFrame(retyped[offs[bad]:offs[bad+1]], 9)
	retypeFrame(retyped[offs[worse]:offs[worse+1]], 9)

	for _, tc := range []struct {
		name    string
		data    []byte
		applied int
		wantErr error
	}{
		{"Clean", clean, records, nil},
		{"TornTail", clean[:len(clean)-3], records - 1, errWALTorn},
		{"ZeroTail", append(append([]byte(nil), clean...), make([]byte, 100_000)...), records, nil},
		{"UnknownTypeMidFile", retyped, bad, errWALCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, applied, _, err := referenceReplay(tc.data); applied != tc.applied || !errors.Is(err, tc.wantErr) {
				t.Fatalf("sequential replay applied %d (%v), want %d (%v): the generator is off",
					applied, err, tc.applied, tc.wantErr)
			}
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("GOMAXPROCS-%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					matchReference(t, tc.data)
				})
			}
		})
	}
}
