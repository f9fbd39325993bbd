package engine

// Deterministic tests of the self-clocked committer and of segment
// preparation. They drive the WAL through WALConfig.syncHook, which sees
// every fsync the log issues: counting them shows how many commits a set
// of writers shared, and holding one open stands in for a slow disk, so
// the batching that normally depends on timing happens on demand.
// WALConfig.fillHook does the same for the writes that zero-fill a
// segment being prepared, and awaitPrep makes rotation, which swaps in a
// segment only once it is ready, happen where a test wants it.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"opdaemon/internal/core"
)

// syncEvent is one fsync seen by a syncProbe.
type syncEvent struct {
	// name is the file's base name; dir marks a directory fsync.
	name string
	dir  bool
	// segs lists the segment files present at a directory fsync —
	// exactly the entries that fsync makes durable.
	segs []string
	// records marks a segment fsync of a file holding anything but
	// zeros: one that makes records durable, not a preparation's
	// zero-fill.
	records bool
}

// syncProbe is a WALConfig.syncHook that records every fsync and can
// hold the next segment or directory fsync open or make it fail.
type syncProbe struct {
	mu     sync.Mutex
	events []syncEvent
	// landed counts segment fsyncs that have completed.
	landed int
	// hold, when non-nil, is taken by the next segment fsync, which
	// reports on entered and then blocks until hold is closed.
	hold    chan struct{}
	entered chan struct{}
	// fail, when non-nil, is returned by segment fsyncs in place of
	// syncing.
	fail error
	// failDir, when > 0, makes the failDir-th directory fsync (counting
	// from 1) fail; dirs counts them.
	failDir, dirs int
	// holdDir and dirEntered are hold and entered for the next
	// directory fsync.
	holdDir    chan struct{}
	dirEntered chan struct{}
}

func newSyncProbe() *syncProbe {
	return &syncProbe{entered: make(chan struct{}), dirEntered: make(chan struct{})}
}

func (p *syncProbe) sync(f *os.File) error {
	ev := syncEvent{name: filepath.Base(f.Name())}
	if fi, err := f.Stat(); err == nil && fi.IsDir() {
		ev.dir = true
		segs, _ := filepath.Glob(filepath.Join(f.Name(), "wal-*.log"))
		for _, s := range segs {
			ev.segs = append(ev.segs, filepath.Base(s))
		}
	} else if data, err := os.ReadFile(f.Name()); err == nil {
		ev.records = !walAllZero(data)
	}
	p.mu.Lock()
	p.events = append(p.events, ev)
	if ev.dir {
		p.dirs++
		fail := p.dirs == p.failDir
		hold := p.holdDir
		p.holdDir = nil
		p.mu.Unlock()
		if hold != nil {
			p.dirEntered <- struct{}{}
			<-hold
		}
		if fail {
			return errors.New("injected directory fsync failure")
		}
		return f.Sync()
	}
	hold, err := p.hold, p.fail
	p.hold = nil
	p.mu.Unlock()

	if hold != nil {
		p.entered <- struct{}{}
		<-hold
	}
	if err == nil {
		err = f.Sync()
	}
	p.mu.Lock()
	p.landed++
	p.mu.Unlock()
	return err
}

// failWith makes segment fsyncs return err (nil: sync for real again).
func (p *syncProbe) failWith(err error) {
	p.mu.Lock()
	p.fail = err
	p.mu.Unlock()
}

// holdNext arms the probe: the next segment fsync blocks until the
// returned release func is called.
func (p *syncProbe) holdNext() (release func()) {
	hold := make(chan struct{})
	p.mu.Lock()
	p.hold = hold
	p.mu.Unlock()
	return func() { close(hold) }
}

// holdNextDir is holdNext for the next directory fsync, which reports on
// dirEntered.
func (p *syncProbe) holdNextDir() (release func()) {
	hold := make(chan struct{})
	p.mu.Lock()
	p.holdDir = hold
	p.mu.Unlock()
	return func() { close(hold) }
}

// eventsNamed returns the fsyncs of the file or directory called name.
func (p *syncProbe) eventsNamed(name string) []syncEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []syncEvent
	for _, ev := range p.events {
		if ev.name == name {
			out = append(out, ev)
		}
	}
	return out
}

// awaitPrep waits until the segment preparation the log has started, if
// any, has ended. A commit rotates only into a segment that is ready, so
// a test with tiny segments calls it after each write it wants the next
// write to rotate past.
func awaitPrep(s *WALStore) {
	if p := s.log.prep.Load(); p != nil {
		<-p.done
	}
}

// liveSegmentFiles lists the segment files in dir by base name.
func liveSegmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(paths))
	for i, path := range paths {
		names[i] = filepath.Base(path)
	}
	return names
}

// segSyncs reports how many segment fsyncs have started and how many of
// them have completed.
func (p *syncProbe) segSyncs() (started, landed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ev := range p.events {
		if !ev.dir {
			started++
		}
	}
	return started, p.landed
}

// lastBatch returns the record count of the most recent commit.
func lastBatch(s *WALStore) int {
	c := &s.log.stats
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sizes[(c.next+len(c.sizes)-1)%len(c.sizes)]
}

// awaitLen spins until the store holds n operations. An operation is
// visible to Len only after the shard lock that published it — and
// staged its record — was released, so this is also "n records staged".
func awaitLen(t *testing.T, s *WALStore, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Len() != n {
		if time.Now().After(deadline) {
			t.Fatalf("store never reached %d operations (has %d)", n, s.Len())
		}
		runtime.Gosched()
	}
}

// TestWALGroupLonePutOneFsync: an idle log under group mode gives a
// lone writer exactly one fsync of latency — the Put is parked while
// that fsync is open, returns once it lands, and nothing else (no
// window, no timer) stands between the two.
func TestWALGroupLonePutOneFsync(t *testing.T) {
	p := newSyncProbe()
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncGroup, syncHook: p.sync})
	defer s.Close()

	release := p.holdNext()
	done := make(chan struct{})
	go func() {
		s.Put(mkOp("lone", time.Unix(1000, 0)))
		close(done)
	}()
	<-p.entered
	select {
	case <-done:
		t.Fatal("Put returned while its fsync was still in flight")
	default:
	}
	release()
	<-done
	if started, landed := p.segSyncs(); started != 1 || landed != 1 {
		t.Errorf("lone Put cost %d fsyncs (%d landed), want exactly 1", started, landed)
	}
}

// TestWALGroupBatchesDuringFsync is the self-clocking claim: every
// writer that boards while a write+fsync is in flight shares the next
// one. One fsync is held open, K goroutines Put behind it, and all K
// tickets must resolve from exactly one further fsync carrying all K
// records.
func TestWALGroupBatchesDuringFsync(t *testing.T) {
	p := newSyncProbe()
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncGroup, syncHook: p.sync})
	defer s.Close()
	t0 := time.Unix(1000, 0)

	release := p.holdNext()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Put(mkOp("first", t0))
	}()
	<-p.entered

	const k = 8
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Put(mkOp(fmt.Sprintf("op-%d", i), t0.Add(time.Duration(i+1)*time.Second)))
		}(i)
	}
	awaitLen(t, s, k+1)
	release()
	wg.Wait()

	if started, landed := p.segSyncs(); started != 2 || landed != 2 {
		t.Errorf("%d writers behind one open fsync cost %d further fsyncs (%d landed in all), want exactly 1",
			k, started-1, landed)
	}
	if got := lastBatch(s); got != k {
		t.Errorf("the shared commit carried %d records, want %d", got, k)
	}
}

// TestWALPutBatchOneWake: a PutBatch whose operations span several
// shards stages every bucket and only then wakes the committer, so on
// an idle log the whole batch is one generation: one commit, one fsync.
// Waking per bucket would let the committer detach the first bucket
// while the rest were still being staged.
func TestWALPutBatchOneWake(t *testing.T) {
	p := newSyncProbe()
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncGroup, shards: 8, syncHook: p.sync})
	defer s.Close()

	// Enough operations that encoding the later buckets takes far
	// longer than a woken committer needs to detach the earlier ones.
	const n = 4096
	ops := make([]*core.Operation, n)
	shards := make(map[int]bool)
	for i := range ops {
		ops[i] = mkOp(fmt.Sprintf("op-%04d", i), time.Unix(1000+int64(i), 0))
		shards[s.shardIndex(ops[i].ID)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("test batch landed on %d shard, need several", len(shards))
	}
	s.PutBatch(ops)

	if started, landed := p.segSyncs(); started != 1 || landed != 1 {
		t.Errorf("PutBatch over %d shards cost %d fsyncs (%d landed), want exactly 1", len(shards), started, landed)
	}
	if got := lastBatch(s); got != n {
		t.Errorf("the commit carried %d records, want all %d", got, n)
	}
}

// TestWALFlushWaitsForInFlightCommit: group mode logs transitions
// asynchronously and the committer takes them at once, so by the time
// Flush runs the record is usually detached and mid-fsync rather than
// staged. Flush is a durability barrier either way: it may not return
// before that fsync has landed.
func TestWALFlushWaitsForInFlightCommit(t *testing.T) {
	p := newSyncProbe()
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncGroup, syncHook: p.sync})
	defer s.Close()
	t0 := time.Unix(1000, 0)
	s.Put(mkOp("a", t0))

	release := p.holdNext()
	if err := s.Update("a", func(op *core.Operation) {
		op.Status = core.StatusDone
		op.UpdatedAt = t0.Add(time.Minute)
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	<-p.entered // the update's commit is now in flight, nothing is staged

	// Let the fsync go once Flush has returned — which a correct Flush
	// cannot do first — or after a grace period, so a correct Flush
	// unblocks.
	returned := make(chan struct{})
	go func() {
		select {
		case <-returned:
		case <-time.After(50 * time.Millisecond):
		}
		release()
	}()
	err := s.Flush()
	_, landed := p.segSyncs()
	close(returned)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if landed != 2 {
		t.Errorf("Flush returned with %d of 2 fsyncs landed: the in-flight commit was not waited for", landed)
	}
}

// TestWALRotationSyncsDirectory: a segment's directory entry must be
// durable before any record is fsynced into it, at open and at every
// rotation, or a power loss could take acknowledged records with the
// dirent. Asserted by ordering: every segment fsync that makes records
// durable is preceded by a directory fsync issued when that segment
// already existed. (A preparation's fsync of the zeros it wrote comes
// before its directory fsync, and carries no record.)
func TestWALRotationSyncsDirectory(t *testing.T) {
	p := newSyncProbe()
	// Every commit overflows the 1-byte bound, so each Put after the
	// first rotates into the segment the one before it prepared.
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncAlways, segBytes: 1, syncHook: p.sync})
	const n = 3
	for i := 0; i < n; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%d", i), time.Unix(1000+int64(i), 0)))
		awaitPrep(s)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	entryDurable := make(map[string]bool)
	var written []string
	for _, ev := range p.events {
		if ev.dir {
			for _, seg := range ev.segs {
				entryDurable[seg] = true
			}
			continue
		}
		if !ev.records {
			continue
		}
		written = append(written, ev.name)
		if !entryDurable[ev.name] {
			t.Errorf("records fsynced into %s before a directory fsync covered its entry", ev.name)
		}
	}
	// The Puts' commits, then Close's final fsync of the open segment.
	want := []string{walSegName(0), walSegName(1), walSegName(2), walSegName(2)}
	if fmt.Sprint(written) != fmt.Sprint(want) {
		t.Fatalf("fsyncs of records went to %v, want %v (one segment per Put)", written, want)
	}
	for i := 0; i <= n; i++ {
		if !entryDurable[walSegName(i)] {
			t.Errorf("segment %s was created but its directory entry never fsynced", walSegName(i))
		}
	}
}

// TestWALRotationFailureKeepsAppending: a next segment whose preparation
// fails — ENOSPC while zero-filling it, or its directory fsync — is
// removed, and the log keeps appending to the segment it has. No record
// was ever written into the failed segment, so it is no commit failure;
// the next commit past the bound retries the preparation, the one after
// that rotates, and every acknowledged operation survives a reopen.
func TestWALRotationFailureKeepsAppending(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(p *syncProbe, cfg *WALConfig)
	}{
		{"ENOSPC while zero-filling", func(_ *syncProbe, cfg *WALConfig) {
			var failed atomic.Bool
			cfg.fillHook = func(f *os.File, b []byte, off int64) (int, error) {
				if failed.CompareAndSwap(false, true) {
					return 0, syscall.ENOSPC
				}
				return f.WriteAt(b, off)
			}
		}},
		{"directory fsync", func(p *syncProbe, _ *WALConfig) {
			p.failDir = 2 // the first is the open's, the second the first preparation's
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newSyncProbe()
			dir := t.TempDir()
			// Every commit overflows the 1-byte bound, so each Put after
			// the first would rotate.
			cfg := WALConfig{Sync: WALSyncAlways, segBytes: 1, syncHook: p.sync}
			tc.fault(p, &cfg)
			s := openWAL(t, dir, cfg)
			put := func(i int) {
				s.Put(mkOp(fmt.Sprintf("op-%d", i), time.Unix(1000+int64(i), 0)))
				awaitPrep(s)
			}
			put(0) // segment 1's preparation fails
			if got, want := liveSegmentFiles(t, dir), []string{walSegName(0)}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("segment files after a failed preparation = %v, want %v: the half-prepared file stayed", got, want)
			}
			put(1) // still in segment 0; segment 1 is prepared again
			if got := s.WALStats().Segments; got != 1 {
				t.Errorf("%d live segments after the failed preparation, want 1: the log did not keep appending", got)
			}
			put(2) // rotates into the retried segment 1
			if got := s.WALStats().Segments; got != 2 {
				t.Errorf("%d live segments after the retry, want 2: the log never rotated", got)
			}
			const n = 5
			for i := 3; i < n; i++ {
				put(i)
			}
			if err := s.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
			}
			if got := s.WALStats().CommitFailures; got != 0 {
				t.Errorf("CommitFailures = %d, want 0: every batch was written and fsynced", got)
			}
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}

			r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
			defer r.Close()
			if got := r.Len(); got != n {
				t.Errorf("reopened store holds %d of %d acknowledged operations", got, n)
			}
		})
	}
}

// TestWALFailedPreparationWaitsForGrowth: a failed preparation is not
// restarted by every commit past the bound — each restart zero-fills a
// whole segment again and logs a line — but once the open segment has
// grown another half segment since the failure was seen.
func TestWALFailedPreparationWaitsForGrowth(t *testing.T) {
	const segBytes = 4 << 10
	var attempts atomic.Int32
	fill := func(*os.File, []byte, int64) (int, error) {
		attempts.Add(1)
		return 0, syscall.ENOSPC
	}
	dir := t.TempDir()
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: segBytes, fillHook: fill})
	defer s.Close()
	size := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, walSegName(0)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	i := 0
	put := func() {
		s.Put(mkOp(fmt.Sprintf("op-%03d", i), time.Unix(1000+int64(i), 0)))
		i++
		awaitPrep(s)
	}
	// The first preparation starts at half the bound and fails; the
	// commit that crosses the bound finds it failed.
	var seen int64
	for size() <= segBytes {
		seen = size()
		put()
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("%d preparations by the commit past the bound, want 1", got)
	}
	for commits := 1; ; commits++ {
		put()
		grown := size() > seen+segBytes/2
		want := int32(1)
		if grown {
			want = 2
		}
		if got := attempts.Load(); got != want {
			t.Fatalf("%d preparations after %d commits past the bound (segment grew %d bytes since the failure), want %d",
				got, commits, size()-seen, want)
		}
		if grown {
			break
		}
	}
	if got := s.WALStats().Segments; got != 1 {
		t.Errorf("%d live segments, want 1: every preparation failed", got)
	}
}

// TestWALRotationOffWriterPath: a commit never waits for the next
// segment. With the preparing segment's directory fsync held open, a Put
// whose batch crosses the bound still returns, written into the segment
// the log has; once the preparation lands, the next commit rotates.
func TestWALRotationOffWriterPath(t *testing.T) {
	p := newSyncProbe()
	dir := t.TempDir()
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: 1, syncHook: p.sync})
	t0 := time.Unix(1000, 0)

	release := p.holdNextDir()
	s.Put(mkOp("op-0", t0)) // past half the bound: segment 1's preparation starts
	<-p.dirEntered
	done := make(chan struct{})
	go func() {
		s.Put(mkOp("op-1", t0.Add(time.Second)))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("a Put crossing the segment bound waited for the next segment's directory fsync")
	}
	if got := s.WALStats().Segments; got != 1 {
		t.Errorf("%d live segments while segment 1 was being prepared, want 1", got)
	}
	release()
	awaitPrep(s)
	s.Put(mkOp("op-2", t0.Add(2*time.Second)))
	if got := s.WALStats().Segments; got != 2 {
		t.Errorf("%d live segments once the preparation landed, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
	defer r.Close()
	if got := r.Len(); got != 3 {
		t.Errorf("reopened store holds %d of 3 acknowledged operations", got)
	}
}

// TestWALPreparationEndsWithClose: Close, and abort (the crash
// simulation), wait for a segment preparation in flight, so its
// goroutine never outlives the log. A clean Close removes the prepared
// segment the log never used; a crash leaves it, and the reopen reads
// its zeros as an empty segment. Under WALSyncNone a preparation fsyncs
// neither the file nor the directory.
func TestWALPreparationEndsWithClose(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  WALSyncMode
		crash bool
	}{
		{"Close", WALSyncAlways, false},
		{"abort", WALSyncAlways, true},
		{"Close under sync none", WALSyncNone, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newSyncProbe()
			entered, hold := make(chan struct{}), make(chan struct{})
			var fills atomic.Int32
			fill := func(f *os.File, b []byte, off int64) (int, error) {
				if fills.Add(1) == 1 {
					close(entered)
					<-hold
				}
				return f.WriteAt(b, off)
			}
			dir := t.TempDir()
			s := openWAL(t, dir, WALConfig{Sync: tc.mode, segBytes: 1, syncHook: p.sync, fillHook: fill})
			s.Put(mkOp("op-0", time.Unix(1000, 0))) // segment 1's preparation starts and blocks
			<-entered

			closed := make(chan struct{})
			go func() {
				defer close(closed)
				if tc.crash {
					s.closeAbrupt()
				} else if err := s.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			select {
			case <-closed:
				close(hold)
				t.Fatal("the log closed while its segment preparation was still running")
			case <-time.After(50 * time.Millisecond):
			}
			close(hold)
			<-closed
			if s.log.prep.Load() != nil {
				t.Error("the closed log still holds a segment preparation")
			}

			prepared := walSegName(1)
			want := []string{walSegName(0)}
			if tc.crash {
				want = append(want, prepared)
			}
			if got := liveSegmentFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("segment files after the close = %v, want %v", got, want)
			}
			if tc.mode == WALSyncNone {
				if evs := p.eventsNamed(prepared); len(evs) != 0 {
					t.Errorf("preparing %s under sync none fsynced it %d times", prepared, len(evs))
				}
				if evs := p.eventsNamed(filepath.Base(dir)); len(evs) != 0 {
					t.Errorf("the log fsynced its directory %d times under sync none", len(evs))
				}
			}

			r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
			defer r.Close()
			if got := r.Len(); got != 1 {
				t.Errorf("reopened store holds %d of 1 acknowledged operations", got)
			}
		})
	}
}

// TestWALCommitFailureCounted: a failed fsync still releases its
// waiters (the Store interface has no write-error channel) but is
// counted, and Engine.Stats carries the count to /v1/health and
// /v1/metrics. Close reports it too: the clean final fsync does not make
// the failed batch durable.
func TestWALCommitFailureCounted(t *testing.T) {
	p := newSyncProbe()
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncGroup, syncHook: p.sync})
	defer s.Close()
	t0 := time.Unix(1000, 0)

	s.Put(mkOp("ok", t0))
	if got := s.WALStats().CommitFailures; got != 0 {
		t.Fatalf("CommitFailures = %d after a clean commit, want 0", got)
	}

	injected := errors.New("injected fsync failure")
	p.failWith(injected)
	s.Put(mkOp("lost", t0))
	p.failWith(nil)

	if got := s.WALStats().CommitFailures; got != 1 {
		t.Errorf("CommitFailures = %d after one failed fsync, want 1", got)
	}
	e := New(Config{Workers: 1, Store: s})
	if got := e.Stats().CommitFailures; got != 1 {
		t.Errorf("Engine.Stats().CommitFailures = %d, want 1", got)
	}
	e.Shutdown(context.Background())
	if err := s.Close(); !errors.Is(err, injected) {
		t.Errorf("Close = %v after a failed commit, want the injected error", err)
	}
}

// TestWALCloseTrimsZeroTail: a clean Close cuts the open segment back to
// its records, so a cleanly closed log holds no preallocated space and
// the next open reads no zeros. A crash leaves the zero tail, which
// replay reads as the segment's clean end.
func TestWALCloseTrimsZeroTail(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(map[bool]string{false: "Close", true: "crash"}[crash], func(t *testing.T) {
			dir := t.TempDir()
			const segBytes = 4 << 10
			s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: segBytes})
			// Puts until one rotates into the preallocated segment 1.
			var last *core.Operation
			n := 0
			for ; s.WALStats().Segments < 2; n++ {
				if n == 1000 {
					t.Fatal("the log never rotated")
				}
				last = mkOp(fmt.Sprintf("op-%03d", n), time.Unix(1000+int64(n), 0))
				s.Put(last)
				awaitPrep(s)
			}
			rec, err := encodeOpRecordV2(nil, last)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(len(rec))
			if crash {
				s.closeAbrupt()
				want = segBytes
			} else if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			fi, err := os.Stat(filepath.Join(dir, walSegName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != want {
				t.Errorf("segment 1 is %d bytes after the close, want %d", fi.Size(), want)
			}

			r := openWAL(t, dir, WALConfig{Sync: WALSyncAlways})
			defer r.Close()
			if got := r.Len(); got != n {
				t.Errorf("reopened store holds %d of %d acknowledged operations", got, n)
			}
		})
	}
}
