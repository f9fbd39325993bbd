package engine

// Deterministic tests of the self-clocked committer. They drive the
// WAL through WALConfig.syncHook, which sees every fsync the log
// issues: counting them shows how many commits a set of writers
// shared, and holding one open stands in for a slow disk, so the
// batching that normally depends on timing happens on demand.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
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
}

// syncProbe is a WALConfig.syncHook that records every fsync and can
// hold the next segment fsync open or make it fail.
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
}

func newSyncProbe() *syncProbe {
	return &syncProbe{entered: make(chan struct{})}
}

func (p *syncProbe) sync(f *os.File) error {
	ev := syncEvent{name: filepath.Base(f.Name())}
	if fi, err := f.Stat(); err == nil && fi.IsDir() {
		ev.dir = true
		segs, _ := filepath.Glob(filepath.Join(f.Name(), "wal-*.log"))
		for _, s := range segs {
			ev.segs = append(ev.segs, filepath.Base(s))
		}
	}
	p.mu.Lock()
	p.events = append(p.events, ev)
	if ev.dir {
		p.dirs++
		fail := p.dirs == p.failDir
		p.mu.Unlock()
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
// dirent. Asserted by ordering: every segment fsync is preceded by a
// directory fsync issued when that segment already existed.
func TestWALRotationSyncsDirectory(t *testing.T) {
	p := newSyncProbe()
	// Every commit overflows the 1-byte bound, so each Put rotates.
	s := openWAL(t, t.TempDir(), WALConfig{Sync: WALSyncAlways, segBytes: 1, syncHook: p.sync})
	const n = 3
	for i := 0; i < n; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%d", i), time.Unix(1000+int64(i), 0)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	entryDurable := make(map[string]bool)
	written := 0
	for _, ev := range p.events {
		if ev.dir {
			for _, seg := range ev.segs {
				entryDurable[seg] = true
			}
			continue
		}
		written++
		if !entryDurable[ev.name] {
			t.Errorf("records fsynced into %s before a directory fsync covered its entry", ev.name)
		}
	}
	if written < n {
		t.Fatalf("saw %d segment fsyncs, want at least %d (one per Put)", written, n)
	}
	for i := 0; i <= n; i++ {
		if !entryDurable[walSegName(i)] {
			t.Errorf("segment %s was created but its directory entry never fsynced", walSegName(i))
		}
	}
}

// TestWALRotationFailureKeepsAppending: a rotation whose new segment
// cannot be made durable (its directory fsync fails) leaves the log
// appending to the segment it had. The batch that triggered it was
// already written and fsynced, so it is no commit failure; later commits
// keep landing, the next one past the bound rotates, and every
// acknowledged operation survives a reopen.
func TestWALRotationFailureKeepsAppending(t *testing.T) {
	p := newSyncProbe()
	p.failDir = 2 // the first is the open's, the second the first rotation's
	dir := t.TempDir()
	// Every commit overflows the 1-byte bound, so each Put rotates.
	s := openWAL(t, dir, WALConfig{Sync: WALSyncAlways, segBytes: 1, syncHook: p.sync})
	const n = 5
	for i := 0; i < n; i++ {
		s.Put(mkOp(fmt.Sprintf("op-%d", i), time.Unix(1000+int64(i), 0)))
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
	if got := e.Stats().WALCommitFailures; got != 1 {
		t.Errorf("Engine.Stats().WALCommitFailures = %d, want 1", got)
	}
	e.Shutdown(context.Background())
	if err := s.Close(); !errors.Is(err, injected) {
		t.Errorf("Close = %v after a failed commit, want the injected error", err)
	}
}
