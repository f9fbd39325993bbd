package engine

// The write-ahead log behind a journaled store (OpenWALStore): an
// append-only sequence of framed records (see walcodec.go) in rotating
// segment files, made cheap by group commit.
//
// Every segment after the one opened at start-up is preallocated: a
// goroutine of its own creates it, writes zeros over its whole size and
// makes file and directory entry durable while the committer is still
// writing the segment before it. Commits then overwrite blocks the
// file already has, so an fsync journals no size change and no block
// allocation, and rotation is a swap of file handles that creates
// nothing and fsyncs nothing on the committer.
//
// The perf-critical shape mirrors the waiter table's detach-then-notify
// protocol, and lockscope polices it the same way: writers only ever
// append encoded records to an in-memory staging buffer (walBatch)
// under its mutex — never touching the file — and a single committer
// goroutine detaches the buffer under that mutex, then performs the
// one write+fsync for the whole batch strictly after the lock is
// released. Writers that need durability wait for the number of the
// batch's commit generation, which stage hands out, until the committer
// reports it ended; one disk flush is amortised across every writer
// that boarded the batch.

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"opdaemon/internal/core"
)

// WALSyncMode selects when the committer calls fsync and who waits for
// it; see the WALConfig.Sync docs for the durability each mode buys.
type WALSyncMode string

const (
	// WALSyncAlways fsyncs every batch and makes every mutation —
	// puts, updates, sweeps — wait for its commit generation. Maximum
	// durability, one fsync round-trip on every write path.
	WALSyncAlways WALSyncMode = "always"
	// WALSyncGroup (the default) commits the moment anything is staged;
	// whatever boards while that write+fsync is in flight shares the
	// next one, so batch size tracks concurrency and disk latency with
	// no timer. Admissions (Put/PutBatch) wait for durability;
	// transitions and sweep evictions are logged asynchronously — recovery
	// semantics make the loss window principled (see
	// docs/persistence.md).
	WALSyncGroup WALSyncMode = "group"
	// WALSyncNone never fsyncs and nobody waits; durability is
	// whatever the OS page cache survives. For tests and benchmarks.
	WALSyncNone WALSyncMode = "none"
)

// Valid reports whether m names a known sync mode.
func (m WALSyncMode) Valid() bool {
	switch m {
	case WALSyncAlways, WALSyncGroup, WALSyncNone:
		return true
	}
	return false
}

// walBatch is the group-commit staging buffer. Its mutex is policed by
// lockscope as a nested-acquisition lock: writers may take it while
// holding a storeShard lock (that nesting is what keeps log order equal
// to publish order), but nothing may block or perform file I/O while
// holding it — the committer detaches buf under the lock and does the
// write+fsync after releasing it.
type walBatch struct {
	mu sync.Mutex
	// buf accumulates encoded frames; n counts the records in them.
	buf []byte
	n   int
	// next is the boarding generation (the first is 1), ended the newest
	// one whose write+fsync has ended, and err the first commit error.
	// Only the committer changes them.
	next, ended uint64
	err         error
	// Generation g's waiters park in slots[g&1], whose Wait releases mu.
	// At most two generations are live, one in its write+fsync and one
	// boarding, so a commit wakes only its own waiters.
	slots [2]sync.Cond

	// The counters WALStats reports, which the committer records in the
	// critical section that ends a generation, so a writer that has just
	// been acknowledged finds its own commit counted. segments mirrors
	// len(wal.segs). sizes is a ring of the records per commit of the
	// last commits, from which the p50 is computed on demand. fsyncs
	// feeds the fsyncs-per-second rate, and failures counts the batches
	// whose write or fsync failed, over the store's lifetime.
	segments int
	sizes    [64]int
	commits  int
	fsyncs   drainMeter
	failures uint64
}

// walJob is one background job of the log: preparing segment index
// (prepareNext) or compacting the segments up to index (compact). Its
// goroutine touches files only; the committer starts it and applies its
// outcome once done has closed.
type walJob struct {
	index int
	// done closes when the job has ended; f (a prepared segment, else nil)
	// and err are written before it closes and read only after.
	done chan struct{}
	f    *os.File
	err  error
}

// stats reads every counter in one critical section and takes the p50
// from a copy of the ring, sorted after unlock; BatchP50 is 0 before
// the first commit.
func (w *wal) stats(now time.Time) WALStats {
	b := &w.batch
	b.mu.Lock()
	sizes, n := b.sizes, min(b.commits, len(b.sizes))
	st := WALStats{Segments: b.segments, FsyncsPerSec: b.fsyncs.rate(now), CommitFailures: b.failures}
	b.mu.Unlock()
	if n > 0 {
		recent := sizes[:n]
		slices.Sort(recent)
		st.BatchP50 = float64(recent[(n-1)/2]+recent[n/2]) / 2
	}
	return st
}

// WALStats is the point-in-time WAL snapshot surfaced through
// Engine.Stats, which embeds it, and so through /v1/health.
type WALStats struct {
	// Segments is the number of live log segment files (closed plus
	// the one being appended to).
	Segments int `json:"wal_segments"`
	// BatchP50 is the median records per commit over recent commits —
	// the direct measure of how much work each fsync amortises.
	BatchP50 float64 `json:"wal_batch_p50"`
	// FsyncsPerSec is the observed fsync rate over the trailing
	// window.
	FsyncsPerSec float64 `json:"fsyncs_per_sec"`
	// CommitFailures is the lifetime count of batches whose write or
	// fsync failed: each one is acknowledged state that may not survive
	// a restart.
	CommitFailures uint64 `json:"wal_commit_failures"`
}

// The log's size bounds: the committer rotates before a batch that would
// take the open segment past walSegBytes, and maybeCompact folds the
// closed segments into a snapshot once walMaxSegs of them have
// accumulated.
const (
	walSegBytes = 16 << 20
	walMaxSegs  = 8
)

// wal owns the on-disk log: the staging buffer, the committer
// goroutine, segment rotation, and snapshot compaction.
type wal struct {
	dir      string
	mode     WALSyncMode
	segBytes int64
	maxSegs  int
	// lock holds dir's flock (lockWALDir) from before recovery until
	// close has stopped every goroutine that writes in dir.
	lock *os.File
	// sync is every fsync the log issues, segment files and the
	// directory alike. Always (*os.File).Sync outside tests, which
	// substitute it to count fsyncs or hold one open.
	sync func(*os.File) error
	// fill is every write that zero-fills a segment being prepared.
	// Always (*os.File).WriteAt outside tests, which substitute it to
	// make one fail.
	fill func(f *os.File, b []byte, off int64) (int, error)

	batch walBatch
	// kick wakes the committer; capacity 1 so boarding writers can
	// always try-send without blocking (a pending kick is as good as
	// many).
	kick chan struct{}

	// quit carries close's one crash flag to the committer: capacity
	// one, and close sends without blocking, so the first call's flag
	// is the one the committer takes.
	quit chan bool
	done chan struct{}
	// closeErr is the final-flush outcome, written by the committer
	// before done closes.
	closeErr error

	// Down to compaction, only the committer (and newWAL before it)
	// touches these, so they take no lock. f is the open segment, the
	// last of segs, and segSize is where the next batch is written in it.
	// After a failed preparation, the next one waits until segSize passes
	// prepAfter. compactAt is the open segment when the last compaction
	// started: a failed one is retried once another segment has closed,
	// not on every commit.
	f         *os.File
	segSize   int64
	prepAfter int64
	compactAt int
	segs      []int // sorted live segment indexes, including the open one
	// spare recycles the detached batch buffer across commits.
	spare []byte
	// prep is the next segment, in preparation or prepared and not yet
	// in use, and compaction the one in flight or not yet reaped; nil
	// when none is. prep is atomic only so that tests can wait for it.
	prep       atomic.Pointer[walJob]
	compaction *walJob

	// snapshotFn dumps the full store state for compaction; installed
	// by OpenWALStore before the committer starts.
	snapshotFn func() []*core.Operation
}

// Segment and snapshot file names; parseWALName reads them back.
const walSegPattern, walSnapPattern = "wal-%08d.log", "snap-%08d.wal"

func walSegName(i int) string  { return fmt.Sprintf(walSegPattern, i) }
func walSnapName(i int) string { return fmt.Sprintf(walSnapPattern, i) }

// walSnapTmp is where a snapshot is written before its atomic rename.
const walSnapTmp = "snap.tmp"

// newWAL builds the log over an already-recovered directory layout and
// opens a fresh segment; the caller installs snapshotFn and then calls
// start. The fresh segment is created empty and grows: a new log does no
// zero-fill I/O until it is half a segment long.
func newWAL(cfg WALConfig, layout walLayout) (*wal, error) {
	w := &wal{
		dir:      cfg.Dir,
		mode:     cfg.Sync,
		segBytes: cfg.segBytes,
		maxSegs:  cfg.maxSegs,
		sync:     cfg.syncHook,
		fill:     cfg.fillHook,
		kick:     make(chan struct{}, 1),
		quit:     make(chan bool, 1),
		done:     make(chan struct{}),
		segs:     append(layout.segs, layout.maxSeg+1),
	}
	f, err := w.createSegment(w.openSeg(), false)
	if err != nil {
		return nil, err
	}
	w.f = f
	w.batch.next = 1
	w.batch.slots = [2]sync.Cond{{L: &w.batch.mu}, {L: &w.batch.mu}}
	w.batch.segments = len(w.segs)
	return w, nil
}

// openSeg is the index of the open segment, the last of segs: rotation
// appends the next, and a compaction's reap drops only closed segments.
// Committer goroutine only (and newWAL before it).
func (w *wal) openSeg() int { return w.segs[len(w.segs)-1] }

// start launches the committer; the wal accepts staged records from this
// point on.
func (w *wal) start() {
	go w.committer()
}

// createSegment creates segment i, zero-filled to segBytes when fill is
// set. The directory is fsynced before the file is returned, so before
// any record can be acknowledged into it: without that a power loss
// could drop the segment's entry and every durable record inside with
// it. A filled file is fsynced first, so a durable entry never names a
// file whose zeros are not. Under WALSyncNone both fsyncs are skipped.
// On failure the half-created file is removed.
func (w *wal) createSegment(i int, fill bool) (*os.File, error) {
	path := filepath.Join(w.dir, walSegName(i))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating segment %d: %w", i, err)
	}
	if err := w.initSegment(f, fill); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("wal: preparing segment %d: %w", i, err)
	}
	return f, nil
}

// initSegment is createSegment's zero-fill and fsyncs. The zeros come
// from walZeros, one fixed buffer, so preparing a segment allocates
// nothing however large it is.
func (w *wal) initSegment(f *os.File, fill bool) error {
	if fill {
		for off := int64(0); off < w.segBytes; {
			n, err := w.fill(f, walZeros[:min(int64(len(walZeros)), w.segBytes-off)], off)
			if err != nil {
				return fmt.Errorf("zero-filling: %w", err)
			}
			off += int64(n)
		}
	}
	if w.mode == WALSyncNone {
		return nil
	}
	if fill {
		if err := w.sync(f); err != nil {
			return fmt.Errorf("fsync: %w", err)
		}
	}
	if err := w.syncDir(); err != nil {
		return fmt.Errorf("fsync directory: %w", err)
	}
	return nil
}

// startJob runs fn as a job for segment index on a goroutine whose last
// act, after done has closed, wakes the committer, so an outcome is
// reaped even when no write follows. Committer goroutine only.
func (w *wal) startJob(index int, fn func(*walJob)) *walJob {
	j := &walJob{index: index, done: make(chan struct{})}
	go func() {
		fn(j)
		close(j.done)
		w.wake()
	}()
	return j
}

// prepareNext starts preparing the segment after the open one, unless
// one is already in preparation or waiting. Committer goroutine only.
func (w *wal) prepareNext() {
	if w.prep.Load() != nil {
		return
	}
	w.prep.Store(w.startJob(w.openSeg()+1, func(j *walJob) {
		j.f, j.err = w.createSegment(j.index, true)
	}))
}

// dropPrep waits for a preparation in flight and closes the prepared
// segment the log never used. A clean close (remove set) deletes the
// file as well; a crash leaves it, and recovery reads an all-zero
// segment as an empty one. Committer goroutine only.
func (w *wal) dropPrep(remove bool) {
	p := w.prep.Swap(nil)
	if p == nil {
		return
	}
	<-p.done
	if p.f == nil {
		return
	}
	p.f.Close()
	if remove {
		if err := os.Remove(p.f.Name()); err != nil {
			log.Printf("engine: wal removing unused segment %d: %v", p.index, err)
		}
	}
}

// stage boards one or more already-framed records (recs counts them)
// onto the current batch, returning the generation number the caller
// waits on. Callers may hold a storeShard lock: stage only appends to
// the staging buffer; all file I/O happens on the committer and the
// goroutines it starts. Nothing commits until the caller's wait wakes the
// committer, so a caller with records for several shards stages them all
// and wakes once (see admitWait).
//
// stage and the two waits are everything a store's mutations call on
// the log, and each is a no-op on a nil *wal (stage returns 0, and the
// waits return on 0): that is how a store without a journal runs the
// same mutation code.
func (w *wal) stage(frames []byte, recs int) uint64 {
	if w == nil || len(frames) == 0 {
		return 0
	}
	b := &w.batch
	b.mu.Lock()
	g := b.next
	b.buf = append(b.buf, frames...)
	b.n += recs
	b.mu.Unlock()
	return g
}

// wake tells the committer there is work. Never blocks: a kick already
// pending covers this one too.
func (w *wal) wake() {
	if w == nil {
		return
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// admitWait wakes the committer and, under the modes that promise durable
// admission, parks the caller until its admission records are durable.
// A batch calls it once, after its last shard: the committer commits the
// moment it is woken, so a wake per shard would split the batch over two
// generations and two fsyncs. Another writer's wake can still split it;
// waiting for the newest generation the batch boarded covers every
// staged record regardless, because generations commit in order.
func (w *wal) admitWait(g uint64) {
	if g == 0 {
		return
	}
	w.wake()
	if w.mode != WALSyncNone {
		w.await(g)
	}
}

// transitionWait wakes the committer and parks the caller only under
// WALSyncAlways; group mode logs transitions and evictions asynchronously
// (recovery resubmits or fails what the loss window eats — see
// docs/persistence.md). Commit errors are logged once by the committer;
// both waits proceed past them — the Store interface has no error
// channel for writes, and the in-memory state (the API's source of truth
// until restart) already holds the mutation.
func (w *wal) transitionWait(g uint64) {
	if g == 0 {
		return
	}
	w.wake()
	if w.mode == WALSyncAlways {
		w.await(g)
	}
}

// flush forces a commit of everything staged so far and waits for the
// newest staged generation (with nothing staged, the last one detached:
// its records are durable only once its fsync lands). Like close, it
// returns the first commit error the log ever saw.
func (w *wal) flush() error {
	b := &w.batch
	b.mu.Lock()
	g := b.next
	if b.n == 0 {
		g--
	}
	b.mu.Unlock()
	w.wake()
	return w.await(g)
}

// await parks the caller until generation g has ended and returns the
// first commit error.
func (w *wal) await(g uint64) error {
	b := &w.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.ended < g {
		b.slots[g&1].Wait()
	}
	return b.err
}

// close stops the log; only the first call does, and its crash decides
// how. false flushes staged records, trims and closes the segment file,
// removes a prepared segment that was never used, and returns the
// flush's error. true (tests only) is the crash simulation: the
// committer exits at once, dropping whatever is staged but not yet
// committed, and the segment file is left un-flushed — the closest a
// live process gets to kill -9 — with a prepared segment's file left on
// disk. Either way the committer waits for the file work of its
// background jobs (a segment preparation, a compaction) to end before it
// exits, and close then releases the directory lock, as the kernel
// releases a killed process's.
func (w *wal) close(crash bool) error {
	select {
	case w.quit <- crash:
	default:
	}
	<-w.done
	w.lock.Close()
	return w.closeErr
}

// committer is the single goroutine that turns staged batches into
// write+fsync calls, and it is self-clocked: it commits the moment a
// kick says anything is staged, and whatever boards while that
// write+fsync is in flight is the next batch, resolved by the next
// fsync. A lone writer pays one fsync of latency; under load every
// writer that arrived during the previous fsync shares the next one.
func (w *wal) committer() {
	defer close(w.done)
	for {
		select {
		case crash := <-w.quit:
			if crash {
				w.dropPrep(false)
			} else {
				w.closeErr = w.finalize()
			}
			if w.compaction != nil {
				<-w.compaction.done
			}
			return
		case <-w.kick:
		}
		w.commit()
		w.maybeCompact()
	}
}

// commit detaches the boarding generation's batch, performs its
// write+fsync, then marks the generation ended and wakes its waiters.
// Detach and mark happen under the batch lock, the file I/O between
// them with the lock released — the invariant lockscope's file-I/O rule
// enforces.
func (w *wal) commit() {
	b := &w.batch
	b.mu.Lock()
	if b.n == 0 {
		b.mu.Unlock()
		return
	}
	buf, g, n := b.buf, b.next, b.n
	b.buf = w.spare[:0]
	b.next++
	b.n = 0
	b.mu.Unlock()

	err := w.writeAndSync(buf)
	w.spare = buf[:0]
	if err != nil {
		// The Store interface has no write-error channel, so the failure
		// counter and this log line are the operator's signal that
		// durability is degraded; the in-memory state remains correct
		// until restart.
		log.Printf("engine: wal commit of %d records failed: %v", n, err)
	}
	now := time.Now()
	b.mu.Lock()
	// The batch is counted in the critical section that ends it, its
	// fsync when it succeeded under a syncing mode.
	b.segments = len(w.segs)
	b.sizes[b.commits%len(b.sizes)] = n
	b.commits++
	if err == nil && w.mode != WALSyncNone {
		b.fsyncs.record(now)
	}
	b.ended = g
	if err != nil {
		b.failures++
		if b.err == nil {
			b.err = err
		}
	}
	b.mu.Unlock()
	b.slots[g&1].Broadcast()
}

// writeAndSync writes one batch at the open segment's end, fsyncing per
// the sync mode. A batch that would take a non-empty segment past its
// bound rotates first, and once the segment is past half its bound the
// next one is prepared. The error is the batch's own write+fsync
// outcome; rotation cannot fail it.
func (w *wal) writeAndSync(buf []byte) error {
	if w.segSize > 0 && w.segSize+int64(len(buf)) > w.segBytes {
		w.rotate()
	}
	if _, err := w.f.WriteAt(buf, w.segSize); err != nil {
		return fmt.Errorf("wal: writing segment %d: %w", w.openSeg(), err)
	}
	w.segSize += int64(len(buf))
	if w.mode != WALSyncNone {
		if err := w.sync(w.f); err != nil {
			return fmt.Errorf("wal: fsync segment %d: %w", w.openSeg(), err)
		}
	}
	if w.segSize > max(w.segBytes/2, w.prepAfter) {
		w.prepareNext()
	}
	return nil
}

// rotate swaps the prepared segment in and closes the open one. It never
// waits: while the preparation is still in flight, or after it failed,
// the log keeps growing the segment it has, and the next commit past the
// bound tries again. A failed preparation is logged here, and a fresh
// one starts once the segment has grown another half segment, so a
// full or failing disk sees one zero-fill per half segment written,
// not one per commit.
func (w *wal) rotate() {
	p := w.prep.Load()
	if p == nil {
		return
	}
	select {
	case <-p.done:
	default:
		return
	}
	w.prep.Store(nil)
	if p.err != nil {
		log.Printf("engine: wal rotation failed, still appending to segment %d: %v", w.openSeg(), p.err)
		w.prepAfter = w.segSize + w.segBytes/2
		return
	}
	old, i := w.f, w.openSeg()
	w.f, w.segSize, w.prepAfter = p.f, 0, 0
	w.segs = append(w.segs, p.index)
	if err := old.Close(); err != nil {
		log.Printf("engine: wal closing segment %d: %v", i, err)
	}
}

// maybeCompact reaps a finished compaction, applying a successful one to
// segs and the segment count, then folds the closed segments
// into a snapshot once maxSegs of them have accumulated since the last
// one. It is the log's only compaction trigger, and it is what bounds
// replay and disk: about maxSegs+1 segments plus one snapshot. One
// compaction runs at a time, as a job, so the committer keeps absorbing
// writes while the snapshot is dumped. Committer goroutine only.
func (w *wal) maybeCompact() {
	if j := w.compaction; j != nil {
		select {
		case <-j.done:
		default:
			return
		}
		w.compaction = nil
		if j.err == nil {
			w.segs = slices.DeleteFunc(w.segs, func(s int) bool { return s <= j.index })
			// No commit may follow to record the new count.
			w.batch.mu.Lock()
			w.batch.segments = len(w.segs)
			w.batch.mu.Unlock()
		}
	}
	if w.compactAt == w.openSeg() {
		return
	}
	// Every live segment is newer than the newest snapshot, because
	// recovery and the reap above drop each one a snapshot covers and an
	// unreaped compaction has returned already, and the last one is
	// open: all the others are closed and uncovered.
	if len(w.segs)-1 < w.maxSegs {
		return
	}
	w.compactAt = w.openSeg()
	through := w.compactAt - 1
	covered := slices.DeleteFunc(slices.Clone(w.segs), func(s int) bool { return s > through })
	w.compaction = w.startJob(through, func(j *walJob) { w.compact(j, covered) })
}

// compact is a compaction job: it dumps the full store state to a
// snapshot covering every segment up to and including j.index, then
// prunes the covered segments, by the indexes the committer copied out
// of segs when it started the job, and the snapshots it obsoletes. The
// memory state is always ahead of the log, so a snapshot taken after the
// covered segments closed is a superset of them; replay idempotency
// makes the overlap with newer segments harmless.
func (w *wal) compact(j *walJob, covered []int) {
	through := j.index
	if j.err = w.writeSnapshot(through, w.snapshotFn()); j.err != nil {
		os.Remove(filepath.Join(w.dir, walSnapTmp)) // a half-written one, if any
		log.Printf("engine: wal snapshot through segment %d failed: %v", through, j.err)
		return
	}
	for _, s := range covered {
		if err := os.Remove(filepath.Join(w.dir, walSegName(s))); err != nil {
			log.Printf("engine: wal pruning segment %d: %v", s, err)
		}
	}
	// Every older snapshot is obsolete, not only the one the log booted
	// from: recovery may have passed over unusable ones, which nothing
	// else would ever remove.
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		log.Printf("engine: wal listing snapshots to prune: %v", err)
	}
	for _, e := range entries {
		var i int
		if !parseWALName(e.Name(), walSnapPattern, &i) || i >= through {
			continue
		}
		if err := os.Remove(filepath.Join(w.dir, e.Name())); err != nil {
			log.Printf("engine: wal pruning snapshot %d: %v", i, err)
		}
	}
}

// writeSnapshot atomically installs a snapshot of ops covering
// segments <= through: written to a temp file, fsynced, renamed into
// place, directory fsynced — the standard crash-safe install sequence.
func (w *wal) writeSnapshot(through int, ops []*core.Operation) error {
	tmpPath := filepath.Join(w.dir, walSnapTmp)
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var rec []byte
	for _, op := range ops {
		var err error
		rec, err = encodeOpRecordV2(rec[:0], op)
		if err != nil {
			// Skip the unserialisable op rather than abort the whole
			// snapshot; it was never durable to begin with.
			log.Printf("engine: wal snapshot skipping %s: %v", op.ID, err)
			continue
		}
		if _, err := bw.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := w.sync(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(w.dir, walSnapName(through))); err != nil {
		return err
	}
	return w.syncDir()
}

// syncDir fsyncs the log directory so entry creations and renames are
// themselves durable.
func (w *wal) syncDir() error {
	d, err := os.Open(w.dir)
	if err != nil {
		return err
	}
	err = w.sync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// finalize is the clean-shutdown path: commit anything staged, cut the
// open segment's zero tail, fsync regardless of mode (a clean close
// should be durable even under none/group), close the segment, and
// remove a prepared segment that was never used. A cleanly closed log
// thus holds no preallocated space, and the next open reads no zeros. A
// commit that failed at any point in the log's life is the error
// reported, ahead of the sync's or the close's.
func (w *wal) finalize() error {
	w.commit()
	w.dropPrep(true)
	var err error
	if w.batch.err != nil { // the committer is its only writer
		err = fmt.Errorf("records may not be durable: %w", w.batch.err)
	}
	if w.f != nil {
		// A zero tail left in place is still a clean end, so a failed
		// cut costs the next open a read, never a record.
		if terr := w.f.Truncate(w.segSize); terr != nil {
			log.Printf("engine: wal trimming segment %d: %v", w.openSeg(), terr)
		}
		if serr := w.sync(w.f); err == nil {
			err = serr
		}
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
