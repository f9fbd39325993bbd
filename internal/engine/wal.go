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
// released. Writers that need durability park on the batch's commit
// ticket (walGen), which the committer resolves once the fsync lands;
// one disk flush is amortised across every writer that boarded the
// batch.

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
	// puts, updates, sweeps — wait for its commit ticket. Maximum
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

// walGen is one commit generation's ticket: every writer that appended
// into the generation's batch shares it. done closes after the batch's
// write+fsync completes; err is written before the close and read only
// after it.
type walGen struct {
	done chan struct{}
	err  error
}

// walBatch is the group-commit staging buffer. Its mutex is policed by
// lockscope as a nested-acquisition lock: writers may take it while
// holding a storeShard lock (that nesting is what keeps log order equal
// to publish order), but nothing may block or perform file I/O while
// holding it — the committer detaches buf and gen under the lock and
// does the write+fsync after releasing it.
type walBatch struct {
	mu sync.Mutex
	// buf accumulates encoded frames; n counts the records in them.
	buf []byte
	n   int
	// gen is the current generation's ticket, created lazily by the
	// first writer to board the batch.
	gen *walGen
	// last is the most recently detached generation — in flight or
	// already resolved — so flush can wait out a commit it did not
	// board.
	last *walGen
}

// walPrep is one segment prepared off the committer: created,
// zero-filled to the segment size, and fsynced, file first and directory
// entry second, before the committer may write a record into it.
type walPrep struct {
	index int
	// done closes when preparation has ended; f (nil on failure) and err
	// are written before it closes and read only after.
	done chan struct{}
	f    *os.File
	err  error
}

// walStatsCounters holds the observability counters the health
// endpoint surfaces, all under its one mutex, which the committer takes
// once per commit. Plain mutex over a tiny ring; not a policed type.
type walStatsCounters struct {
	mu sync.Mutex
	// sizes is a ring of recent commit batch sizes (records per
	// commit) from which the p50 is computed on demand.
	sizes [64]int
	next  int
	count int
	// fsyncs feeds the fsyncs-per-second rate.
	fsyncs drainMeter
	// failures counts batches whose write or fsync failed, over the
	// store's lifetime.
	failures uint64
}

// recordCommit notes one commit of n records at now: its size, its
// fsync if it made one, and its failure if it failed.
func (c *walStatsCounters) recordCommit(n int, fsynced, failed bool, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sizes[c.next] = n
	c.next = (c.next + 1) % len(c.sizes)
	c.count = min(c.count+1, len(c.sizes))
	if fsynced {
		c.fsyncs.record(now)
	}
	if failed {
		c.failures++
	}
}

// snapshot reads every counter in one critical section; BatchP50 is 0
// before the first commit.
func (c *walStatsCounters) snapshot(now time.Time) WALStats {
	c.mu.Lock()
	recent := slices.Clone(c.sizes[:c.count])
	st := WALStats{FsyncsPerSec: c.fsyncs.rate(now), CommitFailures: c.failures}
	c.mu.Unlock()
	if n := len(recent); n > 0 {
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

	stop     chan struct{}
	stopOnce sync.Once
	// die is the crash-simulation hook: closing it makes the committer
	// return without the final flush, exactly as if the process had
	// been killed. Tests only.
	die     chan struct{}
	dieOnce sync.Once
	done    chan struct{}
	// closeErr is the final-flush outcome, written by the committer
	// before done closes.
	closeErr error

	// Committer-goroutine-owned; no locks. segSize is where the next
	// batch is written in f. After a failed preparation, the next one
	// waits until segSize passes prepAfter. compactAt is the open
	// segment when the last compaction started: a failed one is retried
	// once another segment has closed, not on every commit.
	f         *os.File
	segIndex  int
	segSize   int64
	prepAfter int64
	compactAt int
	// prep is the next segment, in preparation or prepared and not yet
	// in use; nil when none is. Only the committer starts, swaps in or
	// drops one; the pointer is atomic so that tests can wait for it.
	prep atomic.Pointer[walPrep]
	// commitErr is the first failed commit's error. finalize reports it:
	// a later fsync that succeeds does not make that batch durable.
	commitErr error
	// spare recycles the detached batch buffer across commits.
	spare []byte

	// segMu guards the segment bookkeeping shared between the
	// committer (rotation appends) and the compactor (pruning
	// removes).
	segMu sync.Mutex
	segs  []int // sorted live segment indexes, including the open one
	// snapSeg is the highest segment index covered by the newest
	// snapshot; -1 before any snapshot exists.
	snapSeg int

	// compacting serialises snapshot compactions.
	compacting atomic.Bool
	compactWG  sync.WaitGroup
	// snapshotFn dumps the full store state for compaction; installed
	// by OpenWALStore before the committer starts.
	snapshotFn func() []*core.Operation

	stats walStatsCounters
}

func walSegName(i int) string  { return fmt.Sprintf("wal-%08d.log", i) }
func walSnapName(i int) string { return fmt.Sprintf("snap-%08d.wal", i) }

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
		stop:     make(chan struct{}),
		die:      make(chan struct{}),
		done:     make(chan struct{}),
		segIndex: layout.maxSeg + 1,
		segs:     append(layout.segs, layout.maxSeg+1),
		snapSeg:  layout.snapSeg,
	}
	f, err := w.createSegment(w.segIndex, false)
	if err != nil {
		return nil, err
	}
	w.f = f
	return w, nil
}

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

// prepareNext starts preparing the segment after the open one on a
// goroutine of its own, unless one is already in preparation or
// waiting. The committer waits for that goroutine before it exits
// (dropPrep). Committer goroutine only.
func (w *wal) prepareNext() {
	if w.prep.Load() != nil {
		return
	}
	p := &walPrep{index: w.segIndex + 1, done: make(chan struct{})}
	w.prep.Store(p)
	go func() {
		defer close(p.done)
		p.f, p.err = w.createSegment(p.index, true)
	}()
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
// onto the current batch, returning the generation ticket the caller
// may wait on. Callers may hold a storeShard lock: stage only appends
// to the staging buffer; all file I/O happens on the committer and the
// goroutines it starts. Nothing commits until wake is called — staging
// and waking are separate so a caller with records for several shards
// stages them all and wakes once, boarding one generation instead of
// straddling two.
//
// stage, wake and the two waits are everything a store's mutations call
// on the log, and each is a no-op on a nil *wal (no ticket is ever
// issued, so the waits return at their nil check): that is how a store
// without a journal runs the same mutation code.
func (w *wal) stage(frames []byte, recs int) *walGen {
	if w == nil || len(frames) == 0 {
		return nil
	}
	b := &w.batch
	b.mu.Lock()
	if b.gen == nil {
		b.gen = &walGen{done: make(chan struct{})}
	}
	g := b.gen
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

// admitWait parks the caller until its admission record is durable —
// the group-commit ticket wait — under the modes that promise durable
// admission. Under WALSyncNone nobody waits.
func (w *wal) admitWait(g *walGen) {
	if g == nil || w.mode == WALSyncNone {
		return
	}
	w.waitCommit(g)
}

// transitionWait parks the caller for a transition record only under
// WALSyncAlways; group mode logs transitions asynchronously (recovery
// resubmits or fails what the loss window eats — see
// docs/persistence.md).
func (w *wal) transitionWait(g *walGen) {
	if g == nil || w.mode != WALSyncAlways {
		return
	}
	w.waitCommit(g)
}

// waitCommit blocks until the generation's commit completes. Commit
// errors are logged once by the committer; waiters just proceed — the
// Store interface has no error channel for writes, and the in-memory
// state (the API's source of truth until restart) already holds the
// mutation.
func (w *wal) waitCommit(g *walGen) {
	<-g.done
}

// flush forces a commit of everything staged so far and waits for it,
// returning the commit's write/fsync outcome. With nothing staged it
// waits on the newest detached generation instead: records the
// committer took a moment ago are durable only once that fsync lands.
func (w *wal) flush() error {
	b := &w.batch
	b.mu.Lock()
	g := b.gen
	if g == nil {
		g = b.last
	}
	b.mu.Unlock()
	if g == nil {
		return nil
	}
	w.wake()
	<-g.done
	return g.err
}

// close flushes staged records, stops the committer, waits for any
// in-flight compaction and segment preparation, trims and closes the
// segment file, and removes a prepared segment that was never used.
func (w *wal) close() error {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
	w.compactWG.Wait()
	return w.closeErr
}

// abort is the crash-simulation close: the committer exits immediately,
// dropping whatever is staged but not yet committed, and the segment
// file is left un-flushed — the closest a live process gets to
// kill -9. A segment preparation in flight is waited for and its file
// left on disk. Tests only.
func (w *wal) abort() {
	w.dieOnce.Do(func() { close(w.die) })
	<-w.done
	w.compactWG.Wait()
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
		case <-w.die:
			w.dropPrep(false)
			return
		case <-w.stop:
			w.closeErr = w.finalize()
			return
		case <-w.kick:
		}
		w.commit()
		w.maybeCompact()
	}
}

// commit detaches the staged batch and performs its write+fsync. The
// detach happens under the batch lock; the file I/O strictly after its
// release — the invariant lockscope's file-I/O rule enforces.
func (w *wal) commit() {
	b := &w.batch
	b.mu.Lock()
	if b.n == 0 {
		b.mu.Unlock()
		return
	}
	buf, gen, n := b.buf, b.gen, b.n
	b.buf = w.spare[:0]
	b.gen = nil
	b.last = gen
	b.n = 0
	b.mu.Unlock()

	err := w.writeAndSync(buf)
	w.spare = buf[:0]
	// Account for the batch before resolving its ticket: a writer that
	// has just been acknowledged must find its own commit in WALStats.
	// Its fsync counts when the batch succeeded under a syncing mode.
	w.stats.recordCommit(n, err == nil && w.mode != WALSyncNone, err != nil, time.Now())
	if err != nil {
		// The Store interface has no write-error channel, so the failure
		// counter and this log line are the operator's signal that
		// durability is degraded; the in-memory state remains correct
		// until restart.
		log.Printf("engine: wal commit of %d records failed: %v", n, err)
		if w.commitErr == nil {
			w.commitErr = err
		}
	}
	gen.err = err
	close(gen.done)
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
		return fmt.Errorf("wal: writing segment %d: %w", w.segIndex, err)
	}
	w.segSize += int64(len(buf))
	if w.mode != WALSyncNone {
		if err := w.sync(w.f); err != nil {
			return fmt.Errorf("wal: fsync segment %d: %w", w.segIndex, err)
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
		log.Printf("engine: wal rotation failed, still appending to segment %d: %v", w.segIndex, p.err)
		w.prepAfter = w.segSize + w.segBytes/2
		return
	}
	old, i := w.f, w.segIndex
	w.f, w.segIndex, w.segSize, w.prepAfter = p.f, p.index, 0, 0
	w.segMu.Lock()
	w.segs = append(w.segs, p.index)
	w.segMu.Unlock()
	if err := old.Close(); err != nil {
		log.Printf("engine: wal closing segment %d: %v", i, err)
	}
}

// maybeCompact folds the closed segments into a snapshot, after a
// commit, once maxSegs of them have accumulated since the last one. It
// is the log's only compaction trigger, and it is what bounds replay and
// disk: about maxSegs+1 segments plus one snapshot. One compaction runs
// at a time, on its own goroutine so the committer keeps absorbing
// writes while the snapshot is dumped; the committer is the only
// goroutine that starts one.
func (w *wal) maybeCompact() {
	if w.compacting.Load() || w.compactAt == w.segIndex {
		return
	}
	w.segMu.Lock()
	closed := 0
	for _, s := range w.segs {
		if s != w.segIndex && s > w.snapSeg {
			closed++
		}
	}
	w.segMu.Unlock()
	if closed < w.maxSegs {
		return
	}
	w.compacting.Store(true)
	w.compactAt = w.segIndex
	w.compactWG.Add(1)
	go w.compact(w.segIndex - 1)
}

// compact dumps the full store state to a snapshot covering every
// segment up to and including through, then prunes the segments and
// snapshots it obsoletes. The memory state is always ahead of the log,
// so a snapshot taken after the covered segments closed is a superset
// of them; replay idempotency makes the overlap with newer segments
// harmless.
func (w *wal) compact(through int) {
	defer w.compactWG.Done()
	defer w.compacting.Store(false)
	ops := w.snapshotFn()
	if err := w.writeSnapshot(through, ops); err != nil {
		os.Remove(filepath.Join(w.dir, walSnapTmp)) // a half-written one, if any
		log.Printf("engine: wal snapshot through segment %d failed: %v", through, err)
		return
	}
	w.segMu.Lock()
	w.snapSeg = through
	kept := w.segs[:0]
	var drop []int
	for _, s := range w.segs {
		if s <= through {
			drop = append(drop, s)
			continue
		}
		kept = append(kept, s)
	}
	w.segs = kept
	w.segMu.Unlock()
	for _, s := range drop {
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
		if !parseWALName(e.Name(), "snap-%08d.wal", &i) || i >= through {
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
	if w.commitErr != nil {
		err = fmt.Errorf("records may not be durable: %w", w.commitErr)
	}
	if w.f != nil {
		// A zero tail left in place is still a clean end, so a failed
		// cut costs the next open a read, never a record.
		if terr := w.f.Truncate(w.segSize); terr != nil {
			log.Printf("engine: wal trimming segment %d: %v", w.segIndex, terr)
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

// snapshotStats assembles the health-endpoint counters.
func (w *wal) snapshotStats() WALStats {
	st := w.stats.snapshot(time.Now())
	w.segMu.Lock()
	st.Segments = len(w.segs)
	w.segMu.Unlock()
	return st
}
