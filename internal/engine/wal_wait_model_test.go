package engine

// Model-based test of the log's commit waits: seeded histories in which
// goroutines stage records and wait for them through admitWait,
// transitionWait and flush, against a log whose segment fsyncs a seeded
// hook holds open and fails. The hook reads the frames each fsync
// covers, so the model knows which records every commit carried and
// when that commit ended without asking the log's own counters. What
// must hold:
//
//   - a wait its sync mode parks (admitWait under every syncing mode,
//     transitionWait under WALSyncAlways) returns only after the commit
//     that carried the caller's records has ended;
//   - flush returns only after every record staged before it was called
//     has been carried by an ended commit; it returns the injected error
//     once a commit failed before it was called, and no error while none
//     has failed;
//   - close(false) commits what is left, reports a failure iff one
//     happened, and once it returns no waiter stays parked.
//
// WALSyncNone is not drawn: it never fsyncs, so the hook would see no
// commit end.
//
// A failure prints its seed; -modelseed N reruns that history (the
// interleaving itself is the scheduler's).

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

var errModelFsync = errors.New("injected fsync failure")

// walWaitModel is the oracle and the log's fsync hook.
type walWaitModel struct {
	t    *testing.T
	seed int64

	mu sync.Mutex
	// r draws the hook's holds and failures; the workers draw from
	// their own sources.
	r                *rand.Rand
	holdPct, failPct int
	// off is how much of the segment earlier fsyncs covered.
	off int
	// ended holds the records carried by a commit whose fsync has
	// returned; failed says whether one of those fsyncs failed.
	ended  map[string]bool
	failed bool
	// staged lists the records whose stage call has returned.
	staged []string
}

func (m *walWaitModel) fail(format string, args ...any) {
	m.t.Helper()
	m.t.Errorf("seed %d (rerun with -modelseed %d): %s", m.seed, m.seed, fmt.Sprintf(format, args...))
}

// sync is the log's syncHook. A segment fsync reads the frames written
// since the last one, may hold for up to 300 µs so that writers board
// the next generation meanwhile, and records those frames as ended
// (and the failure, if it draws one) just before it returns. Directory
// fsyncs pass.
func (m *walWaitModel) sync(f *os.File) error {
	if fi, err := f.Stat(); err != nil || fi.IsDir() {
		return err
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		m.fail("reading the segment at its fsync: %v", err)
		return err
	}
	m.mu.Lock()
	refs, valid, scanErr := walScanFrames(data[m.off:], nil)
	m.off += valid
	var hold time.Duration
	if m.r.Intn(100) < m.holdPct {
		hold = time.Duration(m.r.Intn(300)) * time.Microsecond
	}
	failed := m.r.Intn(100) < m.failPct
	m.mu.Unlock()
	if scanErr != nil {
		m.fail("segment at its fsync: %v", scanErr)
	}
	time.Sleep(hold)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ref := range refs {
		m.ended[string(ref.body)] = true
	}
	if failed {
		m.failed = true
		return errModelFsync
	}
	return nil
}

// checkEnded fails unless every record in ids has ended.
func (m *walWaitModel) checkEnded(call string, ids []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		if !m.ended[id] {
			m.fail("%s returned before the commit carrying %s ended", call, id)
			return
		}
	}
}

// checkFlush checks flush's outcome: every record staged before the
// call (the first n) ended, and the error sticky since failedBefore.
func (m *walWaitModel) checkFlush(n int, failedBefore bool, err error) {
	m.mu.Lock()
	before := m.staged[:n]
	failed := m.failed
	m.mu.Unlock()
	m.checkEnded("flush", before)
	switch {
	case err != nil && !errors.Is(err, errModelFsync):
		m.fail("flush = %v, want nil or the injected error", err)
	case err != nil && !failed:
		m.fail("flush = %v with no failed commit", err)
	case err == nil && failedBefore:
		m.fail("flush = nil after a commit failed")
	}
}

// walWaitWorker runs one goroutine's history: steps of one to three
// stage calls followed by one wait, or none.
func (m *walWaitModel) walWaitWorker(w *wal, worker int, r *rand.Rand, steps int, stagedAll *sync.WaitGroup) {
	n := 0
	for step := 0; step < steps; step++ {
		var g uint64
		var ids []string
		for range 1 + r.Intn(3) {
			var frames []byte
			k := 1 + r.Intn(3)
			for range k {
				id := fmt.Sprintf("w%d.%d", worker, n)
				n++
				frames = appendDeleteRecord(frames, id)
				ids = append(ids, id)
			}
			g = max(g, w.stage(frames, k))
			m.mu.Lock()
			m.staged = append(m.staged, ids[len(ids)-k:]...)
			m.mu.Unlock()
		}
		if step == steps-1 {
			stagedAll.Done()
		}
		switch r.Intn(4) {
		case 0:
			w.admitWait(g)
			m.checkEnded("admitWait", ids)
		case 1:
			w.transitionWait(g)
			if w.mode == WALSyncAlways {
				m.checkEnded("transitionWait", ids)
			}
		case 2:
			m.mu.Lock()
			staged, failedBefore := len(m.staged), m.failed
			m.mu.Unlock()
			m.checkFlush(staged, failedBefore, w.flush())
		}
	}
}

func TestWALWaitModel(t *testing.T) {
	seeds := []int64{1, 2, 3, time.Now().UnixNano()}
	if *modelSeed != 0 {
		seeds = []int64{*modelSeed}
	}
	steps := 60
	if testing.Short() {
		steps = 20
	}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		m := &walWaitModel{
			t:       t,
			seed:    seed,
			r:       rand.New(rand.NewSource(r.Int63())),
			holdPct: r.Intn(101),
			failPct: r.Intn(4) * 5, // 0, 5, 10 or 15 %
			ended:   map[string]bool{},
		}
		mode := []WALSyncMode{WALSyncGroup, WALSyncAlways}[r.Intn(2)]
		s := openWAL(t, t.TempDir(), WALConfig{Sync: mode, syncHook: m.sync})

		workers := 2 + r.Intn(5)
		var stagedAll, done sync.WaitGroup
		stagedAll.Add(workers)
		done.Add(workers)
		for i := range workers {
			wr := rand.New(rand.NewSource(r.Int63()))
			go func() {
				defer done.Done()
				m.walWaitWorker(s.log, i, wr, steps, &stagedAll)
			}()
		}
		// Close only once nothing more will be staged: a record staged
		// after the committer has stopped is never committed.
		if !waitGroupWithin(&stagedAll, 10*time.Second) {
			m.fail("%s: workers made no progress for 10s: a waiter stayed parked after its commit ended", mode)
		}
		err := s.log.close(false)
		if !waitGroupWithin(&done, 10*time.Second) {
			m.fail("%s: a waiter was still parked 10s after close(false) returned", mode)
			continue
		}
		m.mu.Lock()
		failed, staged := m.failed, m.staged
		m.mu.Unlock()
		m.checkEnded("close(false)", staged)
		if failed != (err != nil) || (err != nil && !errors.Is(err, errModelFsync)) {
			m.fail("%s: close(false) = %v, with a failed commit: %v", mode, err, failed)
		}
	}
}

// waitGroupWithin reports whether wg finished within d.
func waitGroupWithin(wg *sync.WaitGroup, d time.Duration) bool {
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return true
	case <-time.After(d):
		return false
	}
}
