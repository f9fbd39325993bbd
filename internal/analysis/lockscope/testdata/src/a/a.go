// Package a exercises the lockscope diagnostics against a miniature
// replica of the engine's shard shapes.
package a

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// storeShard mirrors the engine's shard: its name is what makes the
// mu critical sections policed.
type storeShard struct {
	mu  sync.RWMutex
	ops map[string]int
}

// Store mirrors the engine's pluggable storage interface.
type Store interface {
	Get(id string) (int, bool)
	Put(id string, v int)
}

// sendUnderLock blocks the shard on a channel send.
func sendUnderLock(sh *storeShard, ch chan int) {
	sh.mu.Lock()
	ch <- 1 // want `channel send inside the sh\.mu critical section`
	sh.mu.Unlock()
}

// receiveUnderDeferredLock holds the lock to function end via defer.
func receiveUnderDeferredLock(sh *storeShard, ch chan int) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return <-ch // want `channel receive inside the sh\.mu critical section`
}

// selectUnderLock blocks in a select with no default.
func selectUnderLock(sh *storeShard, a, b chan int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select { // want `select with no default inside the sh\.mu critical section`
	case <-a:
	case <-b:
	}
}

// callbackUnderLock runs arbitrary code inside the critical section.
func callbackUnderLock(sh *storeShard, fn func()) {
	sh.mu.Lock()
	fn() // want `call through function value fn inside a shard critical section`
	sh.mu.Unlock()
}

// storeCallUnderLock re-enters the pluggable store under the lock.
func storeCallUnderLock(sh *storeShard, s Store) {
	sh.mu.Lock()
	s.Put("x", 1) // want `call to Store\.Put inside a shard critical section`
	sh.mu.Unlock()
}

// lockedGet is a same-package acquirer.
func lockedGet(sh *storeShard, id string) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.ops[id]
}

// viaHelper acquires transitively, through lockedGet.
func viaHelper(sh *storeShard, id string) int {
	return lockedGet(sh, id)
}

// reentrantCall would deadlock on the same shard mutex.
func reentrantCall(sh *storeShard, id string) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return viaHelper(sh, id) // want `call to viaHelper inside a shard critical section re-acquires a shard lock`
}

// doubleLock acquires the same mutex twice.
func doubleLock(sh *storeShard) {
	sh.mu.Lock()
	sh.mu.Lock() // want `acquiring sh\.mu while it is already held: self-deadlock`
	sh.mu.Unlock()
	sh.mu.Unlock()
}

// unorderedPair takes two specific shards at once.
func unorderedPair(a, b *storeShard) {
	a.mu.Lock()
	b.mu.Lock() // want `acquiring b\.mu while a\.mu is held: hold one shard lock at a time`
	b.mu.Unlock()
	a.mu.Unlock()
}

// allShardsRead read-locks every shard at once: each iteration takes
// one more lock, and a writer waiting on any shard not yet reached keeps
// writers off every shard already held.
func allShardsRead(shards []*storeShard) int {
	n := 0
	for _, sh := range shards {
		sh.mu.RLock() // want `acquiring sh\.mu in a loop without releasing it in the loop`
	}
	defer func() {
		for _, sh := range shards {
			sh.mu.RUnlock()
		}
	}()
	for _, sh := range shards {
		n += len(sh.ops)
	}
	return n
}

// oneShardAtATime is the sanctioned cross-shard walk: each shard's lock
// is released in the iteration that took it.
func oneShardAtATime(shards []*storeShard) int {
	n := 0
	for i := 0; i < len(shards); i++ {
		shards[i].mu.RLock()
		n += len(shards[i].ops)
		shards[i].mu.RUnlock()
	}
	return n
}

// trySendUnderLock cannot block: the select has a default.
func trySendUnderLock(sh *storeShard, ch chan int) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case ch <- 1:
		return true
	default:
		return false
	}
}

// sendAfterUnlock is clean: the critical section ended.
func sendAfterUnlock(sh *storeShard, ch chan int) {
	sh.mu.Lock()
	sh.ops["x"] = 1
	sh.mu.Unlock()
	ch <- 1
}

// goUnderLock launches work under the lock but the goroutine body runs
// elsewhere; the send is not part of this critical section.
func goUnderLock(sh *storeShard, ch chan int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	go func() {
		ch <- 1
	}()
}

// suppressedCallback documents the one sanctioned callback site.
func suppressedCallback(sh *storeShard, fn func()) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	//lint:allow opdaemon/lockscope fixture mirror of Update's clone-mutation contract
	fn()
}

// inflight mirrors the engine's side table: per-ID waiter lists woken
// by channel sends, the running handlers' cancel functions, and the
// notices feed's closed-channel broadcast, all under one mutex.
type inflight struct {
	mu      sync.Mutex
	waiting map[string][]chan int
	cancels map[string]func(error)
	changed chan struct{}
}

// wakeUnderLock is the deadlock-shaped wake bug: waking waiters while
// the table lock is held means a slow (or buggy, unbuffered) receiver
// stalls every subscribe, publish, install and retire.
func wakeUnderLock(t *inflight, id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ch := range t.waiting[id] {
		ch <- 1 // want `channel send inside the t\.mu critical section`
	}
}

// broadcastUnderLock closes the feed's broadcast channel inside the
// critical section: every woken reader rescans the ring and queues on
// the lock the publisher still holds.
func broadcastUnderLock(t *inflight) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.changed != nil {
		close(t.changed) // want `channel close inside the t\.mu critical section`
		t.changed = nil
	}
}

// waitUnderLock blocks on the broadcast channel while holding the
// table lock the publisher needs — a deadlock, not a wait.
func waitUnderLock(t *inflight) {
	t.mu.Lock()
	defer t.mu.Unlock()
	<-t.changed // want `channel receive inside the t\.mu critical section`
}

// detachThenWake is the sanctioned publish: detach the waiter list and
// take the broadcast channel under the lock, close and send after
// unlock.
func detachThenWake(t *inflight, id string) {
	t.mu.Lock()
	ws := t.waiting[id]
	delete(t.waiting, id)
	changed := t.changed
	t.changed = nil
	t.mu.Unlock()
	if changed != nil {
		close(changed)
	}
	for _, ch := range ws {
		ch <- 1
	}
}

// cancelUnderLock invokes a stored cancel function inside the table's
// critical section: context cancellation fans out to every child
// context and their AfterFuncs, arbitrary code under the lock every
// transition takes.
func cancelUnderLock(t *inflight, id string, cause error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fn, ok := t.cancels[id]; ok {
		fn(cause) // want `call through function value fn inside a shard critical section`
	}
}

// lookupThenCancel is the sanctioned cancel shape: look the function up
// under the lock, invoke it after unlock.
func lookupThenCancel(t *inflight, id string, cause error) {
	t.mu.Lock()
	fn, ok := t.cancels[id]
	t.mu.Unlock()
	if ok {
		fn(cause)
	}
}

// schedQueue mirrors the engine's dispatch scheduler: per-client
// queues drained under one short-critical-section mutex that also
// delimits admission and the idle workers' park, with time sampled by
// callers because the clock is a function value.
type schedQueue struct {
	mu    sync.Mutex
	wake  sync.Cond // L is &mu
	items []string
	clock func() int64
}

// parkUnderSchedLock is the worker's park: sync.Cond.Wait on the policed
// mutex releases it while waiting, so it is the one wait allowed inside
// the section.
func parkUnderSchedLock(q *schedQueue) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		q.wake.Wait()
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it
}

// clockUnderSchedLock calls the clock function value inside the
// dispatch critical section — arbitrary (test-injected) code under the
// hottest lock in the engine. A worker woken from its park samples the
// clock after releasing the lock instead.
func clockUnderSchedLock(q *schedQueue) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		q.wake.Wait()
	}
	return q.clock() // want `call through function value clock inside a shard critical section`
}

// sendUnderSchedLock wakes a worker through a channel while holding the
// queue lock; a full channel stalls every submitter.
func sendUnderSchedLock(q *schedQueue, ready chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ready <- struct{}{} // want `channel send inside the q\.mu critical section`
}

// receiveUnderSchedLock parks on a channel instead of the condition:
// unlike Cond.Wait it keeps the lock, so no commit can ever get in to
// wake it.
func receiveUnderSchedLock(q *schedQueue, ready chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	<-ready // want `channel receive inside the q\.mu critical section`
}

// storeUnderSchedLock writes the admitted batch inside the admission
// section; the store write belongs between reserve and commit, with no
// lock held.
func storeUnderSchedLock(q *schedQueue, s Store, id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = append(q.items, id)
	s.Put(id, 1) // want `call to Store\.Put inside a shard critical section`
}

// sampleThenCommit is the sanctioned scheduler pattern: sample the clock
// outside the lock, touch only slices within it, signal the condition
// (which never blocks) on the way out.
func sampleThenCommit(q *schedQueue, id string) {
	now := q.clock()
	_ = now
	q.mu.Lock()
	q.items = append(q.items, id)
	q.mu.Unlock()
	q.wake.Signal()
}

// walBatch mirrors the WAL's group-commit staging buffer: the
// nested-acquisition class. Taking it under a shard lock is the one
// sanctioned nesting; blocking and file I/O under it are still flagged,
// and it must be innermost.
type walBatch struct {
	mu    sync.Mutex
	slot  sync.Cond // L is &mu
	ended bool
	buf   []byte
}

// sleepUnderShardLock waits out a timer with the shard held: every
// operation on the shard waits with it.
func sleepUnderShardLock(sh *storeShard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep inside the sh\.mu critical section`
}

// joinUnderShardLock waits for goroutines that may need the shard it
// holds — a deadlock if any of them does.
func joinUnderShardLock(sh *storeShard, wg *sync.WaitGroup) {
	sh.mu.Lock()
	wg.Wait() // want `sync\.WaitGroup\.Wait inside the sh\.mu critical section`
	sh.mu.Unlock()
}

// sleepUnderBatchLock keeps every writer from boarding the batch while
// it sleeps.
func sleepUnderBatchLock(b *walBatch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep inside the b\.mu critical section`
}

// joinUnderBatchLock waits for goroutines while holding the staging
// lock they board through.
func joinUnderBatchLock(b *walBatch, wg *sync.WaitGroup) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wg.Wait() // want `sync\.WaitGroup\.Wait inside the b\.mu critical section`
}

// awaitCommit mirrors the WAL's wait for its commit: Cond.Wait on the
// staging mutex itself releases it while waiting, so it is clean.
func awaitCommit(b *walBatch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.ended {
		b.slot.Wait()
	}
}

// fsyncUnderShardLock performs the fsync inside the shard critical
// section — the stall the WAL's group commit exists to avoid.
func fsyncUnderShardLock(sh *storeShard, f *os.File) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f.Sync() // want `\(\*os\.File\)\.Sync inside the sh\.mu critical section: file I/O under a policed lock`
}

// renameUnderBatchLock mutates the filesystem while holding the
// staging lock every writer needs to board the batch.
func renameUnderBatchLock(b *walBatch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	os.Rename("a", "b") // want `os\.Rename inside the b\.mu critical section: file I/O under a policed lock`
}

// stage mirrors wal.enqueue: append to the staging buffer under the
// batch lock, no file I/O. Calling it under a shard lock is the
// sanctioned nesting.
func stage(b *walBatch, rec []byte) {
	b.mu.Lock()
	b.buf = append(b.buf, rec...)
	b.mu.Unlock()
}

// applyAndStage is the WALStore mutation shape: publish to the index
// and stage the record inside the same shard critical section. Clean —
// stage acquires only the nested-class lock.
func applyAndStage(sh *storeShard, b *walBatch, rec []byte) {
	sh.mu.Lock()
	sh.ops["x"] = 1
	stage(b, rec)
	sh.mu.Unlock()
}

// inlineNestedStage takes the batch lock directly under the shard
// lock — the same sanctioned nesting, spelled inline.
func inlineNestedStage(sh *storeShard, b *walBatch, rec []byte) {
	sh.mu.Lock()
	sh.ops["x"] = 1
	b.mu.Lock()
	b.buf = append(b.buf, rec...)
	b.mu.Unlock()
	sh.mu.Unlock()
}

// shardLockUnderBatch inverts the sanctioned order: the staging lock
// must be innermost, or boarding writers (who hold shard locks) and
// this path deadlock against each other.
func shardLockUnderBatch(sh *storeShard, b *walBatch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sh.mu.Lock() // want `acquiring sh\.mu while the staging lock b\.mu is held: the staging lock must be innermost`
	sh.mu.Unlock()
}

// stageUnderBatchLock re-enters the staging lock it already holds.
func stageUnderBatchLock(b *walBatch, rec []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	stage(b, rec) // want `call to stage while the staging lock b\.mu is held re-acquires it: self-deadlock`
}

// spill writes the buffer to disk — fine on the committer goroutine
// with no locks held, flagged transitively when called under one.
func spill(path string, buf []byte) error {
	return os.WriteFile(path, buf, 0o644)
}

// spillUnderShardLock reaches the filesystem through a same-package
// helper while holding the shard lock.
func spillUnderShardLock(sh *storeShard, buf []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	spill("x", buf) // want `call to spill inside the sh\.mu critical section performs file I/O`
}

// detachThenSpill is the committer's sanctioned shape: detach the
// buffer under the staging lock, perform the write+fsync after unlock.
func detachThenSpill(b *walBatch, f *os.File) {
	b.mu.Lock()
	buf := b.buf
	b.buf = nil
	b.mu.Unlock()
	f.Write(buf)
	f.Sync()
}

// marshalUnderShardLock serialises a record inside the shard critical
// section — the encode-outside-the-lock contract violation the codec
// rule exists for.
func marshalUnderShardLock(sh *storeShard) []byte {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, _ := json.Marshal(sh.ops) // want `encoding/json\.Marshal inside the sh\.mu critical section encodes a record under a policed lock`
	return rec
}

// encodeOpRecordV2 mirrors the engine's record encoder; its name is
// what makes calls to it codec calls.
func encodeOpRecordV2(dst []byte, v int) []byte {
	return append(dst, byte(v))
}

// encodeUnderBatchLock reaches the codec through a same-package helper
// while holding the staging lock.
func encodeUnderBatchLock(b *walBatch, v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = encodeRecord(b.buf, v) // want `call to encodeRecord inside the b\.mu critical section encodes a record`
}

// encodeRecord is a transitive codec caller: flagged only when invoked
// under a policed lock.
func encodeRecord(dst []byte, v int) []byte {
	return encodeOpRecordV2(dst, v)
}

// AppendJSON mirrors core's wire codec entry point; like the record
// encoders, its name is what makes calls to it codec calls.
func AppendJSON(dst []byte, v int) []byte {
	return append(dst, '0'+byte(v))
}

// replyUnderShardLock builds a reply body inside the shard critical
// section: the wire codec is pure CPU too, and readers hold shared
// immutable snapshots precisely so that it can run after unlock.
func replyUnderShardLock(sh *storeShard) []byte {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return AppendJSON(nil, sh.ops["x"]) // want `a\.AppendJSON inside the sh\.mu critical section encodes a record under a policed lock`
}

// replyAfterUnlock is the sanctioned read shape: copy the snapshot out
// under the lock, encode it after.
func replyAfterUnlock(sh *storeShard) []byte {
	sh.mu.RLock()
	v := sh.ops["x"]
	sh.mu.RUnlock()
	return AppendJSON(nil, v)
}

// encodeThenStage is the sanctioned WAL mutation shape: encode the
// record into a buffer first, then let the critical section cover only
// apply + staging of the prepared bytes.
func encodeThenStage(sh *storeShard, b *walBatch, v int) {
	rec := encodeRecord(nil, v)
	sh.mu.Lock()
	sh.ops["x"] = v
	stage(b, rec)
	sh.mu.Unlock()
}

// unpolicedMutex guards a type outside the policed set; lockscope does
// not constrain it.
type unpoliced struct {
	mu sync.Mutex
}

func otherLock(u *unpoliced, ch chan int) {
	u.mu.Lock()
	ch <- 1
	u.mu.Unlock()
}
