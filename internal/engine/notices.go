package engine

// The notices feed: a bounded ring of state-transition records with a
// monotonic cursor, so one connection can watch every operation without
// holding N long-polls. Modeled on snapd's notices API — clients read
// forward from a cursor (`after`), block when caught up, and resume
// from wherever they left off; a cursor that has fallen off the ring
// simply resumes from the oldest retained notice (the feed is a tail,
// not an archive — the store remains the source of truth).
//
// Wakeups use a closed-channel broadcast, made only on demand: a reader
// about to block asks for the ring's "changed" channel, which creates
// it, and the next append takes it away and closes it, waking every
// blocked reader at once. With nobody subscribed — the daemon's normal
// state — an append touches no channel at all. Readers fetch the
// channel BEFORE scanning the ring (subscribe-then-check, same
// discipline as AwaitChange) so an append landing between the scan
// and the block is never missed.

import (
	"context"
	"sync"
	"time"

	"opdaemon/internal/core"
)

// Notice is one state-transition record: operation id, kind, the
// status entered, and when. Seq is the feed-wide monotonic cursor,
// starting at 1; clients pass the largest Seq they have seen as
// `after` to read strictly newer notices.
type Notice struct {
	Seq    uint64      `json:"seq"`
	OpID   string      `json:"op_id"`
	Kind   string      `json:"kind"`
	Status core.Status `json:"status"`
	Time   time.Time   `json:"time"`
}

// NoticeQuery selects a page of the feed.
type NoticeQuery struct {
	// After is the cursor: only notices with Seq > After are returned.
	// Zero reads from the oldest retained notice.
	After uint64
	// Kinds, when non-empty, keeps only notices whose operation kind is
	// in the set.
	Kinds []string
	// Statuses, when non-empty, keeps only notices for these statuses.
	Statuses []core.Status
	// Limit bounds the page size; <= 0 means no bound (the ring
	// capacity is the effective ceiling).
	Limit int
}

func (q NoticeQuery) match(n *Notice) bool {
	if len(q.Kinds) > 0 {
		ok := false
		for _, k := range q.Kinds {
			if n.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(q.Statuses) > 0 {
		ok := false
		for _, s := range q.Statuses {
			if n.Status == s {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// noticeRing is the fixed-capacity transition log. The notice with
// sequence s lives at buf[(s-1) % len(buf)]; once the feed wraps, the
// oldest retained sequence is seq-len(buf)+1. Its name places its
// critical sections under the lockscope analyzer's
// no-channel-ops-under-lock contract — the broadcast close happens
// after unlock.
type noticeRing struct {
	mu  sync.Mutex
	buf []Notice
	seq uint64 // last assigned sequence; 0 before the first notice
	// changed is the channel the next append closes; nil while no
	// reader has asked for one since the last append.
	changed chan struct{}
	scanned uint64 // entries since has examined, for tests
}

func newNoticeRing(capacity int) *noticeRing {
	if capacity <= 0 {
		capacity = 4096
	}
	return &noticeRing{buf: make([]Notice, capacity)}
}

// putLocked records one transition. Callers hold r.mu.
func (r *noticeRing) putLocked(opID, kind string, status core.Status, at time.Time) {
	r.seq++
	r.buf[(r.seq-1)%uint64(len(r.buf))] = Notice{
		Seq:    r.seq,
		OpID:   opID,
		Kind:   kind,
		Status: status,
		Time:   at,
	}
}

// wake closes the channel an append took from the ring, if a reader had
// subscribed. It runs after unlock: a reader woken here immediately
// rescans the ring, which needs the lock.
func wake(subscribed chan struct{}) {
	if subscribed != nil {
		close(subscribed)
	}
}

// append records one transition and wakes every blocked reader.
func (r *noticeRing) append(opID, kind string, status core.Status, at time.Time) {
	r.mu.Lock()
	r.putLocked(opID, kind, status, at)
	subscribed := r.changed
	r.changed = nil
	r.mu.Unlock()
	wake(subscribed)
}

// appendQueued records the birth of every operation of a batch under
// one lock acquisition, then wakes the readers once.
func (r *noticeRing) appendQueued(ops []*core.Operation) {
	r.mu.Lock()
	for _, op := range ops {
		r.putLocked(op.ID, op.Kind, core.StatusQueued, op.CreatedAt)
	}
	subscribed := r.changed
	r.changed = nil
	r.mu.Unlock()
	wake(subscribed)
}

// waitChan returns the channel closed by the next append, creating it
// if this is the first reader since the last one. Readers must fetch it
// before calling since — the subscribe-then-check order that makes the
// blocked select race-free against concurrent appends.
func (r *noticeRing) waitChan() <-chan struct{} {
	r.mu.Lock()
	if r.changed == nil {
		r.changed = make(chan struct{})
	}
	ch := r.changed
	r.mu.Unlock()
	return ch
}

// since returns the retained notices selected by q, oldest first, and
// the sequence it scanned through: after an empty page, a cursor there
// selects what q.After does, without rescanning what did not match. A
// cursor at or past the newest notice yields an empty page (the >=
// comparison also guards the q.After+1 overflow at MaxUint64); a
// cursor that has fallen off the ring resumes from the oldest retained
// notice.
func (r *noticeRing) since(q NoticeQuery) ([]Notice, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq == 0 || q.After >= r.seq {
		return nil, q.After
	}
	n := uint64(len(r.buf))
	oldest := uint64(1)
	if r.seq > n {
		oldest = r.seq - n + 1
	}
	start := q.After + 1
	if start < oldest {
		start = oldest
	}
	var out []Notice
	for s := start; s <= r.seq; s++ {
		r.scanned++
		nt := &r.buf[(s-1)%n]
		if !q.match(nt) {
			continue
		}
		out = append(out, *nt)
		if q.Limit > 0 && len(out) == q.Limit {
			return out, s
		}
	}
	return out, r.seq
}

// last returns the newest assigned sequence, for Stats and tests.
func (r *noticeRing) last() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Notices returns the retained state-transition records selected by q,
// oldest first, without blocking. An empty page means the cursor is
// caught up (or nothing matched the filters).
func (e *Engine) Notices(q NoticeQuery) []Notice {
	ns, _ := e.notices.since(q)
	return ns
}

// AwaitNotices blocks until at least one notice newer than q.After
// matches q, then returns the matching page (oldest first). Cancelling
// ctx returns its error. The caller advances q.After to the last Seq it
// received before the next call.
func (e *Engine) AwaitNotices(ctx context.Context, q NoticeQuery) ([]Notice, error) {
	for {
		// Fetch the wake channel before scanning: an append that lands
		// after the scan closes this very channel, so the select below
		// cannot sleep through it. A wake resumes the scan where the
		// last one ended; what it skipped did not match.
		ch := e.notices.waitChan()
		ns, through := e.notices.since(q)
		if len(ns) > 0 {
			return ns, nil
		}
		q.After = through
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
