package engine

// The notices feed: a bounded ring of state-transition records with a
// monotonic cursor, so one connection can watch every operation without
// holding N long-polls. Modeled on snapd's notices API — clients read
// forward from a cursor (`after`), block when caught up, and resume
// from wherever they left off; a cursor that has fallen off the ring
// simply resumes from the oldest retained notice (the feed is a tail,
// not an archive — the store remains the source of truth).
//
// The ring lives in the in-flight table (watch.go), so a transition
// appends its notice under the same lock that detaches its long-poll
// waiters. Wakeups use a closed-channel broadcast, made only on demand:
// a reader about to block asks for the table's "changed" channel, which
// creates it, and the next notice takes it away and closes it, waking
// every blocked reader at once. With nobody subscribed — the daemon's
// normal state — a notice touches no channel at all. Readers fetch the
// channel BEFORE scanning the ring (subscribe-then-check, same
// discipline as AwaitChange) so a notice landing between the scan and
// the block is never missed.

import (
	"context"
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

// noticeRingSize is how many notices the feed retains. Once full, new
// notices overwrite the oldest; a cursor that falls off the ring
// resumes from the oldest retained notice.
const noticeRingSize = 4096

// waitChan returns the channel closed by the next notice, creating it
// if this is the first reader since the last one. Readers must fetch it
// before calling since — the subscribe-then-check order that makes the
// blocked select race-free against concurrent notices.
func (t *inflight) waitChan() <-chan struct{} {
	t.mu.Lock()
	if t.changed == nil {
		t.changed = make(chan struct{})
	}
	ch := t.changed
	t.mu.Unlock()
	return ch
}

// since returns the retained notices selected by q, oldest first, and
// the sequence it scanned through: after an empty page, a cursor there
// selects what q.After does, without rescanning what did not match. A
// cursor at or past the newest notice yields an empty page (the >=
// comparison also guards the q.After+1 overflow at MaxUint64); a
// cursor that has fallen off the ring resumes from the oldest retained
// notice.
func (t *inflight) since(q NoticeQuery) ([]Notice, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq == 0 || q.After >= t.seq {
		return nil, q.After
	}
	n := uint64(len(t.ring))
	oldest := uint64(1)
	if t.seq > n {
		oldest = t.seq - n + 1
	}
	start := q.After + 1
	if start < oldest {
		start = oldest
	}
	var out []Notice
	for s := start; s <= t.seq; s++ {
		t.scanned++
		nt := &t.ring[(s-1)%n]
		if !q.match(nt) {
			continue
		}
		out = append(out, *nt)
		if q.Limit > 0 && len(out) == q.Limit {
			return out, s
		}
	}
	return out, t.seq
}

// Notices returns the retained state-transition records selected by q,
// oldest first, without blocking. An empty page means the cursor is
// caught up (or nothing matched the filters).
func (e *Engine) Notices(q NoticeQuery) []Notice {
	ns, _ := e.inflight.since(q)
	return ns
}

// AwaitNotices blocks until at least one notice newer than q.After
// matches q, then returns the matching page (oldest first). Cancelling
// ctx returns its error. The caller advances q.After to the last Seq it
// received before the next call.
func (e *Engine) AwaitNotices(ctx context.Context, q NoticeQuery) ([]Notice, error) {
	for {
		// Fetch the wake channel before scanning: a notice that lands
		// after the scan closes this very channel, so the select below
		// cannot sleep through it. A wake resumes the scan where the
		// last one ended; what it skipped did not match.
		ch := e.inflight.waitChan()
		ns, through := e.inflight.since(q)
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
