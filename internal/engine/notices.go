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
// a reader whose scan finds nothing takes the table's "changed"
// channel, creating it, in the same critical section as the scan, and
// the next notice takes it away and closes it, waking every blocked
// reader at once. With nobody blocked — the daemon's normal state — a
// notice touches no channel at all. Scan and subscription sharing one
// lock hold is the subscribe-then-check discipline of AwaitChange by
// construction: a notice landing after the scan closes the channel the
// reader is about to block on.

import (
	"context"
	"slices"
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
	return (len(q.Kinds) == 0 || slices.Contains(q.Kinds, n.Kind)) &&
		(len(q.Statuses) == 0 || slices.Contains(q.Statuses, n.Status))
}

// noticeRingSize is how many notices the feed retains. Once full, new
// notices overwrite the oldest; a cursor that falls off the ring
// resumes from the oldest retained notice.
const noticeRingSize = 4096

// since returns the retained notices selected by q, oldest first, and
// the sequence it scanned through: after an empty page, a cursor there
// selects what q.After does, without rescanning what did not match. A
// cursor at or past the newest notice yields an empty page (comparing
// before adding one also guards the overflow at MaxUint64); a cursor
// that has fallen off the ring resumes from the oldest retained notice.
// With wait set, an empty page also hands out the channel the next
// notice closes, taken in the critical section that found the page
// empty, so no notice can land between the scan and the subscription.
func (t *inflight) since(q NoticeQuery, wait bool) ([]Notice, uint64, <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Notice
	through := q.After
	if through < t.seq {
		n := uint64(len(t.ring))
		through = max(q.After, t.seq-min(t.seq, n))
		for through < t.seq && (q.Limit <= 0 || len(out) < q.Limit) {
			through++
			t.scanned++
			if nt := &t.ring[(through-1)%n]; q.match(nt) {
				out = append(out, *nt)
			}
		}
	}
	if !wait || len(out) > 0 {
		return out, through, nil
	}
	if t.changed == nil {
		t.changed = make(chan struct{})
	}
	return nil, through, t.changed
}

// Notices returns the retained state-transition records selected by q,
// oldest first, without blocking. An empty page means the cursor is
// caught up (or nothing matched the filters).
func (e *Engine) Notices(q NoticeQuery) []Notice {
	ns, _, _ := e.inflight.since(q, false)
	return ns
}

// AwaitNotices blocks until at least one notice newer than q.After
// matches q, then returns the matching page (oldest first). Cancelling
// ctx returns its error. The caller advances q.After to the last Seq it
// received before the next call.
func (e *Engine) AwaitNotices(ctx context.Context, q NoticeQuery) ([]Notice, error) {
	for {
		// An empty page comes with the wake channel from the same
		// critical section: a notice that lands after the scan closes
		// this very channel, so the select below cannot sleep through
		// it. A wake resumes the scan where the last one ended; what it
		// skipped did not match.
		ns, through, ch := e.inflight.since(q, true)
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
