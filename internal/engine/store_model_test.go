package engine

// Model-based test of the store: seeded random histories of
// Put/PutBatch/Update/SweepTerminalBefore, some of them from concurrent
// goroutines on disjoint IDs, run against the real store and against a
// plain map. After every step Get, Len, the full List order and a paged,
// status-filtered walk must equal the model's. The journaled rows
// additionally close and reopen the log directory along the way, each
// time under a shard count of 1, 2 or 8, and compare again: replay must
// reproduce the model exactly — deletes never resurrect, a delta whose
// base is gone fabricates nothing, List order is identical across the
// reopen — and their tiny segments keep rotation and snapshot
// compaction (the snapshot/suffix overlap replay has to tolerate)
// happening throughout. Most reopens follow a crash instead of a Close:
// under WALSyncAlways at any point, since every mutation waited for its
// commit, and after a Flush under the other modes. A crash leaves the
// open segment's zero tail and an unused prepared segment for replay to
// read, and every rotation leaves a closed segment with a zero tail.
//
// A failure prints its seed; -modelseed N reruns exactly that history.

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"opdaemon/internal/core"
)

var modelSeed = flag.Int64("modelseed", 0, "run the model tests (TestStoreModel, TestAdmissionModel, TestSchedModel) with this seed only (0: the fixed seeds plus a fresh one)")

// storeModel is the oracle: the latest value put or published per ID.
type storeModel map[string]core.Operation

// list returns the model's operations in the public List order.
func (m storeModel) list() []core.Operation {
	out := make([]core.Operation, 0, len(m))
	for _, op := range m {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.After(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// sweep applies SweepTerminalBefore to the model.
func (m storeModel) sweep(cutoff time.Time) int {
	n := 0
	for id, op := range m {
		if op.Status.Terminal() && op.UpdatedAt.Before(cutoff) {
			delete(m, id)
			n++
		}
	}
	return n
}

// modelDiff describes how a stored snapshot differs from the model's
// value on the fields the store and the journal must preserve, or "".
func modelDiff(got *core.Operation, want core.Operation) string {
	if got.ID != want.ID || got.Kind != want.Kind || got.Status != want.Status ||
		got.Error != want.Error || got.Deadline != want.Deadline ||
		!got.CreatedAt.Equal(want.CreatedAt) || !got.UpdatedAt.Equal(want.UpdatedAt) {
		return fmt.Sprintf("got {%s %s %s %q %v c=%d u=%d}, want {%s %s %s %q %v c=%d u=%d}",
			got.ID, got.Kind, got.Status, got.Error, got.Deadline, got.CreatedAt.Unix(), got.UpdatedAt.Unix(),
			want.ID, want.Kind, want.Status, want.Error, want.Deadline, want.CreatedAt.Unix(), want.UpdatedAt.Unix())
	}
	return ""
}

var (
	modelT0       = time.Unix(1000, 0)
	modelStatuses = []core.Status{
		core.StatusQueued, core.StatusRunning,
		core.StatusDone, core.StatusFailed, core.StatusCancelled,
	}
)

// modelTime draws from a handful of instants so CreatedAt ties and
// sweep cutoffs that split the population are common.
func modelTime(r *rand.Rand) time.Time {
	return modelT0.Add(time.Duration(r.Intn(8)) * time.Second)
}

func modelOp(r *rand.Rand, id string) *core.Operation {
	return &core.Operation{
		ID:        id,
		Kind:      "model",
		Status:    modelStatuses[r.Intn(len(modelStatuses))],
		CreatedAt: modelTime(r),
		UpdatedAt: modelTime(r),
	}
}

// modelMut is one Update drawn at random: mostly a lifecycle-style
// change of the mutable set, sometimes a deadline or CreatedAt change
// the store must refuse whole, sometimes a callback that changes
// nothing and must publish nothing. The callback built from it assigns
// constants, so running it again on a retry is harmless.
type modelMut struct {
	kind     int // 0 lifecycle, 1 deadline, 2 created, 3 no change
	status   core.Status
	at       time.Time
	msg      string
	deadline time.Duration
}

func drawModelMut(r *rand.Rand) modelMut {
	mu := modelMut{
		status:   modelStatuses[r.Intn(len(modelStatuses))],
		at:       modelTime(r),
		msg:      fmt.Sprintf("e%d", r.Intn(100)),
		deadline: time.Duration(1+r.Intn(5)) * time.Minute,
	}
	switch k := r.Intn(10); {
	case k < 6:
	case k < 8:
		mu.kind = 1
	case k < 9:
		mu.kind = 2
	default:
		mu.kind = 3
	}
	return mu
}

func (mu modelMut) String() string {
	switch mu.kind {
	case 0:
		return fmt.Sprintf("status=%s updated=%d", mu.status, mu.at.Unix())
	case 1:
		return fmt.Sprintf("deadline=%v updated=%d", mu.deadline, mu.at.Unix())
	case 2:
		return fmt.Sprintf("created=%d", mu.at.Unix())
	}
	return "no change"
}

// modelRun is one store under test with its oracle.
type modelRun struct {
	t     *testing.T
	seed  int64
	s     Store
	m     storeModel
	ids   []string // every ID the history may touch
	trace []string // one line per step, for the failure report
}

func (mr *modelRun) fatalf(format string, args ...any) {
	mr.t.Helper()
	tail := mr.trace
	if len(tail) > 25 {
		tail = tail[len(tail)-25:]
	}
	hist := ""
	for _, line := range tail {
		hist += "\n  " + line
	}
	mr.t.Fatalf("seed %d (rerun with -modelseed %d), step %d: %s\nlast steps:%s",
		mr.seed, mr.seed, len(mr.trace), fmt.Sprintf(format, args...), hist)
}

// applyRandom performs one random single-ID mutation from r on both the
// store and the model m, which must cover ids. It is what the serial
// steps and every concurrent goroutine run; failures are returned, not
// reported, so goroutines can use it.
func applyRandom(r *rand.Rand, s Store, m storeModel, ids []string) (string, error) {
	id := ids[r.Intn(len(ids))]
	switch k := r.Intn(10); {
	case k < 4:
		op := modelOp(r, id)
		m[id] = *op
		s.Put(op)
		return "Put " + id, nil
	default:
		mu := drawModelMut(r)
		desc := "Update " + id + " " + mu.String()
		// The oracle is "the model's value, mutated": the callback
		// reports the base it was handed, which must be that value, and
		// what it made of it, which becomes the model's next one — unless
		// it changed a field outside the mutable set, which the store
		// must refuse, leaving the model as it was.
		prev, _ := s.Get(id)
		var before, after core.Operation
		err := s.Update(id, func(op *core.Operation) {
			before = *op
			switch mu.kind {
			case 0:
				op.Status, op.UpdatedAt, op.Error = mu.status, mu.at, mu.msg
			case 1:
				op.Deadline, op.UpdatedAt = mu.deadline, mu.at
			case 2:
				op.CreatedAt = mu.at
			}
			after = *op
		})
		want, ok := m[id]
		if !ok {
			if !errors.Is(err, core.ErrNotFound) {
				return desc, fmt.Errorf("Update of an absent ID = %v, want ErrNotFound", err)
			}
			return desc + " (absent)", nil
		}
		if d := modelDiff(&before, want); d != "" {
			return desc, fmt.Errorf("Update ran its callback on a stale base: %s", d)
		}
		if after.Deadline != before.Deadline || !after.CreatedAt.Equal(before.CreatedAt) {
			if !errors.Is(err, errImmutableUpdate) {
				return desc, fmt.Errorf("Update changing an immutable field = %v, want errImmutableUpdate", err)
			}
			return desc + " (refused)", nil
		}
		if err != nil {
			return desc, fmt.Errorf("Update: %v", err)
		}
		if mu.kind == 3 {
			if cur, _ := s.Get(id); cur != prev {
				return desc, fmt.Errorf("a no-change Update republished: %p -> %p", prev, cur)
			}
		}
		m[id] = after
		return desc, nil
	}
}

// step performs one random history step.
func (mr *modelRun) step(r *rand.Rand) {
	switch k := r.Intn(20); {
	case k < 12:
		desc, err := applyRandom(r, mr.s, mr.m, mr.ids)
		mr.trace = append(mr.trace, desc)
		if err != nil {
			mr.fatalf("%v", err)
		}
	case k < 15:
		// A batch may name an ID twice; the later element wins. Half the
		// batches share one CreatedAt, as SubmitBatch stamps them, so
		// their IDs alone order them and each insert searches its slot.
		ops := make([]*core.Operation, 2+r.Intn(10))
		desc := "PutBatch"
		shared := r.Intn(2) == 0
		at := modelTime(r)
		for i := range ops {
			ops[i] = modelOp(r, mr.ids[r.Intn(len(mr.ids))])
			if shared {
				ops[i].CreatedAt = at
			}
			mr.m[ops[i].ID] = *ops[i]
			desc += " " + ops[i].ID
		}
		if shared {
			desc += fmt.Sprintf(" (all created %d)", at.Unix())
		}
		mr.trace = append(mr.trace, desc)
		mr.s.PutBatch(ops)
	case k < 17:
		cutoff := modelTime(r)
		mr.trace = append(mr.trace, fmt.Sprintf("Sweep before %d", cutoff.Unix()))
		want := mr.m.sweep(cutoff)
		if got := mr.s.SweepTerminalBefore(cutoff); got != want {
			mr.fatalf("SweepTerminalBefore evicted %d, want %d", got, want)
		}
	default:
		mr.concurrent(r)
	}
}

// concurrent runs several goroutines at once, each mutating its own
// slice of the ID space against its own slice of the model, so the
// outcome is deterministic while the shard locks, the staging buffer and
// the committer see real interleaving.
func (mr *modelRun) concurrent(r *rand.Rand) {
	const workers = 4
	mr.trace = append(mr.trace, fmt.Sprintf("%d goroutines, disjoint IDs", workers))
	var wg sync.WaitGroup
	errs := make([]error, workers)
	parts := make([]storeModel, workers)
	for w := 0; w < workers; w++ {
		var ids []string
		parts[w] = make(storeModel)
		for i := w; i < len(mr.ids); i += workers {
			ids = append(ids, mr.ids[i])
			if op, ok := mr.m[mr.ids[i]]; ok {
				parts[w][op.ID] = op
				delete(mr.m, op.ID)
			}
		}
		wr := rand.New(rand.NewSource(r.Int63()))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12 && errs[w] == nil; i++ {
				var desc string
				if desc, errs[w] = applyRandom(wr, mr.s, parts[w], ids); errs[w] != nil {
					errs[w] = fmt.Errorf("goroutine %d, %s: %w", w, desc, errs[w])
				}
			}
		}(w)
	}
	wg.Wait()
	for w, part := range parts {
		for id, op := range part {
			mr.m[id] = op
		}
		if errs[w] != nil {
			mr.fatalf("%v", errs[w])
		}
	}
}

// check compares everything the store can be asked with the model.
func (mr *modelRun) check() {
	mr.t.Helper()
	if got := mr.s.Len(); got != len(mr.m) {
		mr.fatalf("Len = %d, want %d", got, len(mr.m))
	}
	for _, id := range mr.ids {
		got, err := mr.s.Get(id)
		want, ok := mr.m[id]
		switch {
		case !ok && !errors.Is(err, core.ErrNotFound):
			mr.fatalf("Get(%s) = (%v, %v), want ErrNotFound", id, got, err)
		case ok && err != nil:
			mr.fatalf("Get(%s): %v, want it stored", id, err)
		case ok:
			if d := modelDiff(got, want); d != "" {
				mr.fatalf("Get(%s): %s", id, d)
			}
		}
	}
	want := mr.m.list()
	got, err := mr.s.List(ListQuery{})
	if err != nil {
		mr.fatalf("List: %v", err)
	}
	if len(got) != len(want) {
		mr.fatalf("List has %d ops %v, want %d", len(got), listIDs(got), len(want))
	}
	for i := range want {
		if d := modelDiff(got[i], want[i]); d != "" {
			mr.fatalf("List[%d] of %v: %s", i, listIDs(got), d)
		}
	}
	// A bounded unfiltered page copies at most Limit entries per shard;
	// it must be the unbounded listing's head.
	page, err := mr.s.List(ListQuery{Limit: 5})
	if err != nil {
		mr.fatalf("List(limit 5): %v", err)
	}
	if len(page) != min(5, len(want)) {
		mr.fatalf("List(limit 5) has %d ops, want %d", len(page), min(5, len(want)))
	}
	for i := range page {
		if page[i] != got[i] {
			mr.fatalf("List(limit 5)[%d] = %s, want the unbounded listing's %s", i, page[i].ID, got[i].ID)
		}
	}
	// A cursor walk in pages of 7, its status filter rotating through
	// "" and the five statuses by step, must concatenate to the model's
	// filtered listing.
	status := append([]core.Status{""}, modelStatuses...)[len(mr.trace)%(len(modelStatuses)+1)]
	var filtered []core.Operation
	for _, op := range want {
		if status == "" || op.Status == status {
			filtered = append(filtered, op)
		}
	}
	var walked []*core.Operation
	for cursor := ""; ; {
		page, err := mr.s.List(ListQuery{Status: status, Cursor: cursor, Limit: 7})
		if err != nil {
			mr.fatalf("List(status %q, cursor %q, limit 7): %v", status, cursor, err)
		}
		if len(page) == 0 {
			break
		}
		walked = append(walked, page...)
		if len(walked) > len(filtered) {
			mr.fatalf("status %q walk has %d ops or more %v, want %d", status, len(walked), listIDs(walked), len(filtered))
		}
		cursor = page[len(page)-1].ID
	}
	if len(walked) != len(filtered) {
		mr.fatalf("status %q walk has %d ops %v, want %d", status, len(walked), listIDs(walked), len(filtered))
	}
	for i := range filtered {
		if d := modelDiff(walked[i], filtered[i]); d != "" {
			mr.fatalf("status %q walk[%d] of %v: %s", status, i, listIDs(walked), d)
		}
	}
}

func TestStoreModel(t *testing.T) {
	// Small enough segments that a run rotates and compacts many times.
	walCfg := func(sync WALSyncMode) *WALConfig {
		return &WALConfig{Sync: sync, segBytes: 2 << 10, maxSegs: 2}
	}
	rows := []struct {
		name   string
		shards int
		wal    *WALConfig // nil: no journal
	}{
		{"sharded-1", 1, nil},
		{"sharded-8", 8, nil},
		{"sharded-default", 0, nil},
		{"wal-none", 0, walCfg(WALSyncNone)},
		{"wal-group", 0, walCfg(WALSyncGroup)},
		{"wal-always", 0, walCfg(WALSyncAlways)},
	}
	seeds := []int64{1, 2, 3, time.Now().UnixNano()}
	if *modelSeed != 0 {
		seeds = []int64{*modelSeed}
	}
	steps := 300
	if testing.Short() {
		steps = 80
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			steps := steps
			if row.wal != nil && row.wal.Sync != WALSyncNone {
				steps /= 3 // every admission waits out an fsync
			}
			for _, seed := range seeds {
				mr := &modelRun{t: t, seed: seed, m: make(storeModel)}
				for i := 0; i < 48; i++ {
					mr.ids = append(mr.ids, fmt.Sprintf("op-%02d", i))
				}
				var ws *WALStore
				dir := t.TempDir()
				if row.wal == nil {
					mr.s = NewShardedStore(row.shards)
				} else {
					ws = openWAL(t, dir, *row.wal)
					mr.s = ws
				}
				// Reopens replay into a shard layout of their own, and
				// choose between a Close and a crash, drawn from a second
				// source so the step sequence a seed yields does not
				// depend on them.
				layouts := rand.New(rand.NewSource(seed))
				reopen := func() {
					if ws == nil {
						return
					}
					cfg := *row.wal
					cfg.shards = []int{1, 2, 8}[layouts.Intn(3)]
					if layouts.Intn(3) == 0 {
						mr.trace = append(mr.trace, fmt.Sprintf("Close + OpenWALStore (%d shards)", cfg.shards))
						if err := ws.Close(); err != nil {
							mr.fatalf("Close: %v", err)
						}
					} else {
						mr.trace = append(mr.trace, fmt.Sprintf("crash + OpenWALStore (%d shards)", cfg.shards))
						if cfg.Sync != WALSyncAlways {
							if err := ws.Flush(); err != nil {
								mr.fatalf("Flush: %v", err)
							}
						}
						ws.closeAbrupt()
					}
					ws = openWAL(t, dir, cfg)
					mr.s = ws
					mr.check()
				}
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < steps; i++ {
					mr.step(r)
					mr.check()
					if r.Intn(50) == 0 {
						reopen()
					}
				}
				reopen()
				if ws != nil {
					if err := ws.Close(); err != nil {
						t.Errorf("seed %d: final Close: %v", seed, err)
					}
				}
			}
		})
	}
}
