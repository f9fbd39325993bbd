package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// runTrace produces every per-layer metric for one workload. The
// seconds it is given are split between a short untraced pass against
// the real daemon (daemon.*, loadgen.* and the demoted e2e.*
// diagnostics), the in-process passes (wrappers off, wrappers on,
// engine called directly) and a fixed-count micro pass.
func runTrace(ctx context.Context, cfg *config, workload string, seconds float64) (*result, error) {
	res := newResult(workload)
	for _, m := range perLayer {
		res.set(m.Name, 0, 0)
	}

	diagCfg := *cfg
	diagCfg.legs = 1
	var diag *result
	var err error
	if workload == wRestartWAL {
		diag, err = runRestart(ctx, &diagCfg, 0.3*seconds)
	} else {
		diag, err = runTraffic(ctx, &diagCfg, workload, 0.3*seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("daemon diagnostics pass: %w", err)
	}
	for name, v := range diag.values {
		if _, declared := res.values[name]; declared {
			res.set(name, v, diag.samples[name])
		}
	}
	res.tally.merge(&diag.tally)
	res.notes = append(res.notes, diag.notes...)
	res.set("e2e.failed_frac", float64(diag.tally.failed)/float64(diag.tally.attempted), diag.tally.attempted)

	dir, err := os.MkdirTemp(cfg.workdir, workload+"-trace-")
	if err != nil {
		return nil, fmt.Errorf("creating trace directory: %w", err)
	}
	defer os.RemoveAll(dir)
	if workload == wRestartWAL {
		err = traceRestart(ctx, cfg, dir, 0.5*seconds, res)
	} else {
		err = traceTraffic(ctx, cfg, workload, dir, seconds, res)
	}
	if err != nil {
		return nil, err
	}
	if err := micro(ctx, res); err != nil {
		return nil, err
	}
	res.set("daemon.build_s", cfg.buildS, 1)
	return res, nil
}

// pass is what one in-process run of the generator measured.
type pass struct {
	win      window
	spans    []span
	walStats engine.WALStats
	walBytes int64
	t0, t1   int64
	tally    tally
	shed     int
	full     int
}

// inprocPass serves the workload from an in-process stack and drives
// it with the same generator the daemon gets. rec == nil runs with no
// wrapper anywhere in the path.
func inprocPass(ctx context.Context, cfg *config, workload, walDir string, rec *recorder, seconds float64) (*pass, error) {
	st, err := newStack(workload, walDir, rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var watch *dirWatcher
	if st.wal != nil {
		watch = watchDir(walDir)
		defer watch.stop()
	}
	base := time.Now()
	if rec != nil {
		base = rec.base
	}
	tr := startTraffic(workload, st.addr, cfg.seed, cfg.clients, warmActions(workload, cfg.warmScale), base)
	tr.warmed.Wait()
	// Half the daemon's soak: the passes are short, and two sweeps with
	// evictions inside the window are enough to see the janitor.
	p := &pass{t0: tr.now() + int64(cfg.soak/2)}
	sleepUntil(ctx, base.Add(time.Duration(p.t0)))
	bytes0 := watch.total()
	p.t1 = p.t0 + int64(seconds*1e9)
	sleepUntil(ctx, base.Add(time.Duration(p.t1)))
	p.walBytes = watch.total() - bytes0
	if st.wal != nil {
		p.walStats = st.wal.WALStats()
	}
	tr.stop(p.t1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.win = tr.cut(p.t0, seconds)
	for _, c := range tr.clients {
		p.tally.merge(&c.tally)
		p.shed += c.shed
		p.full += c.full
	}
	if rec != nil {
		p.spans = rec.all()
	}
	if p.win.completed() == 0 {
		return nil, fmt.Errorf("%s in-process pass completed no operation: %v", workload, p.tally.msgs)
	}
	return p, nil
}

// traceTraffic runs the three in-process passes of a traffic workload
// and turns their spans into the layer budget.
func traceTraffic(ctx context.Context, cfg *config, workload, dir string, seconds float64, res *result) error {
	off, err := inprocPass(ctx, cfg, workload, filepath.Join(dir, "off"), nil, 0.2*seconds)
	if err != nil {
		return err
	}
	rec := newRecorder(time.Now())
	on, err := inprocPass(ctx, cfg, workload, filepath.Join(dir, "on"), rec, 0.3*seconds)
	if err != nil {
		return err
	}
	res.tally.merge(&off.tally)
	res.tally.merge(&on.tally)
	res.values["engine.shed_count"] += float64(off.shed + on.shed)
	res.values["engine.queue_full_count"] += float64(off.full + on.full)
	opsOff, opsOn := off.win.opsPerSecond(), on.win.opsPerSecond()
	res.set("trace.overhead_frac", 1-opsOn/opsOff, on.win.completed())

	isWAL := workload == wSubmitWAL
	layerMetrics(res, on.spans, on.t0, on.t1, isWAL)
	joinClient(res, on, workload)
	if isWAL {
		res.set("wal.records_per_fsync", on.walStats.BatchP50, 1)
		res.set("wal.fsyncs_per_s", on.walStats.FsyncsPerSec, 1)
		res.set("wal.segments", float64(on.walStats.Segments), 1)
		res.set("wal.bytes_per_op", float64(on.walBytes)/float64(on.win.completed()), on.win.completed())
	}

	// The direct pass: the same items into the engine with no HTTP and
	// no api, which is what separates api self time from engine self
	// time (nothing outside the engine can put a span on that boundary
	// while api.New takes the concrete *engine.Engine).
	drec := newRecorder(time.Now())
	st, err := newStack(workload, filepath.Join(dir, "direct"), drec)
	if err != nil {
		return err
	}
	if workload == wLifecycleMix {
		err = directLifecycles(ctx, cfg, st.eng, drec, 0.2*seconds, res)
	} else {
		// Paced at the rate the HTTP pass reached, so queue depth, live
		// set and janitor work match; unpaced, two goroutines would
		// outrun the workers and fill the queue.
		perClient := time.Duration(float64(cfg.clients) * batchSize / opsOn * 1e9)
		err = directSubmits(ctx, cfg, st.eng, drec, 0.2*seconds, perClient, res)
	}
	st.close()
	if err != nil {
		return err
	}
	dspans := drec.all()
	if workload == wLifecycleMix {
		wakeMetric(res, dspans)
	} else {
		splitAPIEngine(res, dspans, isWAL)
	}
	if cfg.spansPath != "" {
		return writeSpans(cfg.spansPath, append(clientSpans(on.win), on.spans...))
	}
	return nil
}

// clientSpans renders the generator's samples as spans for the dump.
func clientSpans(w window) []span {
	out := make([]span, len(w.samples))
	for i, s := range w.samples {
		out[i] = span{kind: spClient, n: s.ops, start: s.start, end: s.end, id: s.id, req: reqKey(s)}
	}
	return out
}

func reqKey(s sample) string { return fmt.Sprintf("%s-%d", clientName(int(s.client)), s.seq) }

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// layerMetrics reduces the spans that ended inside [t0, t1) to the
// per-layer numbers that need no join with the generator. Store spans
// are booked to `wal` when the store behind the decorator is the
// WALStore and to `store` otherwise; reads go to `store` either way,
// since both serve them from the same in-memory index.
func layerMetrics(res *result, spans []span, t0, t1 int64, isWAL bool) {
	var apiSubmit, apiGetWait, apiList, put10, put1, upd, get, list50, sweep []float64
	var updates, fnCalls float64
	puts := map[string]span{}     // by every operation ID the put carried
	terminal := map[string]span{} // terminal update by operation ID
	var handlers, cancels []span
	for _, s := range spans {
		if s.end < t0 || s.end >= t1 {
			continue
		}
		dur := float64(s.end - s.start)
		switch s.kind {
		case spAPI:
			switch s.route {
			case rtSubmit:
				apiSubmit = append(apiSubmit, dur/1e3)
			case rtGetWait:
				apiGetWait = append(apiGetWait, dur/1e3)
			case rtList:
				apiList = append(apiList, dur/1e3)
			case rtCancel:
				cancels = append(cancels, s)
			}
		case spPut:
			for _, id := range s.ids {
				puts[id] = s
			}
			if s.n == batchSize {
				put10 = append(put10, dur)
			} else if s.n == 1 {
				put1 = append(put1, dur)
			}
		case spUpdate:
			upd = append(upd, dur)
			updates++
			fnCalls += float64(s.n)
			if s.terminal {
				terminal[s.id] = s
			}
		case spGet:
			get = append(get, dur)
		case spList:
			if s.n == listLimit {
				list50 = append(list50, dur/1e3)
			}
		case spSweep:
			if s.n > 0 {
				sweep = append(sweep, dur/1e3/float64(s.n)*1000)
			}
		case spHandler:
			handlers = append(handlers, s)
		}
	}
	if len(put10) > 0 {
		// Only where the POSTs are batches of ten; the lifecycle mix
		// submits single operations.
		res.set("api.serve_submit10_us", median(apiSubmit), len(apiSubmit))
	}
	res.set("api.serve_get_wait_us", median(apiGetWait), len(apiGetWait))
	res.set("api.serve_list50_us", median(apiList), len(apiList))
	res.set("store.get_ns", median(get), len(get))
	res.set("store.list50_us", median(list50), len(list50))
	res.set("store.sweep_us_per_1k", median(sweep), len(sweep))
	if isWAL {
		sorted := sortedCopy(put10)
		res.set("wal.put_batch10_wait_us_p50", percentile(sorted, 50)/1e3, len(put10))
		res.set("wal.put_batch10_wait_us_p99", percentile(sorted, 99)/1e3, len(put10))
		res.set("wal.update_ns", median(upd), len(upd))
		if fnCalls > 0 {
			res.set("wal.update_fn_calls_per_update", updates/fnCalls, int(updates))
		}
	} else {
		res.set("store.put_batch10_ns_per_op", median(put10)/batchSize, len(put10))
		res.set("store.put_ns", median(put1), len(put1))
		res.set("store.update_ns", median(upd), len(upd))
	}

	// Engine time between the layers it calls: from the store accepting
	// an operation to its handler starting (admission, scheduler queue,
	// worker dispatch, the running transition), and from the handler
	// returning to the terminal update having been published.
	var queueWait, finish []float64
	for _, h := range handlers {
		if p, ok := puts[h.id]; ok && h.start >= p.end {
			queueWait = append(queueWait, usOf(h.start-p.end))
		}
		if u, ok := terminal[h.id]; ok && u.end >= h.end {
			finish = append(finish, usOf(u.end-h.end))
		}
	}
	sorted := sortedCopy(queueWait)
	res.set("engine.queue_wait_us_p50", percentile(sorted, 50), len(sorted))
	res.set("engine.queue_wait_us_p99", percentile(sorted, 99), len(sorted))
	res.set("engine.finish_us_p50", median(finish), len(finish))
	var cancelToTerminal []float64
	for _, c := range cancels {
		if u, ok := terminal[c.id]; ok && u.end >= c.start {
			cancelToTerminal = append(cancelToTerminal, usOf(u.end-c.start))
		}
	}
	res.set("engine.cancel_to_terminal_us_p50", median(cancelToTerminal), len(cancelToTerminal))
}

// joinClient ties the generator's samples to the api and put spans they
// caused: what the HTTP server and the loopback add around the api
// (daemon.http_overhead_us) and, for batch submits, what api and engine
// together spend outside the store.
func joinClient(res *result, p *pass, workload string) {
	apiByReq := map[string]span{}
	putByID := map[string]span{}
	for _, s := range p.spans {
		switch s.kind {
		case spAPI:
			apiByReq[s.req] = s
		case spPut:
			putByID[s.id] = s
		}
	}
	single := kSubmit // the sample kind that is exactly one request
	if workload == wLifecycleMix {
		single = kList
	}
	// One row per joined request: what the client saw, the part of that
	// outside the api span, and the part of the api span outside the put.
	type joined struct{ client, overhead, outsideStore, respBytes float64 }
	var rows []joined
	for _, s := range p.win.samples {
		if s.kind != single || s.ops == 0 {
			continue
		}
		a, ok := apiByReq[reqKey(s)]
		if !ok {
			continue
		}
		j := joined{
			client:   usOf(s.end - s.start),
			overhead: usOf(selfTime(s.start, s.end, [][2]int64{{a.start, a.end}})),
		}
		if put, ok := putByID[s.id]; ok && s.kind == kSubmit {
			j.outsideStore = usOf(selfTime(a.start, a.end, [][2]int64{{put.start, put.end}}))
			j.respBytes = float64(s.bytes) / batchSize
		}
		rows = append(rows, j)
	}
	if len(rows) == 0 {
		return
	}
	// Medians of parts do not add up to the median of the whole, so the
	// budget is taken over the requests around the median: the middle
	// fifth by client round trip, averaged part by part. Their parts sum
	// to their mean round trip, which is the client-side p50 to within
	// the width of that band.
	sort.Slice(rows, func(i, j int) bool { return rows[i].client < rows[j].client })
	band := rows[len(rows)*2/5 : len(rows)*3/5+1]
	var overhead, outsideStore, respBytes float64
	for _, j := range band {
		overhead += j.overhead / float64(len(band))
		outsideStore += j.outsideStore / float64(len(band))
		respBytes += j.respBytes / float64(len(band))
	}
	res.set("daemon.http_overhead_us", overhead, len(band))
	if workload != wLifecycleMix {
		res.set("trace.client_op_p50_us", rows[len(rows)/2].client, len(rows))
		res.set("api.resp_bytes_per_op", respBytes, len(band))
		// Parked here until the direct pass says how much of it is the
		// engine's; see splitAPIEngine.
		res.set("api.self_submit10_us", outsideStore, len(band))
	}
}

// eachClient runs f once per generator client, concurrently, until
// every f returns, and merges their tallies into res.
func eachClient(cfg *config, res *result, f func(client int, t *tally)) {
	tallies := make([]tally, cfg.clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c, &tallies[c])
		}()
	}
	wg.Wait()
	for i := range tallies {
		res.tally.merge(&tallies[i])
	}
}

// directSubmits calls Engine.SubmitBatch with the batch-10 items from
// closed-loop goroutines, each paced to one call per interval.
func directSubmits(ctx context.Context, cfg *config, eng *engine.Engine, rec *recorder, seconds float64, interval time.Duration, res *result) error {
	items := make([]engine.BatchItem, batchSize)
	for i := range items {
		items[i] = engine.BatchItem{Kind: "noop", Params: map[string]any{"n": float64(100_000 + i)}}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var shed, full atomic.Int64
	eachClient(cfg, res, func(c int, t *tally) {
		for time.Now().Before(deadline) && ctx.Err() == nil {
			begin := time.Now()
			start := rec.now()
			ops, err := eng.SubmitBatch(ctx, items, engine.AsClient(clientName(c)))
			end := rec.now()
			switch {
			case err == nil:
				t.ok(batchSize)
				rec.add(span{kind: spEngine, n: batchSize, start: start, end: end, id: ops[0].ID})
			case errors.Is(err, core.ErrSaturated):
				shed.Add(1)
			case errors.Is(err, core.ErrQueueFull):
				full.Add(1)
			}
			if err != nil {
				t.fail(batchSize, "direct SubmitBatch: %v", err)
			}
			time.Sleep(interval - time.Since(begin))
		}
	})
	res.values["engine.shed_count"] += float64(shed.Load())
	res.values["engine.queue_full_count"] += float64(full.Load())
	return ctx.Err()
}

// splitAPIEngine reads the direct pass: the whole of Engine.SubmitBatch
// for ten items, its self time outside the store, and from that the
// api's own share of what joinClient measured around the store. It
// then closes the budget against the traced client-side median.
func splitAPIEngine(res *result, spans []span, isWAL bool) {
	putByID := map[string]span{}
	for _, s := range spans {
		if s.kind == spPut {
			putByID[s.id] = s
		}
	}
	var whole, self []float64
	for _, s := range spans {
		if s.kind != spEngine {
			continue
		}
		put, ok := putByID[s.id]
		if !ok {
			continue
		}
		whole = append(whole, usOf(s.end-s.start))
		self = append(self, usOf(selfTime(s.start, s.end, [][2]int64{{put.start, put.end}})))
	}
	engineSelf := median(self)
	res.set("engine.submit10_us", median(whole), len(whole))
	res.set("engine.self_submit10_us", engineSelf, len(self))
	apiSelf := res.values["api.self_submit10_us"] - engineSelf
	res.set("api.self_submit10_us", apiSelf, res.samples["api.self_submit10_us"])

	store := res.values["store.put_batch10_ns_per_op"] * batchSize / 1e3
	if isWAL {
		store = res.values["wal.put_batch10_wait_us_p50"]
	}
	if client := res.values["trace.client_op_p50_us"]; client > 0 {
		sum := res.values["daemon.http_overhead_us"] + apiSelf + engineSelf + store
		res.set("trace.budget_frac", sum/client, res.samples["trace.client_op_p50_us"])
	}
}

// directLifecycles replays the lifecycle mix straight into the engine:
// Submit, AwaitChange until terminal, Cancel, List. Its await spans are
// the only place the hub's wake-up can be timed from outside.
func directLifecycles(ctx context.Context, cfg *config, eng *engine.Engine, rec *recorder, seconds float64, res *result) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	eachClient(cfg, res, func(c int, t *tally) {
		rng := clientRand(cfg.seed, c)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			if err := directLifecycle(ctx, eng, rec, drawAction(rng), c); err != nil {
				t.fail(1, "direct lifecycle: %v", err)
			} else {
				t.ok(1)
			}
		}
	})
	return ctx.Err()
}

func directLifecycle(ctx context.Context, eng *engine.Engine, rec *recorder, a action, client int) error {
	if a.kind == kList {
		ops, err := eng.List(engine.ListQuery{Limit: listLimit})
		if err == nil && len(ops) > listLimit {
			err = fmt.Errorf("page holds %d operations, limit %d", len(ops), listLimit)
		}
		return err
	}
	kind, params, want := "echo", map[string]any{"c": float64(client), "n": float64(a.n)}, core.StatusDone
	switch a.kind {
	case kSleep:
		kind, params = "sleep", map[string]any{"ms": float64(sleepMS)}
	case kCancel:
		kind, params, want = "sleep", map[string]any{"ms": float64(cancelMS)}, core.StatusCancelled
	}
	op, err := eng.Submit(ctx, kind, params, engine.AsClient(clientName(client)))
	if err != nil {
		return err
	}
	if a.kind == kCancel {
		if _, err := eng.Cancel(op.ID); err != nil {
			return err
		}
	}
	wctx, cancel := context.WithTimeout(ctx, lifecycleMax)
	defer cancel()
	for seen := op.Status; !seen.Terminal(); {
		start := rec.now()
		next, err := eng.AwaitChange(wctx, op.ID, seen)
		if err != nil {
			return err
		}
		rec.add(span{kind: spAwait, terminal: next.Status.Terminal(), start: start, end: rec.now(), id: op.ID})
		seen = next.Status
	}
	final, err := eng.Get(op.ID)
	if err != nil {
		return err
	}
	if final.Status != want {
		return fmt.Errorf("%s ended %s, want %s", op.ID, final.Status, want)
	}
	return nil
}

// wakeMetric times the hub: from the terminal update having been
// published to AwaitChange returning it, over the waiters that were
// already parked when the update started.
func wakeMetric(res *result, spans []span) {
	terminal := map[string]span{}
	for _, s := range spans {
		if s.kind == spUpdate && s.terminal {
			terminal[s.id] = s
		}
	}
	var wake []float64
	for _, s := range spans {
		if s.kind != spAwait || !s.terminal {
			continue
		}
		if u, ok := terminal[s.id]; ok && s.start < u.start && s.end >= u.end {
			wake = append(wake, usOf(s.end-u.end))
		}
	}
	res.set("watch.wake_us_p50", median(wake), len(wake))
}

// traceRestart opens copies of the preloaded log in-process, through
// the decorated store, and recovers them: wal.open_100k_ms is
// OpenWALStore alone, and the spans of Engine.Recover and the requeued
// operations fill the wal.*, store.* and engine.* rows.
func traceRestart(ctx context.Context, cfg *config, dir string, seconds float64, res *result) error {
	p, err := buildPreload(filepath.Join(dir, "pristine"), cfg.seed, cfg.preloadOps)
	if err != nil {
		return err
	}
	var openMS []float64
	// Every cycle recovers the same operation IDs, so spans are only
	// joinable within one cycle; the last cycle's are the ones analysed.
	var rec *recorder
	begin := time.Now()
	for cycle := 0; cycle < 3 || time.Since(begin).Seconds() < seconds; cycle++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		walDir := filepath.Join(dir, fmt.Sprintf("cycle-%d", cycle))
		if err := copyDir(p.dir, walDir); err != nil {
			return fmt.Errorf("copying pristine log: %w", err)
		}
		rec = newRecorder(time.Now())
		start := time.Now()
		ws, err := engine.OpenWALStore(engine.WALConfig{Dir: walDir, Sync: engine.WALSyncGroup})
		if err != nil {
			return fmt.Errorf("opening preloaded log: %w", err)
		}
		openMS = append(openMS, float64(time.Since(start))/1e6)
		eng := engine.New(engine.Config{Workers: 8, QueueDepth: 1024, Store: &tracedWALStore{tracedStore{ws, rec}, ws}})
		registerKinds(eng, rec)
		_, _, err = eng.Recover(ctx)
		if err == nil {
			err = checkRecoveredDirect(ctx, eng, p, &res.tally)
		}
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		serr := eng.Shutdown(sctx)
		cancel()
		cerr := ws.Close()
		for _, e := range []error{err, serr, cerr} {
			if e != nil {
				return fmt.Errorf("in-process recovery: %w", e)
			}
		}
		if err := os.RemoveAll(walDir); err != nil {
			return fmt.Errorf("removing cycle directory: %w", err)
		}
	}
	spans := rec.all()
	res.set("wal.open_100k_ms", median(openMS), len(openMS))
	layerMetrics(res, spans, 0, rec.now()+1, true)
	var logBytes int64
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return fmt.Errorf("sizing preloaded log: %w", err)
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !strings.HasSuffix(e.Name(), ".tmp") {
			logBytes += info.Size()
		}
	}
	res.set("wal.bytes_per_op", float64(logBytes)/float64(p.total), p.total)
	if cfg.spansPath != "" {
		return writeSpans(cfg.spansPath, spans)
	}
	return nil
}

// checkRecoveredDirect is checkRecovered without HTTP.
func checkRecoveredDirect(ctx context.Context, eng *engine.Engine, p *preload, t *tally) error {
	if n := eng.Stats().StoreLen; n != p.total {
		t.fail(1, "recovered store holds %d operations, want %d", n, p.total)
	} else {
		t.ok(1)
	}
	for _, id := range p.running {
		op, err := eng.Get(id)
		switch {
		case err != nil:
			t.fail(1, "interrupted operation %s: %v", id, err)
		case op.Status != core.StatusFailed || !strings.Contains(op.Error, "interrupted"):
			t.fail(1, "operation %s was running at the kill and reads %s (%q)", id, op.Status, op.Error)
		default:
			t.ok(1)
		}
	}
	wctx, cancel := context.WithTimeout(ctx, lifecycleMax)
	defer cancel()
	for _, id := range p.queued {
		seen := core.StatusQueued
		for !seen.Terminal() {
			next, err := eng.AwaitChange(wctx, id, seen)
			if err != nil {
				return fmt.Errorf("awaiting requeued operation %s: %w", id, err)
			}
			seen = next.Status
		}
		if seen != core.StatusDone {
			t.fail(1, "operation %s was queued at the kill and ended %s, want done", id, seen)
		} else {
			t.ok(1)
		}
	}
	return nil
}
