package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// config is one invocation's settings. The zero-cost knobs (soak,
// legs, preloadOps, warmScale) exist so -smoke can shrink a run to a
// fraction of a second without a second code path.
type config struct {
	root      string // repository checkout
	workdir   string // scratch space, inside the checkout
	daemonBin string
	buildS    float64
	seed      int64
	seconds   float64
	clients   int
	// soak is the untimed stretch between warm-up and the timed window
	// that lets the TTL janitor reach its steady state.
	soak time.Duration
	// legs is how many times a run sets the workload up and measures it
	// on a fresh daemon; every metric is the median over the legs.
	legs       int
	preloadOps int
	warmScale  float64
	// spansPath, when set, receives the traced run's spans as JSONL.
	spansPath string
	// spin keeps every CPU out of the idle loop while measuring (see
	// spin.go). The tests run without: their binary is not opbench.
	spin bool
}

// result is what one run of one workload measured. values holds every
// number by metric name, end-to-end and diagnostic alike; the caller
// picks the ones its mode reports.
type result struct {
	workload string
	tally    tally
	values   map[string]float64
	samples  map[string]int
	notes    []string
	// quanta are the slices of a traffic leg's timed window; runTraffic
	// pools them over the legs and reads the gated metrics off them.
	quanta []quantum
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// warmActions is the count-based warm-up per client: roughly a third of
// a second of traffic on the reference box, fixed in requests rather
// than time so that a slower daemon shows up in setup_s.
func warmActions(workload string, scale float64) int {
	n := map[string]int{wSubmitMem: 800, wSubmitWAL: 80, wLifecycleMix: 600}[workload]
	return int(float64(n) * scale)
}

func daemonFlags(workload, walDir string) []string {
	flags := append([]string(nil), commonDaemonFlags...)
	// restart_wal runs without a TTL: its preloaded operations carry
	// seed-derived timestamps far in the past, and a janitor tick would
	// evict them before the store_len check.
	if workload != wRestartWAL {
		flags = append(flags, ttlDaemonFlags...)
	}
	if workload == wSubmitWAL || workload == wRestartWAL {
		return append(flags, "-store", "wal", "-wal-dir", walDir, "-wal-sync", "group")
	}
	return append(flags, "-store", "memory")
}

// runTraffic measures one traffic workload end to end against the real
// daemon. The timed window is split over cfg.legs legs, each on a fresh
// daemon process with fresh clients: set up, soak, measure, check.
// setup_s and peak_rss_mb are the median over the legs and counts are
// summed; throughput, latency and CPU per operation are read off the
// quanta of all legs together (see quantumLen).
func runTraffic(ctx context.Context, cfg *config, workload string, seconds float64) (*result, error) {
	res := newResult(workload)
	dir, err := os.MkdirTemp(cfg.workdir, workload+"-")
	if err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	perLeg := map[string][]float64{}
	for leg := 0; leg < cfg.legs; leg++ {
		lr, err := trafficLeg(ctx, cfg, workload, filepath.Join(dir, fmt.Sprintf("leg-%d", leg)), seconds/float64(cfg.legs), leg == cfg.legs-1)
		if err != nil {
			return nil, err
		}
		res.tally.merge(&lr.tally)
		res.notes = append(res.notes, lr.notes...)
		res.quanta = append(res.quanta, lr.quanta...)
		for name, v := range lr.values {
			perLeg[name] = append(perLeg[name], v)
			res.samples[name] += lr.samples[name]
		}
	}
	for name, vals := range perLeg {
		if strings.HasSuffix(name, "_count") {
			for _, v := range vals {
				res.values[name] += v
			}
		} else {
			res.values[name] = median(vals)
		}
	}
	if len(res.quanta) == 0 {
		return nil, fmt.Errorf("%s: no quantum of the timed window completed an operation", workload)
	}
	rate, p50, cpu := quietDeciles(res.quanta)
	res.set("ops_per_s", rate, res.samples["e2e.whole_ops_per_s"])
	res.set("op_p50_ms", p50, res.samples["e2e.whole_op_p50_ms"])
	res.set("e2e.cpu_us_per_op", cpu, res.samples["e2e.whole_cpu_us_per_op"])
	return res, nil
}

// quantumLen is the slice the timed window is cut into. The sandbox is
// a two-vCPU microVM that shares its host's memory system with other
// guests: a pointer chase over 32 MB takes between 100 and 158 ms there
// while a register-only loop stays within 4 %, and a bare loopback
// round trip moves with the chase, 8 to 14 us. The contention comes in
// bursts of a second or a few on top of levels that last minutes:
// inside one 60 s leg of lifecycle_mix the per-second median latency of
// identical traffic swung between 0.15 and 0.33 ms. A burst only ever
// adds time. So each gated timing is measured per quantum and the run
// reports the quietest decile of its quanta, the tenth-percentile
// latency and CPU cost and the ninetieth-percentile throughput: what
// the daemon does while the host lets it run, which is the part a
// change to the daemon can move. Nothing measured inside one run can
// take out the minutes-long levels; they are what is left of the
// spread. The whole-window figures, bursts included, are reported
// beside them as e2e.whole_*.
const quantumLen = 250 * time.Millisecond

// quietPct is the percentile of the quanta that the gated metrics read.
const quietPct = 10

// quantum is what one slice of a timed window measured.
type quantum struct {
	opsPerS  float64
	p50MS    float64 // median latency of the primary sample kind
	cpuPerOp float64 // daemon CPU microseconds per completed operation
}

func quietDeciles(quanta []quantum) (opsPerS, p50MS, cpuPerOp float64) {
	rate := make([]float64, len(quanta))
	lat := make([]float64, len(quanta))
	cpu := make([]float64, len(quanta))
	for i, q := range quanta {
		rate[i], lat[i], cpu[i] = q.opsPerS, q.p50MS, q.cpuPerOp
	}
	sort.Float64s(rate)
	sort.Float64s(lat)
	sort.Float64s(cpu)
	return percentile(rate, 100-quietPct), percentile(lat, quietPct), percentile(cpu, quietPct)
}

// cpuReading is the sampler's reading at one edge of a quantum: the
// generator clock and the CPU clocks of the daemon and of opbench.
type cpuReading struct {
	at, daemon, self int64
}

// sampleWindow sleeps through the timed window [t0, t1) on the
// generator clock and reads the CPU clocks at every quantum edge. The
// window's end closes the last quantum; a remainder shorter than half a
// quantum is merged into the quantum before it.
func sampleWindow(ctx context.Context, tr *traffic, pid int, t0, t1 int64) ([]cpuReading, error) {
	var at []int64
	for a := t0; a < t1; a += int64(quantumLen) {
		at = append(at, a)
	}
	if len(at) > 1 && t1-at[len(at)-1] < int64(quantumLen)/2 {
		at = at[:len(at)-1]
	}
	at = append(at, t1)
	edges := make([]cpuReading, 0, len(at))
	for _, a := range at {
		sleepUntil(ctx, tr.base.Add(time.Duration(a)))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, err := cpuNanos(pid)
		if err != nil {
			return nil, err
		}
		self, err := cpuNanos(os.Getpid())
		if err != nil {
			return nil, err
		}
		edges = append(edges, cpuReading{tr.now(), d, self})
	}
	return edges, nil
}

// cutQuanta sorts the window's samples into the quanta the edges
// delimit. A quantum in which nothing of the primary kind completed (a
// stall longer than the quantum) has no latency to report and is
// dropped: it could only ever be among the loudest.
func cutQuanta(samples []sample, edges []cpuReading, primary uint8) []quantum {
	ops := make([]int, len(edges)-1)
	lats := make([][]float64, len(edges)-1)
	for _, s := range samples {
		i := sort.Search(len(edges), func(i int) bool { return edges[i].at > s.end }) - 1
		if i < 0 || i >= len(ops) || s.ops == 0 {
			continue
		}
		if s.kind != kList {
			ops[i] += int(s.ops)
		}
		if s.kind == primary {
			lats[i] = append(lats[i], float64(s.end-s.start)/1e6)
		}
	}
	var out []quantum
	for i := range ops {
		if len(lats[i]) == 0 {
			continue
		}
		out = append(out, quantum{
			opsPerS:  float64(ops[i]) / (float64(edges[i+1].at-edges[i].at) / 1e9),
			p50MS:    median(lats[i]),
			cpuPerOp: float64(edges[i+1].daemon-edges[i].daemon) / 1e3 / float64(ops[i]),
		})
	}
	return out
}

// trafficLeg is one daemon process's share of a run. Only the last leg
// of a WAL run pays for the kill-and-restart durability check.
func trafficLeg(ctx context.Context, cfg *config, workload, dir string, seconds float64, last bool) (*result, error) {
	res := newResult(workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating leg directory: %w", err)
	}
	walDir := filepath.Join(dir, "wal")
	d, err := startDaemon(cfg.daemonBin, filepath.Join(dir, "daemon.log"), daemonFlags(workload, walDir)...)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if _, err := d.waitReady(ctx, 30*time.Second); err != nil {
		return nil, err
	}
	var watch *dirWatcher
	if workload == wSubmitWAL {
		watch = watchDir(walDir)
		defer watch.stop()
	}
	tr := startTraffic(workload, d.addr, cfg.seed, cfg.clients, warmActions(workload, cfg.warmScale), time.Now())
	tr.warmed.Wait()
	res.set("setup_s", time.Since(d.started).Seconds(), 1)
	// Memory is read here, not after the timed window: the warm-up is a
	// fixed number of operations, all younger than the TTL, so the
	// high-water mark is that of a known population. Afterwards the live
	// set is throughput times TTL, and a faster daemon would read as a
	// fatter one.
	pid := d.cmd.Process.Pid
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 1)

	// The timed window. This goroutine reads the CPU clocks at every
	// quantum edge while the clients keep their own latency samples.
	t0 := tr.now() + int64(cfg.soak)
	t1 := t0 + int64(seconds*1e9)
	sleepUntil(ctx, tr.base.Add(time.Duration(t0)))
	bytes0 := watch.total()
	edges, err := sampleWindow(ctx, tr, pid, t0, t1)
	bytes1 := watch.total()
	rssEnd, err2 := peakRSSMB(pid)
	tr.stop(t1)
	for _, err := range []error{err, err2} {
		if err != nil {
			return nil, err
		}
	}
	first, end := edges[0], edges[len(edges)-1]
	seconds = float64(end.at-first.at) / 1e9

	w := tr.cut(first.at, seconds)
	for _, c := range tr.clients {
		res.tally.merge(&c.tally)
		res.values["engine.shed_count"] += float64(c.shed)
		res.values["engine.queue_full_count"] += float64(c.full)
	}
	ops := w.completed()
	if ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the timed window: %v", workload, res.tally.msgs)
	}
	primary := kSubmit
	if workload == wLifecycleMix {
		primary = kEcho
	}
	res.quanta = cutQuanta(w.samples, edges, primary)
	lat := sortedCopy(w.durations(primary))
	res.set("e2e.whole_ops_per_s", float64(ops)/seconds, ops)
	res.set("e2e.whole_op_p50_ms", percentile(lat, 50), len(lat))
	res.set("e2e.whole_cpu_us_per_op", float64(end.daemon-first.daemon)/1e3/float64(ops), ops)
	res.set("e2e.op_p99_ms", percentile(lat, 99), len(lat))

	// Diagnostics: reported by the traced run, never gated.
	tail := tailPercentile(len(lat))
	res.set("daemon.op_tail_pct", tail, len(lat))
	res.set("daemon.op_tail_ms", percentile(lat, tail), len(lat))
	res.set("daemon.op_max_ms", percentile(lat, 100), len(lat))
	res.set("daemon.peak_rss_mb", rssEnd, 1)
	res.set("loadgen.cpu_frac", float64(end.self-first.self)/(seconds*1e9), 1)
	gaps := make([]float64, len(w.gaps))
	for i, g := range w.gaps {
		gaps[i] = float64(g) / 1e3
	}
	res.set("loadgen.send_gap_us_p99", percentile(sortedCopy(gaps), 99), len(gaps))
	if workload == wLifecycleMix {
		wake := w.durations(kSleep)
		for i := range wake {
			wake[i] -= sleepMS
		}
		res.set("e2e.wake_lag_p50_ms", median(wake), len(wake))
		lists := w.durations(kList)
		res.set("e2e.list_p50_ms", median(lists), len(lists))
		gets, n := 0, 0
		for _, s := range w.samples {
			if s.kind != kList && s.ops > 0 {
				gets += int(s.gets)
				n++
			}
		}
		if n > 0 {
			res.set("watch.gets_per_lifecycle", float64(gets)/float64(n), n)
		}
	}
	if workload == wSubmitWAL {
		res.set("e2e.wal_bytes_per_op", float64(bytes1-bytes0)/float64(ops), ops)
	}

	switch {
	case workload == wSubmitMem:
		checkDone(cfg, d, tr, res)
	case workload == wSubmitWAL && last:
		if err := checkDurable(cfg, d, tr, walDir, dir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func sleepUntil(ctx context.Context, at time.Time) {
	select {
	case <-time.After(time.Until(at)):
	case <-ctx.Done():
	}
}

// recentIDs draws n distinct operation IDs from the clients' recent
// acknowledgements, always including every client's very last batch.
func recentIDs(tr *traffic, seed int64, n int) []string {
	var must, pool []string
	for _, c := range tr.clients {
		must = append(must, c.recent.last()...)
		pool = append(pool, c.recent.all()...)
	}
	sort.Strings(pool) // ring order depends on timing; the draw must not
	rand.New(rand.NewSource(seed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	seen := map[string]bool{}
	var ids []string
	for _, id := range append(must, pool...) {
		if len(ids) >= n && len(ids) >= len(must) {
			break
		}
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// checkDone reads 200 operations acknowledged in the leg's last
// moments back from the memory store; every one must have run to done.
func checkDone(cfg *config, d *daemon, tr *traffic, res *result) {
	hc := newHTTPClient(d.addr, "bench-check")
	defer hc.close()
	for _, id := range recentIDs(tr, cfg.seed, 200) {
		op, _, err := hc.awaitTerminal(id, lifecycleMax)
		switch {
		case err != nil:
			res.tally.fail(1, "readback: %v", err)
		case op.Status != "done":
			res.tally.fail(1, "readback: operation %s ended %s, want done", id, op.Status)
		default:
			res.tally.ok(1)
		}
	}
}

// checkDurable SIGKILLs the WAL daemon, restarts it on the same
// directory, and requires 1000 acknowledged operations — each client's
// last acknowledgement among them — to still be there.
func checkDurable(cfg *config, d *daemon, tr *traffic, walDir, dir string, res *result) error {
	ids := recentIDs(tr, cfg.seed, 1000)
	d.kill()
	// Restarted with restart_wal's flags — no TTL — so the janitor cannot
	// evict an acknowledged operation before it is read back.
	rd, err := startDaemon(cfg.daemonBin, filepath.Join(dir, "daemon-restart.log"), daemonFlags(wRestartWAL, walDir)...)
	if err != nil {
		return err
	}
	defer rd.kill()
	if _, err := rd.waitReady(context.Background(), 60*time.Second); err != nil {
		return err
	}
	hc := newHTTPClient(rd.addr, "bench-check")
	defer hc.close()
	for _, id := range ids {
		status, _, err := hc.do(http.MethodGet, "/v1/operations/"+id, nil)
		switch {
		case err != nil:
			res.tally.fail(1, "durability: %v", err)
		case status != http.StatusOK:
			res.tally.fail(1, "durability: acknowledged operation %s reads %d after kill -9 and restart", id, status)
		default:
			res.tally.ok(1)
		}
	}
	res.notes = append(res.notes, fmt.Sprintf(
		"durability check: %d acknowledged operations read back after SIGKILL + restart; this is process-crash durability only, the OS page cache survives a kill", len(ids)))
	return nil
}

// dirWatcher estimates the bytes appended under a directory while
// files come and go (the WAL prunes segments after compaction): it
// polls file sizes and keeps each file's high-water mark.
type dirWatcher struct {
	dir  string
	mu   sync.Mutex
	max  map[string]int64
	quit chan struct{}
	done chan struct{}
}

func watchDir(dir string) *dirWatcher {
	w := &dirWatcher{dir: dir, max: map[string]int64{}, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			w.poll()
			select {
			case <-w.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *dirWatcher) poll() {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return // not created yet, or mid-rename; the next poll sees it
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			continue // renamed into place when complete; counted then
		}
		if info, err := e.Info(); err == nil && info.Size() > w.max[e.Name()] {
			w.max[e.Name()] = info.Size()
		}
	}
}

// total is the sum of every file's high-water mark so far; a nil
// watcher (a workload without a WAL) has written nothing.
func (w *dirWatcher) total() int64 {
	if w == nil {
		return 0
	}
	w.poll()
	w.mu.Lock()
	defer w.mu.Unlock()
	var sum int64
	for _, n := range w.max {
		sum += n
	}
	return sum
}

func (w *dirWatcher) stop() {
	close(w.quit)
	<-w.done
}
