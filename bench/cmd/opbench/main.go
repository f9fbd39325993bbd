// Command opbench is the repository's benchmark: it builds cmd/daemon,
// runs it as a subprocess, drives it over loopback HTTP from its own
// seeded closed-loop generator, verifies every reply, and prints each
// metric by name with its unit. A second, traced mode assembles the
// same stack in-process behind bench-owned wrappers and reports where
// the time goes, layer by layer. See ../../README.md for the glossary.
//
//	opbench                          every workload, end to end and traced
//	opbench -workload W -trace 0|1   one run in the acceptance driver's format
//	opbench -repeat 5 -out a.json    five interleaved sets, with spreads
//	opbench -compare a.json b.json   better / worse / unresolved, row by row
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: every one, restart_wal included)")
		seed     = flag.Int64("seed", 1, "workload seed; repeat i uses seed+i")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of one run's timed window, split over its legs")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics against the real daemon; 1: per-layer metrics from the traced in-process run; -1: both")
		repeat   = flag.Int("repeat", 1, "run this many full sets, workloads interleaved, and report medians, quartiles and spread")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments instead of running")
		smoke    = flag.Bool("smoke", false, "a fraction of a second per workload and a 2000-operation restart log: checks the plumbing, measures nothing")
		out      = flag.String("out", "", "also write the JSON report to this file")
		spans    = flag.String("spans", "", "write the traced run's spans to this file as JSONL")
		workdir  = flag.String("workdir", "", "scratch directory (default .bench_build/work under the repository root)")
		spin     = flag.Bool("spin", false, "internal: run as the idle-spinner child (see spin.go)")
	)
	flag.Parse()
	if *spin {
		if err := spinMain(); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two report files"))
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	cfg := &config{
		root: root, seed: *seed, seconds: *seconds, soak: 2 * time.Second, legs: 3,
		preloadOps: 100_000, warmScale: 1, spansPath: *spans, spin: true,
		// One closed-loop client per core, two at most: with more the
		// generator would compete with the daemon it is measuring.
		clients: min(2, runtime.NumCPU()),
	}
	if *smoke {
		cfg.seconds, cfg.soak, cfg.legs, cfg.preloadOps, cfg.warmScale = 0.3, 0, 1, 2000, 0.2
	}
	cfg.workdir = *workdir
	if cfg.workdir == "" {
		cfg.workdir = filepath.Join(root, ".bench_build", "work")
	}
	names, err := selectWorkloads(*workload)
	if err != nil {
		fatal(err)
	}

	// SIGINT and SIGTERM cancel the run; every daemon is killed and
	// waited for on the way out. The watchdog bounds a wedged run well
	// inside the acceptance driver's per-run limit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	passes := 1
	if *trace < 0 {
		passes = 2
	}
	budget := time.Duration(float64(*repeat*len(names)*passes)*(2.5*cfg.seconds+45)) * time.Second
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	rep, failed, err := run(ctx, cfg, names, *trace, *repeat)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the machine-readable result:
	// the driver's object for a single run, the whole report otherwise.
	var last any = rep
	if *workload != "" && *trace >= 0 && *repeat == 1 {
		last = rep.driverLine(*workload)
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(fmt.Errorf("encoding result: %w", err))
	}
	fmt.Println(string(line))
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "opbench:", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the repository
// checkout, recognised by cmd/daemon/main.go, so that both
// `bash bench/run.sh` (from the root) and `go run ./cmd/opbench` (from
// bench/) find it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("locating the repository: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "daemon", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/daemon/main.go in any parent directory: run opbench from inside the opdaemon repository")
		}
		dir = parent
	}
}

func selectWorkloads(name string) ([]string, error) {
	var all []string
	for _, w := range append(append([]workloadDef(nil), workloads...), ungatedWorkloads...) {
		if w.Name == name {
			return []string{name}, nil
		}
		all = append(all, w.Name)
	}
	if name == "" {
		return all, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, all)
}

// run executes repeat sets of the selected workloads, interleaved so
// that slow drift of the host lands on every workload alike, and folds
// the results into one report.
func run(ctx context.Context, cfg *config, names []string, trace, repeat int) (*report, bool, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, false, fmt.Errorf("creating work directory: %w", err)
	}
	// The engine and the WAL log every sweep and replay through the std
	// logger; in-process that would bury the report.
	logf, err := os.Create(filepath.Join(cfg.workdir, "inprocess.log"))
	if err != nil {
		return nil, false, fmt.Errorf("creating in-process log: %w", err)
	}
	defer logf.Close()
	log.SetOutput(logf)
	bin, took, err := buildDaemon(ctx, cfg.root, filepath.Join(cfg.root, ".bench_build", "bin"))
	if err != nil {
		return nil, false, err
	}
	cfg.daemonBin, cfg.buildS = bin, took.Seconds()
	if cfg.spin {
		stop, err := startSpinners()
		if err != nil {
			return nil, false, err
		}
		defer stop()
	}

	rep := &report{Env: readEnv(ctx, cfg.root, cfg.workdir), Seconds: cfg.seconds, Seed: cfg.seed, Repeat: repeat}
	failed := false
	for i := 0; i < repeat; i++ {
		runCfg := *cfg
		runCfg.seed = cfg.seed + int64(i)
		for _, name := range names {
			for _, mode := range []int{0, 1} {
				if trace >= 0 && trace != mode {
					continue
				}
				res, err := runOne(ctx, &runCfg, name, mode)
				if err != nil {
					return nil, false, fmt.Errorf("%s (trace %d, seed %d): %w", name, mode, runCfg.seed, err)
				}
				rep.add(res, mode)
				if res.tally.failed > 0 {
					failed = true
				}
			}
		}
	}
	rep.finish()
	return rep, failed, nil
}

func runOne(ctx context.Context, cfg *config, workload string, mode int) (*result, error) {
	fmt.Fprintf(os.Stderr, "opbench: %s trace=%d seed=%d seconds=%g\n", workload, mode, cfg.seed, cfg.seconds)
	switch {
	case mode == 1:
		return runTrace(ctx, cfg, workload, cfg.seconds)
	case workload == wRestartWAL:
		return runRestart(ctx, cfg, cfg.seconds)
	default:
		return runTraffic(ctx, cfg, workload, cfg.seconds)
	}
}

// row is one (workload, metric) pair of a report, with every value the
// repeats measured and their summary.
type row struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"` // 0 on per-layer rows: reported, never gated
	Samples  int       `json:"samples"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Spread   float64   `json:"spread"`
}

// check is one workload run's correctness tally.
type check struct {
	Workload  string   `json:"workload"`
	Trace     int      `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Notes     []string `json:"notes,omitempty"`
}

// report is the file format of -out and the input of -compare. Claim
// is always null: a benchmark run states numbers, never a gain.
type report struct {
	Env     envInfo  `json:"env"`
	Seconds float64  `json:"seconds"`
	Seed    int64    `json:"seed"`
	Repeat  int      `json:"repeat"`
	Rows    []*row   `json:"rows"`
	Checks  []*check `json:"checks"`
	Claim   *string  `json:"claim"`
}

func (r *report) add(res *result, mode int) {
	table := endToEnd
	if mode == 1 {
		table = perLayer
	}
	r.Checks = append(r.Checks, &check{
		Workload: res.workload, Trace: mode, Attempted: res.tally.attempted, Failed: res.tally.failed,
		Failures: res.tally.msgs, Notes: res.notes,
	})
	for _, m := range table {
		var target *row
		for _, existing := range r.Rows {
			if existing.Workload == res.workload && existing.Metric == m.Name {
				target = existing
			}
		}
		if target == nil {
			target = &row{Workload: res.workload, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			r.Rows = append(r.Rows, target)
		}
		target.Values = append(target.Values, res.values[m.Name])
		target.Samples += res.samples[m.Name]
	}
}

// finish computes each row's summary over its repeats.
func (r *report) finish() {
	for _, row := range r.Rows {
		row.Q1, row.Median, row.Q3 = quartiles(row.Values)
		s := sortedCopy(row.Values)
		row.Min, row.Max = s[0], s[len(s)-1]
		row.Spread = spread(row.Values)
	}
}

func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "# opbench: %d set(s) of %gs, seed %d; nproc %d, GOMAXPROCS %d, %s, kernel %s, %s, workdir on %s, commit %s, loadavg %.2f\n",
		r.Repeat, r.Seconds, r.Seed, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Kernel, r.Env.CPUModel,
		r.Env.WorkdirFS, r.Env.GitCommit, r.Env.LoadAvg1)
	fmt.Fprintf(w, "# %s; %s\n", r.Env.Transport, r.Env.Disk)
	if r.Env.NoisyHost {
		fmt.Fprintln(w, "# noisy_host: the load average was above nproc/2 before the run started; treat every timing with suspicion")
	}
	fmt.Fprintf(w, "%-14s %-34s %14s %-6s %9s", "workload", "metric", "median", "unit", "samples")
	if r.Repeat > 1 {
		fmt.Fprintf(w, " %12s %12s %12s %12s %8s", "min", "q1", "q3", "max", "spread")
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-34s %14.4f %-6s %9d", row.Workload, row.Metric, row.Median, row.Unit, row.Samples)
		if r.Repeat > 1 {
			fmt.Fprintf(w, " %12.4f %12.4f %12.4f %12.4f %7.1f%%", row.Min, row.Q1, row.Q3, row.Max, 100*row.Spread)
		}
		fmt.Fprintln(w)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "# checks %s trace=%d: %d attempted, %d failed\n", c.Workload, c.Trace, c.Attempted, c.Failed)
		for _, f := range c.Failures {
			fmt.Fprintf(w, "#   FAILED: %s\n", f)
		}
		for _, n := range c.Notes {
			fmt.Fprintf(w, "#   note: %s\n", n)
		}
	}
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}

// driverLine is the acceptance driver's result object for a single run
// of one workload.
func (r *report) driverLine(workload string) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, c := range r.Checks {
		line.Attempted += c.Attempted
		line.Failed += c.Failed
	}
	line.Correct = line.Failed == 0
	for _, row := range r.Rows {
		if row.Workload == workload {
			line.Metrics[row.Metric] = value{row.Median, row.Unit}
		}
	}
	return line
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading report: %w", err)
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decoding report %s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of a comparison row.
const (
	vBetter     = "better"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// verdict judges b against a for one row. A delta is only called real
// when it clears the metric's bound and both files' recorded spreads;
// with neither on record (a single run of an ungated metric) nothing
// can be resolved.
func verdict(a, b *row) (delta float64, v string) {
	if a.Median == 0 {
		return 0, vUnresolved
	}
	delta = (b.Median - a.Median) / math.Abs(a.Median)
	floor := math.Max(a.Bound, math.Max(a.Spread, b.Spread))
	if floor == 0 || math.Abs(delta) <= floor {
		return delta, vUnresolved
	}
	if (delta > 0) == (a.Better == higher) {
		return delta, vBetter
	}
	return delta, vWorse
}

func compareReports(w *os.File, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	for name, r := range map[string]*report{pathA: a, pathB: b} {
		if r.Env.NoisyHost {
			fmt.Fprintf(w, "# %s was recorded on a noisy host (loadavg %.2f on %d cores)\n", name, r.Env.LoadAvg1, r.Env.NProc)
		}
	}
	byKey := map[string]*row{}
	for _, row := range b.Rows {
		byKey[row.Workload+"\x00"+row.Metric] = row
	}
	rows := append([]*row(nil), a.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %-6s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "unit", "delta", "bound", "spread", "verdict")
	for _, ra := range rows {
		rb, ok := byKey[ra.Workload+"\x00"+ra.Metric]
		if !ok {
			continue
		}
		delta, v := verdict(ra, rb)
		fmt.Fprintf(w, "%-14s %-34s %14.4f %14.4f %-6s %+7.1f%% %6.1f%% %6.1f%%  %s\n",
			ra.Workload, ra.Metric, ra.Median, rb.Median, ra.Unit, 100*delta, 100*ra.Bound, 100*math.Max(ra.Spread, rb.Spread), v)
	}
	return nil
}
