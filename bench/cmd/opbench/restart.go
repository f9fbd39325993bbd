package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

// restart_wal: recovery is the whole cost. Set-up writes a log of
// preloadOps operations in-process; each cycle then copies the pristine
// directory (untimed), execs the daemon on the copy, waits for the
// first healthy reply and SIGKILLs it.

const (
	preloadQueued  = 500 // left queued: recovery must requeue and run them
	preloadRunning = 16  // left running: recovery must fail them as interrupted
)

// preload describes the log buildPreload wrote.
type preload struct {
	dir     string
	total   int
	queued  []string
	running []string
}

// preloadEpoch anchors every preloaded timestamp, so the log's bytes
// depend on the seed alone.
var preloadEpoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// buildPreload writes a total-operation log under dir through
// engine.OpenWALStore (sync none). Per operation: put queued, update
// running, update done; a seeded choice of them stops early. IDs,
// params and timestamps all come from the seed, and one goroutine
// issues every call, so the same seed yields the same bytes.
func buildPreload(dir string, seed int64, total int) (*preload, error) {
	queued, running := preloadQueued, preloadRunning
	if total < 10*(queued+running) {
		queued, running = total/20, total/100+1 // smoke-sized logs keep the shape
	}
	ws, err := engine.OpenWALStore(engine.WALConfig{Dir: dir, Sync: engine.WALSyncNone})
	if err != nil {
		return nil, fmt.Errorf("opening preload store: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	// stopAt[i] is the status operation i is left in.
	stopAt := make([]core.Status, total)
	for i, j := range rng.Perm(total)[:queued+running] {
		if i < queued {
			stopAt[j] = core.StatusQueued
		} else {
			stopAt[j] = core.StatusRunning
		}
	}
	p := &preload{dir: dir, total: total}
	done := json.RawMessage(`{"ok":true}`)
	var raw [16]byte
	for i := 0; i < total; i++ {
		rng.Read(raw[:])
		at := preloadEpoch.Add(time.Duration(i) * time.Millisecond)
		op := &core.Operation{
			ID:        hex.EncodeToString(raw[:]),
			Kind:      "noop",
			Params:    map[string]any{"n": float64(100_000 + rng.Intn(900_000))},
			Status:    core.StatusQueued,
			Priority:  core.PriorityNormal,
			Client:    "bench-preload",
			CreatedAt: at,
			UpdatedAt: at,
		}
		id := op.ID
		ws.Put(op)
		if stopAt[i] == core.StatusQueued {
			p.queued = append(p.queued, id)
			continue
		}
		step := func(next core.Status, result json.RawMessage) error {
			return ws.Update(id, func(op *core.Operation) {
				if op.Transition(next, op.UpdatedAt.Add(100*time.Microsecond)) {
					op.Result = result
				}
			})
		}
		if err := step(core.StatusRunning, nil); err != nil {
			return nil, fmt.Errorf("preloading %s: %w", id, err)
		}
		if stopAt[i] == core.StatusRunning {
			p.running = append(p.running, id)
			continue
		}
		if err := step(core.StatusDone, done); err != nil {
			return nil, fmt.Errorf("preloading %s: %w", id, err)
		}
	}
	if err := ws.Close(); err != nil {
		return nil, fmt.Errorf("closing preload store: %w", err)
	}
	return p, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// runRestart measures the restart_wal workload end to end: cycles of
// copy, exec, first healthy reply, checks, SIGKILL, for as long as the
// timed window lasts (at least three).
func runRestart(ctx context.Context, cfg *config, seconds float64) (*result, error) {
	res := newResult(wRestartWAL)
	dir, err := os.MkdirTemp(cfg.workdir, wRestartWAL+"-")
	if err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	// Set-up is writing the log; the last build is the one the cycles
	// copy (they are byte-identical, being seeded).
	var setups []float64
	var p *preload
	for i := 0; i < cfg.legs; i++ {
		start := time.Now()
		p, err = buildPreload(filepath.Join(dir, fmt.Sprintf("pristine-%d", i)), cfg.seed, cfg.preloadOps)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.set("setup_s", median(setups), len(setups))

	var recoveryMS, cpuUS, rss []float64
	begin := time.Now()
	for cycle := 0; cycle < 3 || time.Since(begin).Seconds() < seconds; cycle++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		walDir := filepath.Join(dir, fmt.Sprintf("cycle-%d", cycle))
		if err := copyDir(p.dir, walDir); err != nil {
			return nil, fmt.Errorf("copying pristine log: %w", err)
		}
		d, err := startDaemon(cfg.daemonBin, filepath.Join(dir, "daemon.log"), daemonFlags(wRestartWAL, walDir)...)
		if err != nil {
			return nil, err
		}
		ready, err := d.waitReady(ctx, 60*time.Second)
		if err != nil {
			d.kill()
			return nil, err
		}
		pid := d.cmd.Process.Pid
		cpu, err1 := cpuNanos(pid)
		hwm, err2 := peakRSSMB(pid)
		checkRecovered(d.addr, p, &res.tally)
		d.kill()
		if err := os.RemoveAll(walDir); err != nil {
			return nil, fmt.Errorf("removing cycle directory: %w", err)
		}
		for _, err := range []error{err1, err2} {
			if err != nil {
				return nil, err
			}
		}
		recoveryMS = append(recoveryMS, float64(ready)/1e6)
		cpuUS = append(cpuUS, float64(cpu)/1e3)
		rss = append(rss, hwm)
	}

	// A cycle is this workload's quantum (see quantumLen): every one does
	// the same work on the same bytes, a neighbour's stall only ever adds
	// to it, and the gated metrics read the quietest decile of the cycles.
	n := len(recoveryMS)
	sorted := sortedCopy(recoveryMS)
	quiet := percentile(sorted, quietPct)
	res.set("op_p50_ms", quiet, n)
	res.set("ops_per_s", float64(p.total)/(quiet/1e3), n)
	res.set("e2e.cpu_us_per_op", percentile(sortedCopy(cpuUS), quietPct)/float64(p.total), n)
	res.set("peak_rss_mb", median(rss), n)
	res.set("e2e.whole_op_p50_ms", median(recoveryMS), n)
	res.set("e2e.whole_ops_per_s", float64(p.total)/(median(recoveryMS)/1e3), n)
	res.set("e2e.whole_cpu_us_per_op", median(cpuUS)/float64(p.total), n)
	res.set("e2e.op_p99_ms", percentile(sorted, 99), n)
	tail := tailPercentile(n)
	res.set("daemon.op_tail_pct", tail, n)
	res.set("daemon.op_tail_ms", percentile(sorted, tail), n)
	res.set("daemon.op_max_ms", percentile(sorted, 100), n)
	res.set("daemon.peak_rss_mb", median(rss), n)
	return res, nil
}

// checkRecovered verifies one recovered daemon: the store holds every
// preloaded operation, the ones left running read back failed as
// interrupted, and the ones left queued run to done.
func checkRecovered(addr string, p *preload, t *tally) {
	hc := newHTTPClient(addr, "bench-check")
	defer hc.close()
	status, body, err := hc.do(http.MethodGet, "/v1/health", nil)
	var env envelope
	var health struct {
		StoreLen int `json:"store_len"`
	}
	switch {
	case err != nil:
		t.fail(1, "health after recovery: %v", err)
	case status != http.StatusOK:
		t.fail(1, "health after recovery: status %d", status)
	case json.Unmarshal(body, &env) != nil || json.Unmarshal(env.Result, &health) != nil:
		t.fail(1, "health after recovery: undecodable reply %.120s", body)
	case health.StoreLen != p.total:
		t.fail(1, "recovered store_len %d, want %d", health.StoreLen, p.total)
	default:
		t.ok(1)
	}
	for _, id := range p.running {
		op, _, err := hc.awaitTerminal(id, lifecycleMax)
		switch {
		case err != nil:
			t.fail(1, "interrupted operation: %v", err)
		case op.Status != "failed" || !strings.Contains(op.Error, "interrupted"):
			t.fail(1, "operation %s was running at the kill and reads %s (%q), want failed/interrupted", id, op.Status, op.Error)
		default:
			t.ok(1)
		}
	}
	for _, id := range p.queued {
		op, _, err := hc.awaitTerminal(id, lifecycleMax)
		switch {
		case err != nil:
			t.fail(1, "requeued operation: %v", err)
		case op.Status != "done":
			t.fail(1, "operation %s was queued at the kill and ended %s, want done", id, op.Status)
		default:
			t.ok(1)
		}
	}
}
