package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Daemon flags every traffic workload shares. The 2 s TTL with a 1 s
// janitor keeps ~100k live operations and a sweep in every second of
// the timed window, so background stalls are in the sample.
var commonDaemonFlags = []string{"-workers", "8", "-queue-depth", "1024"}
var ttlDaemonFlags = []string{"-op-ttl", "2s", "-gc-interval", "1s"}

// buildDaemon compiles cmd/daemon from the repository at root into
// binDir and reports how long the (usually cached) build took.
func buildDaemon(ctx context.Context, root, binDir string) (bin string, took time.Duration, err error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, fmt.Errorf("creating %s: %w", binDir, err)
	}
	bin = filepath.Join(binDir, "opdaemon")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/daemon")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/daemon in %s: %w\n%s", root, err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one running cmd/daemon subprocess.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	logf    *os.File
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it, so a collision is possible but
// needs another process to grab the port within milliseconds.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free loopback port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("releasing probe listener: %w", err)
	}
	return addr, nil
}

// startDaemon execs the daemon binary with the given flags on a fresh
// loopback port, logging to logPath. started is stamped just before
// the exec so readiness times include process start.
func startDaemon(bin, logPath string, flags ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("creating daemon log: %w", err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, addr: addr, logf: logf, started: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	return d, nil
}

// waitReady polls /v1/health every millisecond on a fresh connection
// until the first 200 and returns the time since exec. The listener
// only opens after WAL replay and Engine.Recover, so for a durable
// daemon this is the recovery time a client sees.
func (d *daemon) waitReady(ctx context.Context, limit time.Duration) (time.Duration, error) {
	hc := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   time.Second,
	}
	defer hc.CloseIdleConnections()
	deadline := d.started.Add(limit)
	for {
		resp, err := hc.Get("http://" + d.addr + "/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.started), nil
			}
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("daemon on %s not healthy after %s (see %s)", d.addr, limit, d.logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the daemon and waits until it has ended. The exit
// error of a killed process is expected and dropped.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	_ = d.cmd.Wait()                          // "signal: killed" is the point
	d.logf.Close()
}

// cpuNanos is the CPU time, in nanoseconds, that the process's threads
// have run for: the first field of /proc/<pid>/task/<tid>/schedstat,
// summed. utime+stime in /proc/<pid>/stat would be simpler, but it
// counts in 10 ms ticks, too coarse for a quarter-second quantum. A
// thread that exits takes its time with it; the daemon and opbench are
// Go programs, whose runtime parks idle threads instead of ending them.
func cpuNanos(pid int) (int64, error) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("reading process cpu time (Linux /proc only): %w", err)
	}
	var sum int64
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := bytes.Fields(raw)
		if len(f) == 0 {
			return 0, errors.New("empty schedstat line")
		}
		ns, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unparsable schedstat line %q", raw)
		}
		sum += ns
	}
	return sum, nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark,
// from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading process memory (Linux /proc only): %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
