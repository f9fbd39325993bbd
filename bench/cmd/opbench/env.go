package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envInfo is the header of every report: enough about the host to
// explain a drift between two files from the files alone.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	CPUModel   string  `json:"cpu_model"`
	WorkdirFS  string  `json:"workdir_fs"`
	GitCommit  string  `json:"git_commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	// NoisyHost is set when the 1-minute load average before the run
	// already exceeded half the cores: someone else was using the box.
	NoisyHost bool   `json:"noisy_host"`
	Transport string `json:"transport"`
	Disk      string `json:"disk"`
}

func readEnv(ctx context.Context, root, workdir string) envInfo {
	env := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:   "unknown",
		WorkdirFS:  fsType(workdir),
		GitCommit:  "unknown",
		Transport:  "loopback TCP, one keep-alive connection per client; no network was crossed",
		Disk:       "fsync latency is this sandbox's filesystem, not a device specification",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				env.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	if f := strings.Fields(firstLine("/proc/loadavg")); len(f) > 0 {
		env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // unparsable reads as 0: not noisy
	}
	env.NoisyHost = env.LoadAvg1 > float64(env.NProc)/2
	gctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	cmd := exec.CommandContext(gctx, "git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

func firstLine(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return line
}

// fsType names the filesystem holding dir: the type of the longest
// mount point in /proc/mounts that is a prefix of it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, kind = mount, f[2]
		}
	}
	return kind
}
