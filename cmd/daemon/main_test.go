package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// parseFlags builds a daemonConfig from args with main's flag set,
// returning a bad flag's error instead of exiting.
func parseFlags(args ...string) (daemonConfig, error) {
	var cfg daemonConfig
	fs := newFlagSet(&cfg)
	fs.Init("daemon", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	return cfg, err
}

// TestRemovedFlagsRefused checks the settings that have one source (the
// kind's deadline, the fixed aging threshold, -queue-depth as the only
// admission bound, the GOMAXPROCS-scaled shard count, the sizes of the
// notices ring, the long-poll clamp and the WAL's segments) have no flag.
func TestRemovedFlagsRefused(t *testing.T) {
	for _, name := range []string{
		"default-deadline", "promote-after", "shed-threshold", "store-shards",
		"notice-ring", "max-wait", "wal-segment-bytes", "wal-max-segments",
	} {
		_, err := parseFlags("-"+name, "1")
		if err == nil || err.Error() != "flag provided but not defined: -"+name {
			t.Errorf("-%s: parse error %v, want it refused as an unknown flag", name, err)
		}
	}
}

// TestRunRefusesBadConfig checks that run refuses each config before it
// opens the listener, naming what is wrong.
func TestRunRefusesBadConfig(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-store", "wal"}, "-store=wal requires -wal-dir"},
		{[]string{"-store", "bogus"}, `unknown -store "bogus" (want memory or wal)`},
		{[]string{"-store", "wal", "-wal-dir", t.TempDir(), "-wal-sync", "bogus"}, `wal: unknown sync mode "bogus"`},
		{[]string{"-workers", "0"}, "-workers must be positive, got 0"},
		{[]string{"-queue-depth", "-1"}, "-queue-depth must be positive, got -1"},
	} {
		cfg, err := parseFlags(append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		if err != nil {
			t.Fatalf("parsing %v: %v", tc.args, err)
		}
		errc := make(chan error, 1)
		go func() { errc <- run(cfg) }()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		case <-time.After(10 * time.Second):
			// The daemon is serving; nothing can stop it from here.
			t.Fatalf("run(%v) started serving instead of refusing the config", tc.args)
		}
	}
}

// tuningRow matches a row of the Tuning table in docs/architecture.md
// and captures the flag it documents.
var tuningRow = regexp.MustCompile("^\\| `-([a-z-]+)` \\|")

// TestTuningTableMatchesFlags checks that every daemon flag has a row in
// docs/architecture.md's Tuning table and that every row names a flag the
// daemon registers.
func TestTuningTableMatchesFlags(t *testing.T) {
	doc, err := os.ReadFile("../../docs/architecture.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## Tuning\n")
	if !ok {
		t.Fatal("docs/architecture.md has no Tuning section")
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		if m := tuningRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}
	var cfg daemonConfig
	var missing []string
	newFlagSet(&cfg).VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			missing = append(missing, "-"+f.Name)
		}
		delete(documented, f.Name)
	})
	if len(missing) > 0 {
		t.Errorf("flags with no row in docs/architecture.md's Tuning table: %v", missing)
	}
	var stale []string
	for name := range documented {
		stale = append(stale, "-"+name)
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("Tuning table rows naming no daemon flag: %v", stale)
	}
}
