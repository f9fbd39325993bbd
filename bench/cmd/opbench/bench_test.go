package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []manifestE2E `json:"end_to_end"`
	PerLayer   []manifestRow `json:"per_layer"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestRow struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// wantManifest is BENCHMARK.json as metrics.go implies it.
func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestRow{d.Name, d.Unit, d.Better})
	}
	return m
}

func loadManifest(t *testing.T) (string, manifest) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return root, m
}

// TestManifestMatchesTables pins BENCHMARK.json to the tables in
// metrics.go — names, order, units, directions, bounds — and checks the
// driver's limits on them.
func TestManifestMatchesTables(t *testing.T) {
	_, got := loadManifest(t)
	want := wantManifest()
	if !reflect.DeepEqual(got, want) {
		raw, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json is out of step with metrics.go; it should read:\n%s", raw)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("table sizes outside the driver's limits")
	}
}

// TestSmoke runs every workload end to end and traced, at a fraction
// of a second each, and checks that exactly the names BENCHMARK.json
// promises come out, all finite, with every correctness check passing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	root, m := loadManifest(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := &config{
		root: root, workdir: t.TempDir(), seed: 1, seconds: 0.3, clients: 2,
		soak: 0, legs: 1, preloadOps: 2000, warmScale: 0.2,
		spansPath: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
	// The ungated workloads are not in BENCHMARK.json but emit the same
	// rows and must keep working.
	var names []string
	for _, w := range append(m.Workloads, ungatedWorkloads...) {
		names = append(names, w.Name)
	}
	rep, failed, err := run(ctx, cfg, names, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		for _, c := range rep.Checks {
			for _, f := range c.Failures {
				t.Errorf("%s trace=%d: %s", c.Workload, c.Trace, f)
			}
		}
	}
	want := map[string]bool{}
	for _, name := range names {
		for _, d := range m.EndToEnd {
			want[name+" "+d.Name] = true
		}
		for _, d := range m.PerLayer {
			want[name+" "+d.Name] = true
		}
	}
	for _, r := range rep.Rows {
		key := r.Workload + " " + r.Metric
		if !want[key] {
			t.Errorf("emitted %q, which BENCHMARK.json does not list", key)
		}
		delete(want, key)
		if len(r.Values) != 1 || math.IsNaN(r.Median) || math.IsInf(r.Median, 0) {
			t.Errorf("%s = %v, want one finite value", key, r.Values)
		}
		if r.Bound > 0 && r.Median <= 0 {
			t.Errorf("%s = %g: an end-to-end metric must never read 0", key, r.Median)
		}
	}
	for key := range want {
		t.Errorf("BENCHMARK.json lists %q, which was not emitted", key)
	}
	if rep.Claim != nil {
		t.Error("a benchmark run claims nothing; claim must be null")
	}
	if info, err := os.Stat(cfg.spansPath); err != nil || info.Size() == 0 {
		t.Errorf("no spans were written to %s: %v", cfg.spansPath, err)
	}
	for _, c := range rep.Checks {
		if c.Attempted == 0 {
			t.Errorf("%s trace=%d attempted no operation", c.Workload, c.Trace)
		}
	}
}
