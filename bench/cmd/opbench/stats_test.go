package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its input in place")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// returns, since that is what the acceptance driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 2, 1, 3}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", [][2]int64{{10, 40}}, 70},
		{"disjoint children", [][2]int64{{10, 20}, {50, 70}}, 70},
		{"overlapping children count once", [][2]int64{{10, 50}, {30, 60}}, 50},
		{"child clipped to the parent", [][2]int64{{-20, 10}, {90, 150}}, 80},
		{"child outside the parent", [][2]int64{{200, 300}}, 100},
		{"children cover everything", [][2]int64{{0, 60}, {40, 100}}, 0},
	} {
		if got := selfTime(0, 100, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestVerdictRefusesDeltasInsideTheNoise(t *testing.T) {
	base := row{Metric: "op_p50_ms", Better: lower, Bound: 0.10, Median: 100}
	for _, tc := range []struct {
		name    string
		b       row
		spreadA float64
		want    string
	}{
		{"inside the bound", row{Median: 108}, 0, vUnresolved},
		{"beyond the bound, worse", row{Median: 115}, 0, vWorse},
		{"beyond the bound, better", row{Median: 85}, 0, vBetter},
		{"beyond the bound but inside a's spread", row{Median: 115}, 0.2, vUnresolved},
		{"beyond the bound but inside b's spread", row{Median: 115, Spread: 0.2}, 0, vUnresolved},
	} {
		a := base
		a.Spread = tc.spreadA
		if _, got := verdict(&a, &tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
	up := row{Metric: "ops_per_s", Better: higher, Bound: 0.10, Median: 100}
	if _, got := verdict(&up, &row{Median: 120}); got != vBetter {
		t.Errorf("higher-is-better +20%% = %s, want better", got)
	}
	layer := row{Metric: "store.get_ns", Better: lower, Median: 100}
	if _, got := verdict(&layer, &row{Median: 300}); got != vUnresolved {
		t.Errorf("single ungated runs have no noise floor on record; verdict = %s, want unresolved", got)
	}
}

// TestQuantaAndQuietDecile cuts a hand-made window into quanta and
// checks the per-quantum figures and the decile the gated metrics read.
func TestQuantaAndQuietDecile(t *testing.T) {
	const ms = int64(1e6)
	// Three quanta of 100 ms; the daemon burns 1, 4 and 2 ms of CPU.
	edges := []cpuReading{{at: 0}, {at: 100 * ms, daemon: 1 * ms}, {at: 200 * ms, daemon: 5 * ms}, {at: 300 * ms, daemon: 7 * ms}}
	samples := []sample{
		{kind: kEcho, start: 10 * ms, end: 12 * ms, ops: 1},
		{kind: kEcho, start: 20 * ms, end: 26 * ms, ops: 1},
		{kind: kList, start: 30 * ms, end: 31 * ms, ops: 1},   // completes no operation
		{kind: kEcho, start: 40 * ms, end: 44 * ms, ops: 0},   // failed: ignored
		{kind: kSleep, start: 90 * ms, end: 110 * ms, ops: 1}, // counted where it ended, not a primary latency
		{kind: kEcho, start: 150 * ms, end: 160 * ms, ops: 1},
		{kind: kEcho, start: 290 * ms, end: 300 * ms, ops: 1}, // ends on the window's edge: outside
	}
	got := cutQuanta(samples, edges, kEcho)
	want := []quantum{
		{opsPerS: 20, p50MS: 4, cpuPerOp: 500},
		{opsPerS: 20, p50MS: 10, cpuPerOp: 2000},
		// the third quantum completed nothing of the primary kind: dropped
	}
	if len(got) != len(want) {
		t.Fatalf("cutQuanta returned %d quanta, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("quantum %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	var quanta []quantum
	for i := 1; i <= 20; i++ {
		quanta = append(quanta, quantum{opsPerS: float64(i), p50MS: float64(i), cpuPerOp: float64(i)})
	}
	rate, p50, cpu := quietDeciles(quanta)
	if rate != 18 || p50 != 2 || cpu != 2 {
		t.Errorf("quietDeciles = (%g, %g, %g), want the 90th, 10th and 10th percentiles (18, 2, 2)", rate, p50, cpu)
	}
}
