package main

// The benchmark's vocabulary: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds; bench_test.go fails when
// the two drift apart. bench/README.md is the glossary.

// defaultSeconds is BENCHMARK.json's run_seconds and the default of
// -seconds: the timed window of one run, split over its legs.
const defaultSeconds = 45

// workloadDef names one traffic mix and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wSubmitMem    = "submit_mem"
	wSubmitWAL    = "submit_wal"
	wLifecycleMix = "lifecycle_mix"
	wRestartWAL   = "restart_wal"
)

// workloads are the ones BENCHMARK.json lists and the acceptance driver
// runs and gates.
var workloads = []workloadDef{
	{wSubmitMem, "batch-10 noop submits, memory store: api+engine+store do all the work and wal none, so JSON, admission-lock and store changes show here first"},
	{wSubmitWAL, "same traffic on -store wal -wal-sync group: latency is mostly the commit window and fsync wait, so a WAL change moves this and must leave submit_mem flat"},
}

// ungatedWorkloads run with the rest (`opbench` without -workload, or
// by name) but are not in BENCHMARK.json, because on this host their
// numbers cannot hold a bound (README, "Why two workloads are not
// gated"). lifecycle_mix is two clients exchanging tiny messages over
// loopback, which is all cache misses in the kernel and the runtime:
// when the host's memory latency shifts, for minutes at a time, its
// median latency shifts by up to half. restart_wal replays a 225 MB
// heap from a cold process every cycle and follows the same levels.
var ungatedWorkloads = []workloadDef{
	{wLifecycleMix, "single-op echo/sleep/cancel lifecycles with long-polls and list reads: Update transitions, reads and wake-ups, so a submit gain paid for on the read path shows"},
	{wRestartWAL, "SIGKILL and restart on a 100000-op log: the only workload where wal recovery and core decode are the whole cost"},
}

// metricDef is one named number. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a client or operator of the daemon sees, measured
// against the real cmd/daemon process with tracing off. Every metric is
// emitted by every workload; README.md says what "op" means on each.
// CPU per operation is not among them: it repeated within 9-15 % here,
// too close to the bound once the driver's host is busier than this
// one, and is reported as e2e.cpu_us_per_op instead.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "ops/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer is the outside-in budget: spans recorded by bench-owned
// wrappers around each module's public functions, plus ungated
// diagnostics of the real daemon. A metric reads 0 on a workload that
// never enters the layer (no wal.* span exists on submit_mem).
var perLayer = []metricDef{
	{"api.serve_submit10_us", "us", lower, 0},
	{"api.self_submit10_us", "us", lower, 0},
	{"api.allocs_per_submit10", "count", lower, 0},
	{"api.resp_bytes_per_op", "B", lower, 0},
	{"api.serve_get_wait_us", "us", lower, 0},
	{"api.serve_list50_us", "us", lower, 0},
	{"engine.submit10_us", "us", lower, 0},
	{"engine.self_submit10_us", "us", lower, 0},
	{"engine.queue_wait_us_p50", "us", lower, 0},
	{"engine.queue_wait_us_p99", "us", lower, 0},
	{"engine.finish_us_p50", "us", lower, 0},
	{"engine.cancel_to_terminal_us_p50", "us", lower, 0},
	{"engine.shed_count", "count", lower, 0},
	{"engine.queue_full_count", "count", lower, 0},
	{"store.put_batch10_ns_per_op", "ns", lower, 0},
	{"store.put_ns", "ns", lower, 0},
	{"store.update_ns", "ns", lower, 0},
	{"store.get_ns", "ns", lower, 0},
	{"store.list50_us", "us", lower, 0},
	{"store.sweep_us_per_1k", "us", lower, 0},
	{"wal.put_batch10_wait_us_p50", "us", lower, 0},
	{"wal.put_batch10_wait_us_p99", "us", lower, 0},
	{"wal.update_ns", "ns", lower, 0},
	{"wal.update_fn_calls_per_update", "ratio", higher, 0},
	{"wal.records_per_fsync", "count", higher, 0},
	{"wal.fsyncs_per_s", "1/s", lower, 0},
	{"wal.segments", "count", lower, 0},
	{"wal.bytes_per_op", "B", lower, 0},
	{"wal.open_100k_ms", "ms", lower, 0},
	{"core.encode_ns", "ns", lower, 0},
	{"core.delta_encode_ns", "ns", lower, 0},
	{"core.decode_ns", "ns", lower, 0},
	{"core.clone_ns", "ns", lower, 0},
	{"core.record_bytes_full", "B", lower, 0},
	{"core.record_bytes_delta", "B", lower, 0},
	{"watch.wake_us_p50", "us", lower, 0},
	{"watch.gets_per_lifecycle", "ratio", lower, 0},
	{"daemon.http_overhead_us", "us", lower, 0},
	{"daemon.peak_rss_mb", "MB", lower, 0},
	{"daemon.build_s", "s", lower, 0},
	{"daemon.op_tail_ms", "ms", lower, 0},
	{"daemon.op_tail_pct", "%", higher, 0},
	{"daemon.op_max_ms", "ms", lower, 0},
	{"loadgen.cpu_frac", "ratio", lower, 0},
	{"loadgen.send_gap_us_p99", "us", lower, 0},
	{"trace.overhead_frac", "ratio", lower, 0},
	{"trace.client_op_p50_us", "us", lower, 0},
	{"trace.budget_frac", "ratio", higher, 0},
	{"e2e.cpu_us_per_op", "us/op", lower, 0},
	{"e2e.whole_ops_per_s", "ops/s", higher, 0},
	{"e2e.whole_op_p50_ms", "ms", lower, 0},
	{"e2e.whole_cpu_us_per_op", "us/op", lower, 0},
	{"e2e.op_p99_ms", "ms", lower, 0},
	{"e2e.wake_lag_p50_ms", "ms", lower, 0},
	{"e2e.list_p50_ms", "ms", lower, 0},
	{"e2e.wal_bytes_per_op", "B/op", lower, 0},
	{"e2e.failed_frac", "ratio", lower, 0},
}
