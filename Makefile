GO ?= go

# Benchmark knobs. BENCHTIME=100x keeps CI fast; use the default
# (wall-clock) locally for numbers worth comparing. BENCHCPU pins
# GOMAXPROCS because the contention benchmarks are meaningless with a
# single scheduler thread (nothing ever contends).
BENCHTIME ?= 300ms
BENCHCPU ?= 8

# Pinned staticcheck release; `go run` fetches exactly this version so
# CI and developers lint with identical rules. Bump deliberately.
STATICCHECK_VERSION ?= 2025.1

# Pinned govulncheck release, same reproducibility rationale.
GOVULNCHECK_VERSION ?= v1.1.4

# fuzz-smoke budget per target; raise locally for real fuzzing
# campaigns (e.g. make fuzz-smoke FUZZTIME=5m).
FUZZTIME ?= 10s

.PHONY: all check build test models test-allocs lint vet fmt-check fmt bench mutex-profile test-bench opbench-smoke staticcheck opdaemonlint vuln fuzz-smoke loc

# check is the offline gate. It leaves four targets to CI: fuzz-smoke (a
# minute of coverage-guided search) and bench (the Go benchmarks, which
# gate nothing) run offline but slowly; staticcheck and vuln, which all
# adds, download a pinned tool through the module proxy. CI calls the
# targets one by one so a failure names its step.
all: check staticcheck vuln

check: build vet fmt-check opdaemonlint test models test-allocs test-bench opbench-smoke

build:
	$(GO) build ./...

# -shuffle=on randomizes test order every run so inter-test state
# dependencies surface in CI instead of on a refactor years later; the
# failure log prints the seed for reproduction.
test:
	$(GO) test -race -shuffle=on ./...

# The four generated-history tests (TestStoreModel, TestAdmissionModel,
# TestSchedModel, and TestWALWaitModel, which races the log's stage, its
# waits and flush against held and failed fsyncs) draw one fresh seed per
# run beside their fixed ones; ten runs give ten more histories each
# (~30 s). A failure prints its seed, and
# `-modelseed N` replays it. The replay test rides along (~1 s), so
# recovery's fanned-out decode and its earliest-failure cut run ten
# more times under -race, and so do the no-lost-wakeup races of
# AwaitChange (200 iterations) and AwaitNotices (16 readers over 200
# appends, each landing as the last readers finish a page), ~1 s, which
# pin the in-flight table's one-lock publish against the long-polls it
# wakes,
# and TestShutdownWaitsForJanitor (~0.1 s), which pins that Shutdown
# returns only after a janitor sweep in progress has ended, and
# TestWALCompactionEndsWithClose (~0.2 s), which pins that the log's
# Close and crash simulation return only after a compaction in progress
# has ended.
models:
	$(GO) test -race -run 'Model$$|^TestReplayParallelMatchesSequential$$|^TestAwait(Change|Notices)NoLostWakeups$$|^TestShutdownWaitsForJanitor$$|^TestWALCompactionEndsWithClose$$' -count=10 ./internal/engine/

# The allocation pins (AllocsPerRun tests, the accept→terminal budget in
# internal/api) skip themselves under the race detector, whose
# instrumentation allocates — and `make test` is always -race. This is
# the run in which they actually execute.
test-allocs:
	$(GO) test -run 'Alloc|Budget' ./internal/...

# lint runs the three lint gates in one go, for local use: vet for the
# compiler-adjacent checks, staticcheck for general Go correctness,
# opdaemonlint for the project's own concurrency and immutability
# contracts. CI runs each as a step of its own.
lint: vet staticcheck opdaemonlint

# bench/ is a nested module that compiles against internal/ and that
# `go vet ./...` never sees; vetting it here (under a second, offline)
# makes `make check` and `make lint` fail at once when a change to
# internal/ stops the benchmark of record compiling, instead of as a
# failed benchmark run later.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Needs module-proxy network access on first run (the binary is cached
# afterwards); offline sandboxes should rely on the CI step instead.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# The project's custom analyzers (opmutate, lockscope, ctxdiscipline).
# Built from this repo, so it runs offline; see
# docs/static-analysis.md for what each analyzer enforces and how to
# suppress an intentional violation.
opdaemonlint:
	$(GO) run ./cmd/opdaemonlint ./...

# Known-vulnerability scan over the module graph and reachable calls.
# Needs network access for the vuln DB and the pinned tool download.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# The Go benchmarks opbench does not supersede: store and WAL contention
# (*Parallel), a batch's shape across shard counts, cold recovery, the
# in-process API paths. -benchmem because allocs/op is what the collector
# is billed for. They print numbers and
# gate nothing; numbers worth quoting come from opbench (bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -cpu=$(BENCHCPU) -run '^$$' ./internal/engine/ ./internal/api/

# The contention profile docs/performance.md quotes: the batch-10 submit
# benchmark at 2 and 8 procs (all four store/cpu rows in one profile)
# with the mutex profiler on, then the engine's lines of the cumulative
# top. It prints numbers and gates nothing, so it is in neither `make
# check` nor CI; offline, and it writes only under .bench_build/.
mutex-profile:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkAPISubmitBatch10$$' -cpu 2,8 -benchtime 2s \
		-mutexprofile .bench_build/mutex.prof -o .bench_build/api.test ./internal/api/
	$(GO) tool pprof -top -cum -nodefraction=0 .bench_build/api.test .bench_build/mutex.prof \
		| grep -E '^ *(Showing|flat)|opdaemon/internal/engine'

# bench/ is its own module (opdaemon/bench), invisible to `make test`
# and `make lint`: test-bench runs its unit tests, opbench-smoke runs
# the benchmark of record end to end at a fraction of a second per
# workload — plumbing and correctness checks only, no numbers. See
# bench/README.md.
test-bench:
	cd bench && $(GO) test ./...

opbench-smoke:
	bash bench/run.sh -smoke

# Short coverage-guided fuzz runs over the untrusted-input parsers —
# the cursor values clients control, the WAL replay path that must
# survive arbitrary on-disk bytes after a crash — over the JSON wire
# codec, held byte for byte to encoding/json, and differentially over the
# store index's galloping search against sort.Search. One `go test
# -fuzz` invocation accepts a single target, hence one line per
# fuzzer; seed corpora alone also run as normal tests under `make
# test`. FuzzOperationAppendJSON takes thirteen arguments, and the
# default minute spent minimising each new input would swallow a
# ten-second budget whole, hence its -fuzzminimizetime.
fuzz-smoke:
	$(GO) test -fuzz '^FuzzNoticesCursor$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/api/
	$(GO) test -fuzz '^FuzzListQueryCursor$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/api/
	$(GO) test -fuzz '^FuzzWALReplay$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/engine/
	$(GO) test -fuzz '^FuzzWALCodecBinary$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/engine/
	$(GO) test -fuzz '^FuzzOpIndexSearch$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/engine/
	$(GO) test -fuzz '^FuzzDecodeSubmit$$' -fuzztime=$(FUZZTIME) -run '^Fuzz' ./internal/api/
	$(GO) test -fuzz '^FuzzOperationAppendJSON$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s -run '^Fuzz' ./internal/core/

# The line counts ROADMAP and CHANGES.md quote, counted one way: every
# non-test .go file of each package tree (analyzer fixtures under
# testdata/ are test input, not counted), then README.md plus docs/*.md.
# It prints numbers and gates nothing, so it is not in `make check`.
loc:
	@for d in internal/engine internal/core internal/api internal/analysis cmd; do \
		printf '%-20s %6d\n' $$d "$$(find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)"; \
	done
	@printf '%-20s %6d\n' 'README.md+docs' "$$(cat README.md docs/*.md | wc -l)"

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .
