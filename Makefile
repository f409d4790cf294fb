# Development targets. `make check` is what CI should run; it would have
# caught the missing-go.mod class of breakage mechanically.

GO ?= go

.PHONY: all build test vet fmt-check lint bench-smoke bench-json bench-compare race-smoke sweep-smoke docs-check perfbench-check check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs schedlint, the module's own analyzer suite
# (internal/analysis): determinism, hot-path allocation, pool pairing,
# the sealed internal/ boundary, and serve-layer channel discipline.
# See docs/INVARIANTS.md for the contracts and the //hybridsched:*
# directive vocabulary that records reviewed exceptions.
lint:
	$(GO) run ./cmd/schedlint ./...

# fmt-check fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench-smoke proves the hot-path benchmarks still compile and run: the
# event-queue benchmark is the kernel's allocation regression guard, the
# observer benchmark covers the streaming-sample path, the empirical-
# sampler benchmark the flow-size draw, the trace-replay benchmark the
# capture/replay injection path, the matching benchmarks
# (BenchmarkMatch*, at up to 512 ports) the scheduling core's
# nonzero-iteration hot path, and the serve benchmarks the online
# service's allocation-free epoch loop.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEventQueue|BenchmarkObserverStream|BenchmarkEmpiricalSampler|BenchmarkTraceReplay|BenchmarkMatch|BenchmarkServiceEpoch' -benchtime 0.1s .
	$(GO) test -run '^$$' -bench 'BenchmarkServeEpoch' -benchtime 0.1s ./internal/serve

# bench-json records the scheduling-core performance trajectory: it runs
# the matching and frame-decomposition benchmark set with -benchmem and
# rewrites BENCH_core.json ({name, ns_op, b_op, allocs_op} per
# benchmark). The committed file is the baseline future PRs diff against.
# Ten repetitions per benchmark: benchjson collapses them to the
# per-metric minimum (best observed steady state), which keeps the slow
# n=512 entries stable enough for the 20% bench-compare gate on noisy
# machines.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkMatch$$|BenchmarkFrameDecompose$$' -benchmem -benchtime 0.1s -count 10 . | $(GO) run ./cmd/benchjson -o BENCH_core.json

# bench-compare is the perf-regression gate on that trajectory: it
# re-runs the same benchmark set and diffs against the committed
# BENCH_core.json. Any allocs/op increase fails outright (the 0-alloc
# contract is exact); B/op may jitter within 64 bytes (runtime size
# classes); ns/op is gated after benchjson normalizes out the
# suite-median machine drift. The tolerance here is 40% rather than the
# tool's 20% default: on shared CI runners individual entries of the
# slow n=512 benchmarks swing up to ~35% between runs even after the
# min-of-10 collapse and drift normalization, and a deliberate hot-path
# pessimization lands far above either bound. Run this before
# bench-json — bench-json rewrites the baseline the gate diffs against.
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkMatch$$|BenchmarkFrameDecompose$$' -benchmem -benchtime 0.1s -count 10 . | $(GO) run ./cmd/benchjson -compare BENCH_core.json -tolerance 0.40

# race-smoke runs the concurrency-bearing layers under the race detector:
# the parallel execution engine and the root fan-out/observer API,
# including the flow-level generator fan-out
# (TestFlowWorkloadParallelDeterminism), the golden-trace replays at
# several worker counts, the 256-port fabric scenario
# (TestScale256PortScenario), and the online scheduling service —
# streaming ingest, subscriptions, the sharded step fan-out, and the
# 10k-epoch live-workload run (TestServeLive10kEpochs) — plus the
# JSON-lines daemon serving it.
# internal/analysis rides along so the analyzer suite (whose loader
# shells out to the go tool and type-checks concurrently loaded
# packages) is exercised under the race detector too.
race-smoke:
	$(GO) test -race ./internal/runner/... ./internal/serve/... ./internal/analysis/... ./cmd/hybridschedd/... .

# sweep-smoke proves the declarative scenario path end to end: the sweep
# tool loads the committed scenario pack (the same documents the loader
# tests, the fuzzer seed corpus and the golden traces are built from) and
# runs every scenario on the worker pool. Any pack-format or dynamics
# regression that survives the unit layer fails here.
sweep-smoke:
	$(GO) run ./cmd/sweep -scenario-dir testdata/scenarios -parallel 4 >/dev/null

# docs-check keeps the documentation layer executable: go vet (including
# its doc-comment/printf analyzers) over every package, all godoc
# Example functions run with their expected output compared, and the
# markdown link + make-target checkers (TestDoc*) over README.md and
# docs/.
docs-check:
	$(GO) vet ./...
	$(GO) test -run '^Example' -v .
	$(GO) test -run '^TestDoc' .

# perfbench-check vets and compiles the end-to-end benchmark. perfbench
# is its own module that imports this one (and internal/match) through a
# replace directive, so nothing above compiles it: a deletion in the root
# module could otherwise break the gated benchmark unnoticed. It uses
# perfbench/run.sh's offline environment and writes nothing under
# perfbench/.
perfbench-check:
	cd perfbench && GOPROXY=off GOFLAGS= $(GO) vet ./...
	cd perfbench && GOPROXY=off GOFLAGS= $(GO) build -o /dev/null .

check: fmt-check vet lint build test bench-smoke sweep-smoke docs-check perfbench-check
