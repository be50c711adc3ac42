GO ?= go

.PHONY: all build vet lint test race budget verify experiments bench bench-check chaos chaos-writes

all: verify

build:
	$(GO) build ./...

# vet runs the default analyzer set, then copylocks as an explicit pass so a
# future change to the default set can never silently drop it (the guarded
# structs of probecache/engine/core must not be copied). shadow and nilness
# are x/tools vettools; they run when installed and skip with a note when the
# environment has no network to install them.
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks ./...
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool="$$(command -v shadow)" ./...; \
	else \
		echo "vet: shadow not installed, skipping (go install golang.org/x/tools/go/analysis/passes/shadow/cmd/shadow@latest)"; \
	fi
	@if command -v nilness >/dev/null 2>&1; then \
		$(GO) vet -vettool="$$(command -v nilness)" ./...; \
	else \
		echo "vet: nilness not installed, skipping (go install golang.org/x/tools/go/analysis/passes/nilness/cmd/nilness@latest)"; \
	fi

# lint runs the repo's own analyzer suite (cmd/kwslint): determinism,
# ctxflow, metricname, lockcheck, errwrap, and the CFG-based analyzers
# lockflow, leakcheck, hotpath, eventkind. See DESIGN.md §10 and §14.
lint:
	$(GO) run ./cmd/kwslint ./...

test:
	$(GO) test ./...

# The observability layer, the server middleware, the core pipeline (with
# its bitset probe engine), the engine (including the plan cache under
# concurrent Prepare/Select/Insert), the probe cache, storage (serialized
# writers against snapshot readers), the version vector (atomic multi-name
# bumps against concurrent stamps), and the bitmap containers are the
# concurrency-sensitive packages; run them under the race detector.
race:
	$(GO) test -race ./internal/obs ./internal/server ./internal/core ./internal/core/bitprobe ./internal/bitset ./internal/engine ./internal/probecache ./internal/storage ./internal/vervec

# budget re-runs the //kws:hotpath allocation pins on their own (they also
# run inside `test`): the manifest-driven table in internal/core requires a
# harness for every annotated function and pins warm probe servicing and
# flight logging at zero allocations.
budget:
	$(GO) test -run 'TestHotpathAllocBudgets|TestLookupRecordAllocFree' ./internal/core ./internal/invidx

verify: build vet lint test race budget

# The kwsbench benchmark lives in its own modules (cmd/kwsbench and
# internal/kwsbench, each replacing kwsdbg with the root), so the root
# `go build ./...` and `go test ./...` skip it. bench-check builds the driver
# and runs the harness tests against the current tree, so a core API change
# that breaks the benchmark fails here instead of at benchmark time.
bench-check:
	cd internal/kwsbench && GOWORK=off $(GO) test ./...
	cd cmd/kwsbench && GOWORK=off $(GO) build -o /dev/null ./...

experiments:
	$(GO) run ./cmd/experiments -scale 0.02 -maxlevel 3

# Fault-injection and resource-governance tests, repeated to shake out
# scheduling-dependent flakes: engine retry/backoff under injected transient
# faults, core identity under faults, budget/deadline degradation, and
# cancellation cleanliness.
chaos:
	$(GO) test -count=5 -run 'Chaos|Fault|Retry|Budget|Deadline|Cancel' ./internal/engine ./internal/core

# Concurrent INSERT storms against in-flight warm debug runs, under the race
# detector: writers serialize in storage, readers see consistent prefixes,
# and at quiesce the repaired warm output must be byte-identical to a cold
# run at every worker count — on the prepared path and on the bitset path
# (suspect -> re-probe -> repair through bitmap semi-joins). Repeated because
# the interleavings that matter are scheduling-dependent.
chaos-writes:
	$(GO) test -race -count=3 -run 'ChaosWriteStorm|ChaosBitsetWriteStorm|RepairAcrossWorkerCounts' ./internal/core

# The repository's one benchmark is kwsbench (named in BENCHMARK.json): four
# level-5 workloads served over HTTP through the real server stack, with
# end-to-end metrics. run.sh builds from this checkout into .bench_build/;
# call it directly to pick a workload or get the per-layer breakdown, e.g.
# bash cmd/kwsbench/run.sh --workload debug-warm --seconds 10 --trace 1.
bench:
	bash cmd/kwsbench/run.sh
