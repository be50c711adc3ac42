GO ?= go

.PHONY: all build fmt vet lint test race budget verify fuzz experiments bench bench-check chaos chaos-writes

all: verify

build:
	$(GO) build ./...

# fmt fails when gofmt would change any tracked .go file. Files under
# testdata/ are exempt: the lint fixtures align their `// want` comments by
# hand.
fmt:
	@unformatted="$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$unformatted"; exit 1; \
	fi

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

# The observability layer (with the flight recorder: one mutex over the ring
# and every attached log), the server middleware, the core pipeline, the
# engine (including the plan cache under concurrent Prepare/Select/Insert),
# the probe cache, storage (serialized writers against snapshot readers),
# the version vector (atomic multi-name bumps against concurrent stamps),
# and the lattice (nodes labeled and linked on worker goroutines, then
# flattened into the arrays concurrent Debug calls read) are the
# concurrency-sensitive packages; run them under the race detector.
race:
	$(GO) test -race ./internal/obs ./internal/obs/flight ./internal/server ./internal/core ./internal/engine ./internal/probecache ./internal/storage ./internal/vervec ./internal/lattice

# budget re-runs the //kws:hotpath allocation pins on their own (they also
# run inside `test`): the manifest-driven table in internal/core requires a
# harness for every annotated function and pins warm probe servicing, flight
# logging, the per-binding cache lookup, Phase 3's commit path (run.classify),
# the engine's join kernel and the /debug report's entry writer at zero
# allocations, a warm Q1-Q10 debug run at its measured count, and JSONOpts at
# one allocation per Q1-Q10 report.
budget:
	$(GO) test -run 'TestHotpathAllocBudgets|TestWarmDebugAllocBudget|TestLookupRecordAllocFree|TestEnumerateAllocFree|TestQueryEntryAllocFree|TestJSONOptsAllocs' ./internal/core ./internal/invidx ./internal/engine ./internal/report

verify: build fmt vet lint test race budget

# fuzz runs every fuzz target past its seed corpus (the seeds alone run in
# `test`) for FUZZTIME each, one target at a time: go test -fuzz takes a
# single target per run. A failing input is written under the package's
# testdata/fuzz/ directory; commit it with the fix as a regression seed.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	FuzzTokenize:./internal/invidx \
	FuzzLikeMatch:./internal/engine \
	FuzzContainsToken:./internal/engine \
	FuzzParse:./internal/sqltext \
	FuzzTokenHits:./internal/core \
	FuzzTraversalMatchesReference:./internal/core \
	FuzzJSONOpts:./internal/report

fuzz:
	@set -e; for target in $(FUZZ_TARGETS); do \
		name=$${target%%:*}; pkg=$${target#*:}; \
		echo "fuzz $$name in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

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
# run at every worker count (suspect -> re-probe -> repair). One storm makes
# query keywords bind new relations, so readers build new per-binding cache
# entries while others read the old ones; at quiesce every output must equal
# a fresh System's. In the engine, INSERTs extend the inverted index while
# readers query the snapshots they took; at quiesce the index must equal a
# fresh build. Repeated because the interleavings that matter are
# scheduling-dependent.
chaos-writes:
	$(GO) test -race -count=3 -run 'ChaosWriteStorm|ChaosBindingStorm|RepairAcrossWorkerCounts|IndexWriteStorm' ./internal/core ./internal/engine

# The repository's one benchmark is kwsbench (named in BENCHMARK.json): four
# level-5 workloads served over HTTP through the real server stack, with
# end-to-end metrics. run.sh builds from this checkout into .bench_build/;
# call it directly to pick a workload or get the per-layer breakdown, e.g.
# bash cmd/kwsbench/run.sh --workload debug-warm --seconds 10 --trace 1.
bench:
	bash cmd/kwsbench/run.sh
