# Same targets CI runs (.github/workflows/ci.yml), so local dev and CI
# execute identical commands.

GO ?= go

# Coverage floor (%) enforced on the cache, loader and job-service packages.
COVER_FLOOR ?= 70
COVER_PKGS  ?= internal/cache internal/loader internal/server internal/query internal/wal internal/memo internal/obs

# Scratch directory for generated build artifacts (coverage profiles, smoke
# binaries); git-ignored, removed by clean.
BUILD_DIR ?= build

.PHONY: all build test cover lint bench bench3 bench4 bench5 allocguard perfcheck profile suite speccheck querycheck servesmoke distsmoke crashsmoke memosmoke tracesmoke experiments-md clean

all: lint build test

build:
	$(GO) build ./...

# -count=2 reruns every test with a warm cache bypassed: the second run of
# the race battery gets different goroutine interleavings for free.
test:
	$(GO) test -race -count=2 ./...

# Per-package coverage floor on the cache, loader and job-service
# packages; a refactor that strands their tests fails here, not in review. Profiles land in $(BUILD_DIR), not the repo root.
cover:
	@mkdir -p $(BUILD_DIR)
	@set -e; for pkg in $(COVER_PKGS); do \
		out=$(BUILD_DIR)/cover-$$(basename $$pkg).out; \
		$(GO) test -coverprofile=$$out ./$$pkg; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p=$$pct -v f=$(COVER_FLOOR) 'BEGIN{exit !(p>=f)}' || \
			{ echo "FAIL: $$pkg below coverage floor"; exit 1; }; \
	done

lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

# One iteration of every benchmark, no unit tests: a compile-and-run smoke
# of the full reproduction harness.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Zero-allocation guards on the hot paths (steady-state cache Lookup, page
# cache churn, sim event dispatch, the trainer's per-batch producer path).
# Run WITHOUT -race: the detector allocates shadow state on paths that are
# allocation-free in normal builds, so the guards skip themselves under
# instrumentation.
allocguard:
	$(GO) test -count=1 -run 'TestAllocs' ./internal/sim ./internal/cache ./internal/pagecache ./internal/obs ./internal/trainer

# The benchmark harness is its own Go module (perfbench/), so build/test of
# ./... never compiles it; vet and self-test it here so an API change in
# the simulator cannot break it unnoticed.
perfcheck:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# CPU + allocation profiles of one serial full-suite run -> cpu.pprof,
# mem.pprof. Inspect with `go tool pprof -top cpu.pprof` (or mem.pprof
# with -sample_index=alloc_objects for allocation counts).
profile:
	$(GO) run ./cmd/stallbench -run all -parallel 1 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof mem.pprof"

# Full experiment suite, fanned across all CPUs; one run emits both the
# JSON report (for artifacts) and EXPERIMENTS.md.
suite:
	$(GO) run ./cmd/runsuite -parallel 0 -json -md EXPERIMENTS.md > suite-report.json
	@echo "wrote suite-report.json"

# Declarative-spec gate: every registry experiment expressible as a Spec is
# round-tripped through JSON marshal -> unmarshal -> run and byte-compared
# against the direct registry run, and the committed example scenario
# (testdata/specs/cache-sweep.json — a sweep that exists nowhere in compiled
# code) must load and run clean.
speccheck:
	$(GO) test -count=1 -run 'TestSpec|TestLoadSpec' ./internal/experiments
	$(GO) run ./cmd/runsuite -spec testdata/specs/cache-sweep.json > /dev/null

# Query gate: the committed example queries run against the committed
# fig18-style scenario (testdata/specs/fig18-query.json) and their NDJSON
# must be byte-identical to the goldens — same no-reblessing discipline as
# the suite goldens. Catches drift anywhere in the chain: simulation,
# case capture, report round-trip, query operators, NDJSON rendering.
querycheck:
	@mkdir -p $(BUILD_DIR)
	$(GO) run ./cmd/runsuite -spec testdata/specs/fig18-query.json -query testdata/queries/best-cache.json > $(BUILD_DIR)/best-cache.ndjson
	cmp testdata/queries/best-cache.golden $(BUILD_DIR)/best-cache.ndjson
	$(GO) run ./cmd/runsuite -spec testdata/specs/fig18-query.json -query testdata/queries/epoch-stalls.json > $(BUILD_DIR)/epoch-stalls.ndjson
	cmp testdata/queries/epoch-stalls.golden $(BUILD_DIR)/epoch-stalls.ndjson
	@echo "querycheck: example query output matches goldens"

# Job-service bench: HTTP submit->complete latency and /events fan-out
# delivery throughput at 1/4/16 concurrent subscribers, written to
# BENCH_3.json.
bench3:
	$(GO) run ./cmd/stallbench -bench3 -bench3-out BENCH_3.json

# End-to-end smoke of the HTTP job service: boot stallserved, submit the
# committed example scenario, stream its events to completion, cancel a
# second job mid-run, reconcile /metrics, and SIGTERM-drain cleanly.
servesmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/servesmoke.sh

# Coordinator-mode bench: one spec grid on a single node vs scattered
# across 1/2/4 in-process workers, every fleet report byte-checked against
# the single-node one, written to BENCH_4.json.
bench4:
	$(GO) run ./cmd/stallbench -bench4 -bench4-out BENCH_4.json

# Distributed-mode smoke: a coordinator plus two real stallserved worker
# processes run the same sweep as a single node; the scattered report —
# including one gathered while a worker is kill -9'd mid-sweep — must
# byte-match the single-node golden.
distsmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/distsmoke.sh

# Crash-safety smoke: the same sweep uninterrupted, killed at a
# deterministic WAL append (STALLWAL_CRASH self-SIGKILL), and killed -9
# untimed mid-sweep; both restarts must resume from the WAL and serve
# /v1/query bytes identical to the uninterrupted golden.
crashsmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/crashsmoke.sh

# Memoization smoke: runsuite runs three experiments cold then warm against
# one cache directory (warm must simulate nothing, report byte-identical),
# a stallserved on the CLI-warmed directory must serve the same spec purely
# from disk (shared on-disk format), and a corrupted entry must degrade to
# a counted miss with unchanged output.
memosmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/memosmoke.sh

# Tracing smoke: boot stallserved with -trace-dir, run fig5 twice, and
# require the served Chrome trace to validate strictly, agree with the
# on-disk dump, and — timestamps stripped — byte-match itself across reruns
# and the committed golden (testdata/traces/fig5-topology.golden).
tracesmoke:
	BUILD_DIR=$(BUILD_DIR) ./scripts/tracesmoke.sh

# Memoization bench: cold-vs-warm suite wall and a 100-case sweep against a
# 90%-primed cache vs a single case, written to BENCH_5.json.
bench5:
	$(GO) run ./cmd/stallbench -bench5 -bench5-out BENCH_5.json

experiments-md:
	$(GO) run ./cmd/runsuite -md EXPERIMENTS.md

clean:
	rm -f suite-report.json cover-*.out cpu.pprof mem.pprof
	rm -rf $(BUILD_DIR)
