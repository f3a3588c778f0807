GO ?= go

.PHONY: build vet test race race-parallel fuzz gen gen-drift bench bench-diff bench-smoke benchmark-smoke trace-smoke serve-smoke serve-stress serve-load chaos crash-chaos profile ci clean

build:
	$(GO) build ./...

# Regenerate the checked-in compiled kernel backend (internal/compiled) from
# the kernel IR. Run after touching kernel programs, the IR lowering, or the
# generator itself, and commit the result; gen-drift gates it in CI.
gen:
	$(GO) generate ./...

# Drift gate: the committed generated sources must match what the generator
# emits from the current tree (CI job).
gen-drift: gen
	git diff --exit-code -- internal/compiled

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-check the scheduler and staging layers — and the generated kernel
# backend, which drives the same deferred merge machinery — with parallel
# host execution forced on for every engine the tests construct. (The scalar
# baselines in internal/baselines assume serial-immediate semantics and are
# NOT covered by this override; see DESIGN.md.)
race-parallel:
	EGACS_HOST_EXEC=parallel $(GO) test -race ./internal/spmd/... ./internal/worklist/...
	EGACS_HOST_EXEC=parallel $(GO) test -race ./internal/compiled/... ./internal/codegen/...

# Short fuzz pass over the graph readers, the service request decoder, the
# interp-vs-compiled backend differential (random graph/kernel/config draws
# must stay bit-identical across backends), and the mutation delta log
# (random op streams through Apply/Compact/WAL round-trip must fold
# identically and recover from arbitrary truncation), and the cache model's
# sparse Snapshot/Restore/Reset against a full-copy oracle.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadDIMACS$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaLog$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzBackendDifferential$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMemModelSync$$' -fuzztime 10s ./internal/machine

# Wall-clock cooperative-vs-parallel comparison per kernel and graph layout
# (csr vs forced sell where the layout applies), with allocation stats,
# observability annotations (lane utilization — overall and SELL-dense-path
# only — L1 hit rate, padding overhead, fallback ratio) and recovery counters
# from one instrumented checkpointing run; writes BENCH_9.json (schema v2:
# per-row cycle_attribution class totals that re-fold to modeled_cycles
# bit-exactly) with per-kernel interp-vs-compiled backend wall columns and
# their geomean, the per-family CSR-vs-SELL modeled-cycles geomeans in the
# note, the ns/op delta against the BENCH_9.json baseline, and validates the
# written report against the bench schema. The second step runs the
# streaming-mutation experiment at small scale and folds its headline numbers
# (query p99 under sustained mutation vs static, update throughput) into the
# report as the schema-v3 mutation section.
bench:
	BENCH_OUT=$(CURDIR)/BENCH_10.json BENCH_BASELINE=$(CURDIR)/BENCH_9.json \
		$(GO) test -run '^$$' -bench '^BenchmarkHostExec$$' -benchtime 3x -benchmem .
	BENCH_MUTATE_OUT=$(CURDIR)/BENCH_10.json \
		$(GO) test -run '^TestMutateBench$$' -v -timeout 20m ./internal/bench
	EGACS_BENCH_FILE=$(CURDIR)/BENCH_10.json \
		$(GO) test -run '^TestValidateBenchFile$$' -v ./internal/obs

# Drift-free regression gate: replay the perfhist trajectory over every
# committed BENCH_*.json, then re-measure HEAD's deterministic series
# (modeled cycles per class, allocs/op) and fail on >2% regression against
# the last accepted report unless BENCH_ALLOWLIST.json waives the specific
# kernel/layout/metric (CI job).
bench-diff:
	$(GO) test -run '^TestBenchDiff' -v ./internal/obs/perfhist

# One-iteration pass over every benchmark in the repo: catches benchmarks that
# no longer compile or crash without paying for real measurement (CI job).
# The trailing egacs run exercises the SELL-C-σ layout end to end on a
# dense-sweep kernel and validates the committed bench report's schema.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/egacs -bench cc -input rmat -scale test -layout sell
	$(GO) run ./cmd/egacs -bench cc -input rmat -scale test -backend interp
	EGACS_BENCH_FILE=$(CURDIR)/BENCH_10.json \
		$(GO) test -run '^TestValidateBenchFile$$' ./internal/obs

# The host-time benchmark (benchmark/, BENCHMARK.json) is its own module, so
# `go test ./...` never sees it: run its harness tests, then a tiny-graph
# two-pass smoke of all four workloads that checks every answer (CI job).
benchmark-smoke:
	$(GO) -C benchmark test .
	$(GO) -C benchmark run . -smoke

# End-to-end trace check: run a kernel with -trace, then validate the written
# file against the Chrome trace-event schema (CI job).
trace-smoke:
	$(GO) run ./cmd/egacs -bench bfs-wl -input rmat -scale test \
		-trace $(CURDIR)/trace-smoke.json -metrics $(CURDIR)/trace-smoke.jsonl
	EGACS_TRACE_FILE=$(CURDIR)/trace-smoke.json \
		$(GO) test -run '^TestTraceFileValid$$' -v ./internal/obs
	@rm -f $(CURDIR)/trace-smoke.json $(CURDIR)/trace-smoke.jsonl

# End-to-end daemon check: build the real egacs-serve binary, boot it on an
# ephemeral port with fault injection armed, hit it from concurrent clients
# with mixed query kinds, then SIGTERM it and require a clean graceful drain
# (CI job).
serve-smoke:
	$(GO) test -run '^TestServeSmoke$$' -v ./cmd/egacs-serve

# Scheduling-sensitivity lane for the daemon's lifecycle tests (drain,
# admission, snapshot swaps): repeat them on 1, 2 and 4 Ps so an ordering a
# test merely hopes for — a goroutine "started" before Drain runs — fails
# here instead of once a month on a one-CPU runner (CI job).
serve-stress:
	$(GO) test -count=50 -cpu 1,2,4 -timeout 30m ./internal/serve ./cmd/egacs-serve

# Chaos-load harness against the in-process server: concurrent tenants with
# fault injection armed plus a synchronized overload burst; asserts zero
# panics, zero silent corruption and correct 429/503 backpressure, and writes
# QPS/p50/p99 to BENCH_6.json.
serve-load:
	BENCH_SERVE_OUT=$(CURDIR)/BENCH_6.json \
		$(GO) test -run '^TestChaosLoad$$' -v ./internal/serve

# Nightly-style chaos sweep: every kernel through RunResilientVerified under
# every corruption class at escalating rates with checkpointing and invariant
# verification on. EGACS_CHAOS=full widens the seed list from the CI-sized
# default. Every run must end in a verified output or a typed error — never a
# panic or silent corruption.
chaos:
	EGACS_CHAOS=full $(GO) test -run '^TestChaos$$' -v -timeout 30m ./internal/core

# Kill-anywhere crash-recovery harness: for every named point of the mutation
# pipeline (WAL append, apply, compaction build/persist, snapshot rename,
# segment rotate/prune, epoch swap) boot the real daemon, SIGKILL it there
# mid-stream, restart on the same WAL directory, and require the recovered
# graph to be bit-identical to replaying an acked-or-longer prefix of the
# exact batches sent (nightly CI job).
crash-chaos:
	$(GO) test -run '^TestCrashRecoveryAnywhere$$' -v -timeout 20m ./cmd/egacs-serve

# CPU+heap profile of the flagship kernel under the parallel scheduler.
profile:
	$(GO) run ./cmd/egacs -bench bfs-wl -input rmat -scale bench \
		-cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

ci: vet build gen-drift race race-parallel bench-smoke benchmark-smoke bench-diff trace-smoke serve-smoke serve-stress

clean:
	$(GO) clean ./...
