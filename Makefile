GO ?= go

.PHONY: build vet test race alloc deps-check fuzz gen gen-drift bench bench-diff bench-smoke benchmark-smoke trace-smoke serve-smoke serve-stress chaos crash-chaos profile ci clean

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

# go vet, then the formatting gate: every Go file outside the generated
# backend (internal/compiled) must be gofmt-clean.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^internal/compiled/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# internal/bench alone runs past go test's 10-minute default under -race on
# a 2-vCPU machine; the explicit timeout lets the whole suite finish.
race:
	$(GO) test -race -timeout 30m ./...

# The allocation and pool-retention gates skip under the race detector, where
# allocation volume and sync.Pool retention mean nothing, and race above is
# the only full test pass CI makes: run them without -race (CI job). The one
# other test that skips, TestBenchDiff, is bench-diff below.
alloc:
	$(GO) test -run '^(TestServeRequestAllocationBudget|TestEngineReuseAcrossPs|TestScalarRungServesReference)$$' -v ./internal/serve
	$(GO) test -run '^(TestCheckpointSteadyStateAllocationFree|TestResetAllKeepsLayoutFreeCapacity|TestTracingAddsNoAllocations|TestAttributionAddsNoAllocations|TestBarrierHandoffAllocationFree)$$' -v ./internal/spmd
	$(GO) test -run '^TestGetOnAnotherP$$' -v ./internal/pool
	$(GO) test -run '^TestReportRoundTrip$$' -v ./internal/obs/perfhist

# Layering gate: the baseline frameworks (Ligra, GraphIt, Galois) are
# comparison systems for Fig. 4 / Table X, read only by internal/bench. The
# runtime, the serving layer and the daemon must not link them (CI job).
deps-check:
	@deps=$$($(GO) list -deps ./internal/core ./internal/serve ./cmd/egacs-serve) || exit 1; \
	if echo "$$deps" | grep -qx 'repro/internal/baselines'; then \
		echo 'deps-check: internal/core, internal/serve or cmd/egacs-serve imports repro/internal/baselines'; exit 1; \
	fi

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

# Modeled-clock performance record: the bench-diff gate below, writing its
# fresh measurement of HEAD (modeled cycles with per-class attribution,
# allocs/op and lane utilization per kernel and layout) to BENCH_11.json once
# the gate has passed. Host time is measured by the benchmark/ module
# (benchmark-smoke below).
bench:
	BENCH_OUT=$(CURDIR)/BENCH_11.json $(GO) test -count=1 -run '^TestBenchDiff$$' -v ./internal/obs/perfhist

# Drift-free regression gate: validate and replay the perfhist trajectory
# over every committed BENCH_*.json, then re-measure HEAD's deterministic
# series (modeled cycles per class, allocs/op) and fail on >2% regression
# against the last accepted report unless BENCH_ALLOWLIST.json waives the
# specific kernel/layout/metric (CI job).
bench-diff:
	$(GO) test -run '^TestBenchDiff' -v ./internal/obs/perfhist

# One-iteration pass over every benchmark in the repo: catches benchmarks that
# no longer compile or crash without paying for real measurement (CI job).
# The trailing egacs runs exercise the SELL-C-σ layout and the interpreter
# backend end to end on a dense-sweep kernel.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/egacs -bench cc -input rmat -scale test -layout sell
	$(GO) run ./cmd/egacs -bench cc -input rmat -scale test -backend interp

# The host-time benchmark (benchmark/, BENCHMARK.json) is its own module, so
# `go test ./...` never sees it: run its harness tests, then a tiny-graph
# two-pass smoke of all four workloads that checks every answer (CI job).
benchmark-smoke:
	$(GO) -C benchmark test .
	$(GO) -C benchmark run . -smoke

# End-to-end trace check: run a kernel with -trace and -attrib -, require the
# per-class and per-phase attribution tables in its output, then validate the
# written trace file against the Chrome trace-event schema (CI job).
trace-smoke:
	$(GO) run ./cmd/egacs -bench bfs-wl -input rmat -scale test \
		-trace $(CURDIR)/trace-smoke.json -metrics $(CURDIR)/trace-smoke.jsonl \
		-attrib - > $(CURDIR)/trace-smoke.txt
	@cat $(CURDIR)/trace-smoke.txt
	grep -q '^total ' $(CURDIR)/trace-smoke.txt
	grep -q '^phase ' $(CURDIR)/trace-smoke.txt
	EGACS_TRACE_FILE=$(CURDIR)/trace-smoke.json \
		$(GO) test -run '^TestTraceFileValid$$' -v ./internal/obs
	@rm -f $(CURDIR)/trace-smoke.json $(CURDIR)/trace-smoke.jsonl $(CURDIR)/trace-smoke.txt

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

# Nightly-style chaos sweep: every kernel through RunResilientVerifiedCtx under
# every corruption class at escalating rates with checkpointing and invariant
# verification on, and the execution matrix over its full product.
# EGACS_CHAOS=full widens the seed list and the matrix from the CI-sized
# defaults. Every run must end in a verified output or a typed error — never a
# panic or silent corruption.
chaos:
	EGACS_CHAOS=full $(GO) test -run '^(TestChaos|TestExecutionMatrix)$$' -v -timeout 30m ./internal/core

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

ci: vet build deps-check gen-drift race alloc bench-smoke benchmark-smoke bench-diff trace-smoke serve-smoke serve-stress

clean:
	$(GO) clean ./...
