GO ?= go

.PHONY: build test race fmt vet lint verify fuzz psmd-smoke bench-obs bench-join bench-power bench-ingest bench-shard bench-selftest ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	# Concurrency layer under load: GOMAXPROCS>1 so the pools really
	# interleave even on single-core CI runners (the equivalence and
	# property tests inside force worker counts > 1).
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/pipeline ./internal/mining ./internal/experiment ./internal/serve ./internal/stream ./internal/shard ./internal/psm ./internal/power ./internal/hdl ./internal/obs

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# Layer-2 psmlint: the repo's own multi-pass go/ast+go/types driver
# runs its four code rules (float-eq, nan-guard, err-drop, map-order)
# over the whole module; any finding fails the build. Suppress a
# reviewed site with a //psmlint:ignore <rule> <reason> directive.
lint:
	$(GO) run ./cmd/psmlint code ./...

# Layer-1 psmlint sanity: the hand-corrupted fixture must fail, the clean
# one must pass (guards the verifier itself against regressions).
verify:
	@$(GO) run ./cmd/psmlint model cmd/psmlint/testdata/clean.json
	@if $(GO) run ./cmd/psmlint model cmd/psmlint/testdata/corrupt.json >/dev/null 2>&1; then \
		echo "psmlint model failed to reject the corrupt fixture"; \
		exit 1; \
	else \
		echo "cmd/psmlint/testdata/corrupt.json: rejected as expected"; \
	fi

# End-to-end daemon smoke: boot the real psmd on an ephemeral port, pipe
# a tracegen -stream capture into POST /v1/traces, assert GET /v1/model
# serves a verified model, GET /metrics accounts for every record,
# GET /v1/status reports ready with sane windowed quantiles and
# GET /debug/flight dumps a non-empty parseable recording, then SIGTERM
# and require a clean drain.
psmd-smoke:
	$(GO) run ./scripts

# Observability overhead gate: generation with the full opt-in obs stack
# attached (spans, registry, provenance) AND with psmd's always-on
# diagnostics (flight-recorder ring + windowed span histogram, no event
# writer) must each finish within 2% of the plain run's wall-clock
# floor (the opt-in arm's budget relaxes on single-core machines — see
# EXPERIMENTS.md); the plain arm is the nil fast path every untraced
# production call takes.
bench-obs:
	BENCH_OBS=1 $(GO) test -run TestObsOverheadGate -count=1 -v .

# Join-engine scaling gate: production psm.JoinCtx (the worklist join)
# must beat the pooled restart-scan oracle (internal/psm tests) by >=5x
# wall clock with strictly fewer merge evaluations and an identical model
# on the adversarial 1200-state chain set (the gate only runs under
# BENCH_JOIN=1).
bench-join:
	BENCH_JOIN=1 $(GO) test -run TestJoinScalingGate -count=1 -v ./internal/psm

# Power-kernel scaling gate: the columnar word-scan Estimator must beat
# the scalar walk (internal/power tests) by >=5x wall clock with
# bit-identical cycle traces on the 4096-element banked register file
# (the gate only runs under BENCH_POWER=1).
bench-power:
	BENCH_POWER=1 $(GO) test -run TestPowerKernelGate -count=1 -v ./internal/power

# Ingest scaling gate: the zero-copy Scanner/arena/AppendBatch path must
# beat the bufio/encoding-json Decoder + per-record Append path (kept in
# internal/stream tests) by >=2x wall clock while mining the identical
# model (the gate only runs under BENCH_INGEST=1) and logs the absolute
# records/s/core rate.
bench-ingest:
	BENCH_INGEST=1 $(GO) test -run TestIngestGate -count=1 -v ./internal/stream

# Shard scaling gate: every shard count in {1,2,4,8} must reduce the
# workload to a model deep-equal to the single-engine reference with
# zero shed batches, and at 4 shards the coordinator must beat one
# engine by >=3x wall clock (the throughput assertion needs real cores
# and is enforced when GOMAXPROCS >= 6 — see EXPERIMENTS.md).
bench-shard:
	BENCH_SHARD=1 $(GO) test -run TestShardScalingGate -count=1 -v .

# psmbench self-test: psmbench (the end-to-end and per-layer benchmark)
# is its own module, so `go test ./...` never builds it. This runs its
# tiny-scale self-test with the environment psmbench/run.sh sets, so a
# change to an API psmbench calls fails here rather than in a benchmark
# run.
BENCH_OUT := $(CURDIR)/.bench_build/psmbench
bench-selftest:
	cd psmbench && GOCACHE=$(BENCH_OUT)/gocache GOPATH=$(BENCH_OUT)/gopath \
		XDG_CONFIG_HOME=$(BENCH_OUT)/config GOFLAGS=-mod=mod \
		GOTOOLCHAIN=local GOTELEMETRY=off $(GO) test -count=1 .

# Short fuzz smoke: run each native fuzz target for a few seconds on top
# of its committed seed corpus (testdata/fuzz/). Longer sessions: raise
# FUZZTIME or run `go test -fuzz` by hand.
FUZZTIME ?= 5s
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzVCDParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/check -run '^$$' -fuzz FuzzModelJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz FuzzWireScan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzRegressionMerge -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzCriticalT -fuzztime $(FUZZTIME)
	$(GO) test ./internal/psm -run '^$$' -fuzz FuzzJoinMatchesOracle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mining -run '^$$' -fuzz FuzzMineMatchesOracle -fuzztime $(FUZZTIME)

ci: fmt vet build race lint verify fuzz psmd-smoke bench-selftest
	@echo "ci: all gates passed"
