# U-Net simulation repo. Tier-1 verification is `make check`; `make bench`
# is the PR performance gate (tier-1 + race + benchmarks + $(BENCH_OUT));
# `make lint` runs the determinism lint suite (DESIGN.md §9); `make ci`
# mirrors the GitHub Actions workflow.

GO ?= go
# PR numbers this change's artifacts. BENCH_PR$(PR).json is the committed
# set of paired `go run ./bench -out` ledgers; `make bench` writes the
# go-test rung summary beside it.
PR ?= 15
BENCH_OUT ?= BENCH_PR$(PR)_rungs.json
FUZZTIME ?= 10s

# Pinned external linter versions (kept in sync with .github/workflows/ci.yml).
STATICCHECK_VERSION = 2025.1.1
GOVULNCHECK_VERSION = v1.1.4

.PHONY: all build check test loc race raceshards shardcheck alloccheck serve chaos clos gossip lint lint-extra fuzz bench benchcheck ci clean

all: build

build:
	$(GO) build ./...

check: build test

test:
	$(GO) test ./...

# loc prints the ROADMAP's size measure — non-test Go outside bench/ and
# testdata — so every simplicity PR reports the same number.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l

race:
	$(GO) test -race ./internal/sim/...
	$(GO) test -race ./internal/fabric/...
	$(GO) test -race ./internal/topo/...
	$(GO) test -race ./internal/nic/...
	GOMAXPROCS=4 $(GO) test -race -run 'Golden' ./internal/experiments/

# raceshards is the dedicated shard-sweep race job: the window protocol
# (SPSC rings, published clocks, quiescence scan, per-pair lookahead,
# parking, fast-forward) and the tie tests (TestShardSameTimestamp…,
# TestShardedTie…: 200 sharded trials each against the serial run) under
# the race detector with real parallelism pinned at GOMAXPROCS=4;
# internal/topo holds the sharded-star and sharded-Clos serial-equivalence
# tests.
raceshards:
	GOMAXPROCS=4 $(GO) test -race -run 'TestShard|TestSPSC|TestCrossLink' ./internal/sim/ ./internal/fabric/ ./internal/topo/ ./internal/testbed/
	GOMAXPROCS=4 $(GO) test -race -run 'TestGoldenShardSweep|TestGoldenSyncSweep|TestGoldenFaultDeterminism' ./internal/experiments/

shardcheck:
	GOMAXPROCS=4 $(GO) test -run 'TestGoldenShardSweep|TestGoldenSyncSweep' ./internal/experiments/
	$(GO) test -run 'TestSharded' ./internal/testbed/

# alloccheck proves the steady-state data path allocates nothing per
# message (DESIGN.md §10): raw echo (single-cell and buffered) and the UAM
# round trip, measured with testing.AllocsPerRun.
alloccheck:
	$(GO) test -run 'TestSteadyStateAllocs' -v ./internal/experiments/

# serve is the scheduler + serving-workload smoke: the wheel against its
# heap-only twin on a schedule/cancel/timed-wait workload, the wheel
# edge-case suite, the scheduler steady-state allocation gate, and the
# shard-identity gate and saturation-knee calibration of the open-loop
# serve experiment (DESIGN.md §12).
serve:
	$(GO) test -run 'TestWheel|TestAfterZero|TestSchedulerDifferentialFiringOrder|TestSchedulerSteadyStateAllocs' ./internal/sim/
	$(GO) test -run 'TestServe' -v ./internal/experiments/

# chaos runs the deterministic fault-injection gates (DESIGN.md §11): the
# seeded loss sweep and chaos soak must render byte-identically at every
# shard count, the reliable layers must deliver 100% under ≤1% cell loss
# with bounded retransmissions, and the seeded-loss protocol goldens must
# recover identically at shards 1/2/4.
chaos:
	GOMAXPROCS=4 $(GO) test -run 'TestGoldenFaultDeterminism|TestLossRecoveryDelivery' -v ./internal/experiments/
	$(GO) test -run 'TestSeededLossNthCellGolden|TestDeadPeerFailsInBoundedTime' ./internal/uam/ ./internal/ip/tcp/

# clos is the multi-switch fabric smoke (DESIGN.md §14): the Clos storm
# goldens must render byte-identically serial vs shards 1/2/4/8, and the
# CLI path across a 64-host two-stage Clos must finish with zero queue
# drops and zero undelivered cells.
clos:
	GOMAXPROCS=4 $(GO) test -run 'TestGoldenTopoSweep' -v ./internal/experiments/
	$(GO) run ./cmd/unetbench -experiment clos -topo clos2 -racks 8 -perrack 8 -spine 2 -shards 4 -count 4

# gossip is the 1k-endpoint island-overlay smoke: bounded per-island
# forwarding queues, deterministic failed-neighbor removal under seeded
# uplink flaps, identical renders serial vs sharded; set-up bytes linear in
# the islands, and the 8192-island overlay end to end (~11 s, ~300 MB —
# what the size costs when labels are link-local, DESIGN.md §14).
gossip:
	GOMAXPROCS=4 $(GO) test -run 'TestGossipDeterministic|TestGossipMemoryIsLinear' -v ./internal/experiments/
	$(GO) run ./cmd/unetbench -experiment gossip -islands 256 -shards 4
	$(GO) run ./cmd/unetbench -experiment gossip -islands 8192

# lint runs go vet plus unetlint, the repo's own determinism analyzers
# (nondeterminism, rawgo, mapiter, costcharge, seedflow, hotpathalloc —
# see DESIGN.md §9, §13). The analyzers fan out over GOMAXPROCS workers by
# default; `go build` first warms the build cache so
# hotpathalloc's -gcflags=-m extraction replays compiler diagnostics
# instead of recompiling, and -stale fails the build on //unetlint:allow
# directives that no longer suppress anything. gofmt -l must print nothing.
lint: build
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/unetlint -stale ./...

# lint-extra adds the external linters when they are installed (CI installs
# them at the pinned versions above; locally they are optional).
lint-extra: lint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; \
	fi

# fuzz gives each AAL5/wire fuzz target a short deterministic-budget run
# (the seed corpus always runs as part of `make test`).
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzAAL5RoundTrip' -fuzztime $(FUZZTIME) ./internal/atm/
	$(GO) test -run '^$$' -fuzz 'FuzzCellHeader' -fuzztime $(FUZZTIME) ./internal/atm/

ci: build
	$(MAKE) lint
	$(GO) test ./...
	$(MAKE) race
	$(MAKE) raceshards
	$(MAKE) shardcheck
	$(MAKE) alloccheck
	$(MAKE) serve
	$(MAKE) chaos
	$(MAKE) clos
	$(MAKE) gossip

bench:
	sh scripts/bench.sh $(BENCH_OUT)

# benchcheck compares two ledgers written by `go run ./bench -out` (one run
# each, or several concatenated for paired runs; see bench/README.md):
# make benchcheck OLD=old.json NEW=new.json. Exit 1 on a regression.
benchcheck:
	$(GO) run ./bench -compare $(OLD) $(NEW)

clean:
	rm -f $(BENCH_OUT) $(BENCH_OUT:.json=.txt)
