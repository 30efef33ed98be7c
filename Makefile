# U-Net simulation repo. Tier-1 verification is `make check`; `make ci` is
# the whole gate and what the GitHub Actions workflow runs, job by job;
# `make lint` runs the determinism lint suite (DESIGN.md §9). Host speed is
# `go run ./bench` (bench/README.md), compared with `make benchcheck`.

GO ?= go
FUZZTIME ?= 10s

# Pinned external linter versions (`make lint-tools` installs them).
STATICCHECK_VERSION = 2025.1.1
GOVULNCHECK_VERSION = v1.1.4

.PHONY: all build check test loc race smoke lint lint-tools lint-extra fuzz benchcheck ci

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

# race is every test under the race detector with real parallelism pinned
# at GOMAXPROCS=4: the shard window protocol (SPSC rings, published clocks,
# quiescence scan, parking, fast-forward), the tie tests and the table-wide
# goldens at shards 1/2/4 among them. There is no package or -run list to
# keep in step with the tests.
race:
	GOMAXPROCS=4 $(GO) test -race ./...

# smoke drives the CLI where no test does: a 64-host two-stage Clos storm
# on four shards (zero queue drops, zero undelivered cells), the island
# gossip sharded, and the 8192-island overlay end to end (~9 s, ~215 MB —
# what the size costs when labels are link-local and segments resident on
# use, DESIGN.md §14 and §10). Then the README's examples, which no test
# runs: each twice, and the two outputs must be the same bytes (the Split-C
# sample sort's were not, until PR 18).
smoke:
	$(GO) run ./cmd/unetbench -experiment clos -topo clos2 -racks 8 -perrack 8 -spine 2 -shards 4 -count 4
	$(GO) run ./cmd/unetbench -experiment gossip -islands 256 -shards 4
	$(GO) run ./cmd/unetbench -experiment gossip -islands 8192
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for e in quickstart activemsg multiservice splitsort tcpecho; do \
		echo "examples/$$e, twice"; \
		$(GO) run ./examples/$$e > "$$tmp/1" && $(GO) run ./examples/$$e > "$$tmp/2" && cmp "$$tmp/1" "$$tmp/2" || exit 1; \
	done

# lint runs go vet plus unetlint, the repo's own determinism analyzers
# (nondeterminism, rawgo, mapiter, costcharge, hotpathalloc —
# see DESIGN.md §9, §13). The analyzers fan out over GOMAXPROCS workers;
# `go build` first warms the build cache so hotpathalloc's -gcflags=-m
# extraction replays compiler diagnostics instead of recompiling, and
# -stale fails the build on //unetlint:allow directives that no longer
# suppress anything. gofmt -l must print nothing.
lint: build
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt -l:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/unetlint -stale ./...

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# lint-extra adds the external linters when they are installed (CI installs
# them with lint-tools; locally they are optional).
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

ci: lint test race smoke fuzz

# benchcheck compares two ledgers written by `go run ./bench -out` (one run
# each, or several concatenated for paired runs; see bench/README.md):
# make benchcheck OLD=old.json NEW=new.json. Exit 1 on a regression.
benchcheck:
	$(GO) run ./bench -compare $(OLD) $(NEW)
