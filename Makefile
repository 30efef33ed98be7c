# U-Net simulation repo. Tier-1 verification is `make check`; `make ci` is
# the whole gate and what the GitHub Actions workflow runs, job by job;
# `make lint` runs the determinism lint suite (DESIGN.md §9). Host speed is
# `go run ./bench` (bench/README.md), compared with `make benchcheck`.

GO ?= go
FUZZTIME ?= 10s
EXAMPLES = quickstart activemsg multiservice splitsort tcpecho

# Pinned external linter versions (`make lint-tools` installs them).
STATICCHECK_VERSION = 2025.1.1
GOVULNCHECK_VERSION = v1.1.4

.PHONY: all build check test loc race smoke traffic lint lint-tools lint-extra fuzz benchcheck ci replay

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
# keep in step with the tests. The timeout is go test's default tripled:
# internal/experiments takes more than the default 10 minutes under the
# race detector on two vCPUs (ROADMAP item 0).
race:
	GOMAXPROCS=4 $(GO) test -race -timeout 30m ./...

# smoke drives the CLI where no test does: a 64-host two-stage Clos storm
# on four shards (zero queue drops, zero undelivered cells), the island
# gossip sharded, and the 8192-island overlay end to end (~15 s and ~155 MB
# peak on 2 vCPUs — what the size costs with link-local labels, label
# tables that span only the labels in use and segments resident on use,
# DESIGN.md §14 and §10). Then the README's examples, which no test runs:
# each twice, and the two outputs must be the same bytes.
smoke:
	$(GO) run ./cmd/unetbench -experiment clos -topo clos2 -racks 8 -perrack 8 -spine 2 -shards 4 -count 4
	$(GO) run ./cmd/unetbench -experiment gossip -islands 256 -shards 4
	$(GO) run ./cmd/unetbench -experiment gossip -islands 8192
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for e in $(EXAMPLES); do \
		echo "examples/$$e, twice"; \
		$(GO) run ./examples/$$e > "$$tmp/1" && $(GO) run ./examples/$$e > "$$tmp/2" && cmp "$$tmp/1" "$$tmp/2" || exit 1; \
	done

# traffic holds the functions no run of the program reaches to the list in
# testdata/unreached.txt, which a change may only shorten. It builds the CLI
# and the examples with coverage over the whole module, runs every distinct
# fenced `go run ./cmd/unetbench` line of README.md and EXPERIMENTS.md (the
# lines TestDocumentedCommandsParse parses) and each example once into one
# GOCOVERDIR, and keys every function that read 0.0 %, the lint and its CLI
# aside, by file and name. It exits 1 with the difference when a function
# reads 0.0 % and is not on the list (+) or is on the list and now runs (-).
# A listed name is production code that only tests call, or a path only an
# outside input reaches; its line says which. It takes 7-8 minutes on two
# vCPUs, most of them the `-experiment fig5 -paper` line.
UNREACHED = testdata/unreached.txt
traffic:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/cov"; \
	for p in cmd/unetbench $(EXAMPLES:%=examples/%); do \
		$(GO) build -cover -coverpkg=unet/... -o "$$tmp/$${p##*/}" ./$$p || exit 1; \
	done; \
	export GOCOVERDIR="$$tmp/cov"; \
	awk '/^[[:space:]]*```/ { f = !f; next } \
		f && sub(/^[[:space:]]*go run \.\/cmd\/unetbench/, "") { sub(/#.*/, ""); sub(/[[:space:]]+$$/, ""); print }' \
		README.md EXPERIMENTS.md | sort -u > "$$tmp/lines"; \
	while read -r args; do \
		echo "unetbench $$args"; "$$tmp/unetbench" $$args > /dev/null || exit 1; \
	done < "$$tmp/lines"; \
	for e in $(EXAMPLES); do echo "$$e"; "$$tmp/$$e" > /dev/null || exit 1; done; \
	$(GO) tool covdata func -i "$$tmp/cov" | \
		awk '$$NF == "0.0%" && $$1 !~ /\/(internal\/lint|cmd\/unetlint)\// { sub(/^unet\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' | \
		sort -u > "$$tmp/got"; \
	awk '!/^#/ && NF && !/#[[:space:]]*[^[:space:]]/ { print FILENAME ": no reason: " $$0; bad = 1 } END { exit bad }' $(UNREACHED) || exit 1; \
	awk '!/^#/ && NF { print $$1, $$2 }' $(UNREACHED) | sort -u > "$$tmp/want"; \
	if ! cmp -s "$$tmp/want" "$$tmp/got"; then \
		echo "$(UNREACHED) is out of date: + unreached and not listed, - listed and now reached"; \
		comm -13 "$$tmp/want" "$$tmp/got" | sed 's/^/+ /'; \
		comm -23 "$$tmp/want" "$$tmp/got" | sed 's/^/- /'; \
		exit 1; \
	fi; \
	echo "traffic: $$(wc -l < "$$tmp/got") unreached functions, all listed in $(UNREACHED)"

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

# fuzz gives each AAL5/wire fuzz target, the event-queue order target and
# the NIC's train-intake target a short deterministic-budget run (the seed
# corpus always runs as part of `make test`).
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzAAL5RoundTrip' -fuzztime $(FUZZTIME) ./internal/atm/
	$(GO) test -run '^$$' -fuzz 'FuzzCellHeader' -fuzztime $(FUZZTIME) ./internal/atm/
	$(GO) test -run '^$$' -fuzz 'FuzzSegmentParts' -fuzztime $(FUZZTIME) ./internal/atm/
	$(GO) test -run '^$$' -fuzz 'FuzzEventOrder' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz 'FuzzTrainIntake' -fuzztime $(FUZZTIME) ./internal/nic/

ci: lint test race smoke traffic fuzz

# benchcheck compares two ledgers written by `go run ./bench -out` (one run
# each, or several concatenated for paired runs; see bench/README.md):
# make benchcheck OLD=old.json NEW=new.json. Exit 1 on a regression.
benchcheck:
	$(GO) run ./bench -compare $(OLD) $(NEW)

# replay measures revisions of this tree side by side on bench's one-workload
# protocol, so what a run of commits did is read in one sitting:
# make replay REVS="a b" PAIRS=5 SECONDS=3. It git-archives each revision
# into a temporary directory, builds ./bench there with -trimpath (the module
# has no dependencies, so old trees build offline, and one commit named twice
# builds one binary twice over) and runs `bench -workload W -seconds S -trace
# 0` for each revision PAIRS times a workload. A pair runs the revisions in
# order and then in reverse (A B B A), and a revision's value in the pair is
# the mean of its two runs, so a run-order effect cancels within every pair
# whatever PAIRS is. Per workload and end-to-end metric it prints each
# revision's median over the pairs and interquartile spread (as a share of the
# median), every later revision's change from the first and the pairs it did
# better in, and whether the change lies inside the metric's BENCHMARK.json
# bound or beyond it, better or WORSE. A row whose first revision spreads
# wider than the bound reads "unresolved": its runs cannot tell a change of
# the bound's size from noise. A revision replayed against itself reads
# "inside" or "unresolved" on every row. Beside each verdict it prints the
# mean per-pair log ratio of the later revision to the first, as a percent,
# its 95 % interval (Student's t over the pairs) and the pairs a sitting of
# this spread needs to resolve a change of that size, n >= (2 sd / mean)^2:
# a change is resolved when its interval excludes zero. Not in ci: six workloads take PAIRS
# x revisions x 2 x ~6 s.
REVS ?= HEAD HEAD
PAIRS ?= 5
SECONDS ?= 3
replay:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; n=0; names=; \
	for r in $(REVS); do \
		n=$$((n + 1)); mkdir "$$tmp/$$n"; names="$$names $$(git rev-parse --short "$$r")" || exit 1; \
		git archive "$$r" | tar -x -C "$$tmp/$$n" && (cd "$$tmp/$$n" && $(GO) build -trimpath -o bench.bin ./bench) || exit 1; \
	done; \
	for w in $$(awk -F'"' '/"why"/ { print $$4 }' BENCHMARK.json); do \
		for p in $$(seq $(PAIRS)); do \
			for k in $$(seq $$n) $$(seq $$n -1 1); do \
				echo "replay: $$w pair $$p revision $$k" >&2; \
				line="$$(cd "$$tmp/$$k" && ./bench.bin -workload $$w -seconds $(SECONDS) -trace 0 2>/dev/null | tail -n 1)"; \
				case "$$line" in '{"correct":true'*) ;; *) echo "replay: $$w on revision $$k failed: $$line"; exit 1;; esac; \
				echo "$$w $$p $$k $$line" >> "$$tmp/runs"; \
			done; \
		done; \
	done; \
	awk -v revs="$$names" -v pairs=$(PAIRS) ' \
		function quantile(w, m, k, q,   a, i, j, x, h) { \
			for (i = 1; i <= pairs; i++) { \
				x = val[w, m, k, i]; \
				for (j = i; j > 1 && a[j - 1] > x; j--) a[j] = a[j - 1]; \
				a[j] = x; \
			} \
			h = (pairs - 1) * q + 1; i = int(h); \
			return i < pairs ? a[i] + (h - i) * (a[i + 1] - a[i]) : a[pairs]; \
		} \
		function median(w, m, k) { return quantile(w, m, k, 0.5) } \
		function spread(w, m, k) { return (quantile(w, m, k, 0.75) - quantile(w, m, k, 0.25)) / median(w, m, k) } \
		FNR == NR { if ($$0 ~ /"bound"/) { split($$0, f, "\""); b = $$0; sub(/.*"bound": */, "", b); bound[f[4]] = b + 0; lower[f[4]] = f[12] == "lower" } next } \
		{ \
			if (!(($$1) in seen)) { seen[$$1] = 1; order[++nw] = $$1 } \
			for (i = 1; i <= nm; i++) { \
				m = metric[i]; match($$4, "\"" m "\":\\{\"value\":[^,}]*"); \
				val[$$1, m, $$3, $$2] += (substr($$4, RSTART + length(m) + 12, RLENGTH - length(m) - 12) + 0) / 2; \
			} \
		} \
		BEGIN { \
			nm = split("setup_s msgs_per_s alloc_mb peak_rss_mb", metric, " "); nr = split(revs, rev, " "); \
			nt = split("12.706 4.303 3.182 2.776 2.571 2.447 2.365 2.306 2.262 2.228 2.201 2.179 2.160 2.145 2.131 2.120 2.110 2.101 2.093 2.086", tq, " "); \
		} \
		END { \
			printf "%-14s %-12s", "workload", "metric"; \
			for (k = 1; k <= nr; k++) printf " %14s %6s", rev[k], "iqr"; \
			for (k = 2; k <= nr; k++) printf " %9s %5s %10s %8s %17s %6s", "change", "won", "bound", "log", "95% interval", "pairs"; \
			print ""; \
			for (o = 1; o <= nw; o++) for (i = 1; i <= nm; i++) { \
				w = order[o]; m = metric[i]; base = median(w, m, 1); \
				printf "%-14s %-12s", w, m; \
				for (k = 1; k <= nr; k++) printf " %14.6g %5.1f%%", median(w, m, k), 100 * spread(w, m, k); \
				for (k = 2; k <= nr; k++) { \
					c = median(w, m, k) / base - 1; won = 0; \
					for (p = 1; p <= pairs; p++) won += lower[m] ? val[w, m, k, p] < val[w, m, 1, p] : val[w, m, k, p] > val[w, m, 1, p]; \
					v = spread(w, m, 1) > bound[m] ? "unresolved" : c <= bound[m] && -c <= bound[m] ? "inside" : (c < 0) == lower[m] ? "better" : "WORSE"; \
					printf " %+8.1f%% %2d/%-2d %10s", 100 * c, won, pairs, v; \
					s1 = s2 = 0; \
					for (p = 1; p <= pairs; p++) { \
						if (val[w, m, k, p] <= 0 || val[w, m, 1, p] <= 0) break; \
						lr[p] = log(val[w, m, k, p] / val[w, m, 1, p]); s1 += lr[p]; \
					} \
					if (p <= pairs || pairs < 2) { printf " %8s %17s %6s", "-", "-", "-"; continue } \
					mu = s1 / pairs; for (p = 1; p <= pairs; p++) s2 += (lr[p] - mu) ^ 2; \
					sd = sqrt(s2 / (pairs - 1)); h = (pairs - 1 <= nt ? tq[pairs - 1] : 1.96) * sd / sqrt(pairs); \
					need = mu == 0 ? "-" : 4 * sd * sd / (mu * mu); \
					if (need != "-") need = need == int(need) ? need : int(need) + 1; \
					printf " %+7.1f%% [%+6.1f,%+6.1f]%% %6s", 100 * mu, 100 * (mu - h), 100 * (mu + h), need; \
				} \
				print ""; \
			} \
		}' BENCHMARK.json "$$tmp/runs"
