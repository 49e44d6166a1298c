# Pre-PR verification gate. `make verify` must pass before any change is
# merged: formatting, go vet, build, the full test suite under the race
# detector, the Table I search-equivalence digest (which the race run
# skips), and the repository's own static-analysis suite (reschedvet),
# which enforces the scheduler determinism invariants documented in README.md.

GO ?= go

.PHONY: verify fmt-check vet build test race digest reschedvet solvecheck bench bench-all benchcmp fuzz obs-smoke serve-smoke serve-bench online-smoke

verify: fmt-check vet build race digest reschedvet solvecheck
	@echo "verify: all gates passed"

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# digest runs the golden digest of the Table I searches (PA, PA-R, IS-1,
# IS-5 on the first suite graphs) without the race detector. The race run
# skips it: its solves are single-goroutine, so -race finds nothing there
# and makes it twenty times slower.
digest:
	$(GO) test -count=1 -run '^TestSuiteGoldenDigest$$' .

reschedvet:
	$(GO) run ./cmd/reschedvet ./...

# solvecheck re-runs just the solver-dispatch analyzer as its own gate: no
# package outside the solve adapters may assemble cross-cutting option
# structs for more than one algorithm (drivers go through solve.Get).
solvecheck:
	$(GO) run ./cmd/reschedvet -analyzers solvecheck ./...

# fuzz runs each native fuzz target for a short budget (override with
# FUZZTIME=5s for a CI smoke). The checked-in seed corpora under
# testdata/fuzz also execute during the plain test suite, so regressions on
# known inputs are caught without this target.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoadGraphJSON -fuzztime $(FUZZTIME) ./internal/taskgraph
	$(GO) test -run '^$$' -fuzz FuzzCheckSchedule -fuzztime $(FUZZTIME) ./internal/schedule

# bench runs the Table I suite (plus the PA-R worker-scaling benchmarks,
# the nil-trace overhead guard, and the floorplanner and IS-k window
# layer benchmarks, among them a floorplan query that runs to the node
# cap) and records it as structured JSON, the file successive PRs diff to
# track scheduler performance over time. GOMAXPROCS is pinned
# to 2 with -cpu; cmd/benchjson reads it back from the -2 name suffixes and
# states it in the JSON.
BENCH_RE = BenchmarkTable1|BenchmarkPAR|BenchmarkPAParallelInstances|BenchmarkNilTrace|BenchmarkCache|BenchmarkOnline|BenchmarkFloorplanSolvePA|BenchmarkFloorplanSolveCapped|BenchmarkISKWindow
BENCH_PKGS = . ./internal/isk
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -cpu 2 $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -o BENCH_table1.json

# benchcmp is the regression gate: re-run the bench suite into a scratch
# file and compare it against the committed baseline. Any benchmark more
# than 15% worse on ns/op or allocs/op fails the target (tune with
# THRESHOLD=...). Run it before a PR; refresh the baseline with `make
# bench` when a regression is intentional and explained in the PR.
THRESHOLD ?= 15
benchcmp:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -cpu 2 $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -o /tmp/BENCH_new.json
	$(GO) run ./cmd/benchjson -compare -threshold $(THRESHOLD) BENCH_table1.json /tmp/BENCH_new.json

bench-all:
	$(GO) test -bench=. -benchmem

# obs-smoke exercises the full observability export surface end-to-end:
# one traced pasched run writing all three artefacts, then a sanity pass
# over them (valid JSON, the expected top-level keys, a non-empty trace).
# Artefacts land in OBS_SMOKE_DIR (default obs-smoke/, gitignored) so CI
# can upload them.
OBS_SMOKE_DIR ?= obs-smoke
obs-smoke:
	mkdir -p $(OBS_SMOKE_DIR)
	$(GO) run ./cmd/pasched -graph examples/graphs/tg60.json -algo par \
		-budget 0 -iterations 25 -workers 1 -seed 1 \
		-trace $(OBS_SMOKE_DIR)/trace.json \
		-metrics $(OBS_SMOKE_DIR)/metrics.json \
		-events $(OBS_SMOKE_DIR)/events.json > $(OBS_SMOKE_DIR)/schedule.txt
	$(GO) run ./cmd/obscheck $(OBS_SMOKE_DIR)/trace.json $(OBS_SMOKE_DIR)/metrics.json $(OBS_SMOKE_DIR)/events.json
	@echo "obs-smoke: artefacts in $(OBS_SMOKE_DIR)/"

# serve-smoke exercises the serving tier end-to-end: paschedd with a
# deterministic fault profile, the seeded load generator against it, a
# SIGTERM graceful drain, and obscheck over the flushed artefacts (see
# scripts/serve_smoke.sh). Artefacts land in SERVE_SMOKE_DIR (default
# serve-smoke/, gitignored) so CI can upload them.
SERVE_SMOKE_DIR ?= serve-smoke
serve-smoke:
	SERVE_SMOKE_DIR=$(SERVE_SMOKE_DIR) GO=$(GO) sh scripts/serve_smoke.sh

# online-smoke exercises the rolling-horizon engine end-to-end: a seeded
# arrival trace replayed through cmd/paschedsim with the prefetch-vs-baseline
# comparison, the stitched schedule verified (Check + sim replay inside the
# tool), and the flushed artefacts validated by obscheck, which requires the
# online.epochs and online.prefetch_hits counters to be live. The daemon's
# session mode is exercised by serve-smoke (paschedsim -daemon-addr-file).
ONLINE_SMOKE_DIR ?= online-smoke
online-smoke:
	mkdir -p $(ONLINE_SMOKE_DIR)
	$(GO) run ./cmd/paschedsim -seed 3 -jobs 4 -tasks 8 -mean-gap 800 -comm-max 30 \
		-compare -fault-late-arrival 1 -fault-late-delay 1500 \
		-trace $(ONLINE_SMOKE_DIR)/trace.json \
		-metrics $(ONLINE_SMOKE_DIR)/metrics.json \
		-events $(ONLINE_SMOKE_DIR)/events.json > $(ONLINE_SMOKE_DIR)/run.txt
	$(GO) run ./cmd/obscheck -require-counters online.epochs,online.prefetch_hits \
		$(ONLINE_SMOKE_DIR)/trace.json $(ONLINE_SMOKE_DIR)/metrics.json $(ONLINE_SMOKE_DIR)/events.json
	@echo "online-smoke: artefacts in $(ONLINE_SMOKE_DIR)/"

# serve-bench refreshes the committed serving-throughput baseline: the same
# smoke pipeline but with the full request count, writing BENCH_serve.json
# at the repo root for cross-PR diffing.
serve-bench:
	SERVE_SMOKE_DIR=$(SERVE_SMOKE_DIR) GO=$(GO) LOAD_N=120 LOAD_C=6 \
		BENCH_OUT=BENCH_serve.json sh scripts/serve_smoke.sh
