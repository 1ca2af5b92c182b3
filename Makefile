GO ?= go

.PHONY: build vet lint lint-sarif test race check bench bench-smoke bench-compare fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the project-specific analyzers (see internal/lint and DESIGN.md
# §6/§11): determinism, lock discipline, wire-error hygiene, big.Int aliasing,
# nil-safe handles (metrics instruments; trace recorders and the obs logger
# and ledger), constant span names, plus the interprocedural lock-order,
# goroutine-leak, and hot-path-allocation rules. Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/toposhotlint ./...

# lint-sarif is the CI form of the same run: machine-readable SARIF 2.1.0 to
# lint.sarif (uploaded as an artifact) alongside the plain findings.
lint-sarif:
	$(GO) run ./cmd/toposhotlint -sarif lint.sarif ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is what CI runs: build, vet, lint, and the race-enabled test suite.
check: build vet lint race

# BENCH_PKGS covers the paper-scale benchmarks (root) plus the engine,
# gossip, mempool and transaction-hash microbenchmarks the hot-path work is
# tuned against.
BENCH_PKGS = . ./internal/sim ./internal/ethsim ./internal/txpool ./internal/types
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' -timeout 0 $(BENCH_PKGS)

# bench-smoke is the quarter-scale (-short) single-iteration pass CI runs in
# a non-blocking job. The -json event stream lands in BENCH_<id>.json so runs
# can be diffed across revisions; BENCH_ID defaults to the git short hash.
# -timeout 0: the full pass can exceed go test's 10-minute default, and a
# killed run truncates the JSON stream mid-benchmark.
BENCH_ID ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)
bench-smoke:
	$(GO) test -short -bench . -benchtime 1x -run '^$$' -timeout 0 -json $(BENCH_PKGS) | tee BENCH_$(BENCH_ID).json

# bench-compare diffs two bench-smoke event streams. With OLD/NEW unset it
# picks the two newest BENCH_*.json here (older = baseline).
bench-compare:
	$(GO) run ./cmd/benchcompare $(OLD) $(NEW)

# fuzz gives the protocol decoders a short native-fuzz shake (CI runs the
# same targets in a non-blocking job).
fuzz:
	$(GO) test -fuzz=FuzzRLPDecode -fuzztime=30s ./internal/rlp/
	$(GO) test -fuzz=FuzzFrameParse -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzEventQueue -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzPoolHeaps -fuzztime=30s ./internal/txpool/
	$(GO) test -fuzz=FuzzTraceJSONL -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzObsJSONL -fuzztime=30s ./internal/obs/
	$(GO) test -fuzz=FuzzDynamicGraph -fuzztime=30s ./internal/graph/
