GO ?= go

.PHONY: build vet lint lint-sarif test race check fuzz loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the seven project-specific analyzers (see internal/lint and
# DESIGN.md §6/§11): determinism, lock discipline (no blocking call and no
# second mutex under a lock), wire-error hygiene, nil-safe handles (metrics
# instruments; trace recorders and the obs logger and ledger), constant span
# names, and the map-iteration and allocation bans inside every function
# marked //toposhot:hotpath. Non-zero exit on any finding.
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

# fuzz gives the protocol decoders a short native-fuzz shake; this is the one
# list of targets (CI's non-blocking fuzz job runs `make fuzz`), and
# internal/lint's TestMakeFuzzListsEveryTarget fails when it names a missing
# target or leaves one out. Each target caps the minimization of a new corpus
# entry at 5 s: at the default 60 s a target can spend most of its 30 s
# minimizing and execute nothing.
fuzz:
	$(GO) test -fuzz=FuzzRLPDecode -fuzztime=30s -fuzzminimizetime=5s ./internal/rlp/
	$(GO) test -fuzz=FuzzFrameParse -fuzztime=30s -fuzzminimizetime=5s ./internal/wire/
	$(GO) test -fuzz=FuzzRestoreNetwork -fuzztime=30s -fuzzminimizetime=5s ./internal/ethsim/
	$(GO) test -fuzz=FuzzEventQueue -fuzztime=30s -fuzzminimizetime=5s ./internal/sim/
	$(GO) test -fuzz=FuzzPoolHeaps -fuzztime=30s -fuzzminimizetime=5s ./internal/txpool/
	$(GO) test -fuzz=FuzzPoolIdentity -fuzztime=30s -fuzzminimizetime=5s ./internal/txpool/
	$(GO) test -fuzz=FuzzIDSet -fuzztime=30s -fuzzminimizetime=5s ./internal/txpool/
	$(GO) test -fuzz=FuzzFutureRun -fuzztime=30s -fuzzminimizetime=5s ./internal/txpool/
	$(GO) test -fuzz=FuzzSenders -fuzztime=30s -fuzzminimizetime=5s ./internal/txpool/
	$(GO) test -fuzz=FuzzTraceJSONL -fuzztime=30s -fuzzminimizetime=5s ./internal/trace/
	$(GO) test -fuzz=FuzzObsJSONL -fuzztime=30s -fuzzminimizetime=5s ./internal/obs/
	$(GO) test -fuzz=FuzzTrackerRestore -fuzztime=30s -fuzzminimizetime=5s ./internal/tracker/
	$(GO) test -fuzz=FuzzLocks -fuzztime=30s -fuzzminimizetime=5s ./internal/gossip/

# loc prints the non-test, non-fixture Go lines per package and in total: the
# number "small" is measured by.
LOC_FIND = -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d %s\n' "$$(find $$d $(LOC_FIND) | xargs cat | wc -l)" $$d; \
	done
	@printf '%6d total\n' "$$(find internal cmd $(LOC_FIND) | xargs cat | wc -l)"
