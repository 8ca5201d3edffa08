# make check runs what .github/workflows/ci.yml runs, except fuzz-smoke
# (10s per native fuzz target), which stays CI-only.
GO ?= go

.PHONY: check build fmtcheck vet xvet transcheck plancheck protocheck test race chaos batch-smoke crash-smoke fuzz-smoke bench-smoke explain-smoke planquality-smoke golden-rows bench-harness

check: build fmtcheck vet xvet transcheck plancheck protocheck test bench-harness race chaos batch-smoke crash-smoke bench-smoke explain-smoke planquality-smoke golden-rows

build:
	$(GO) build ./...

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The custom invariant analyzers (rawsql, deweycmp, regexploop,
# errdrop, recoverguard, opstats, ctxflow, lockscope, sqltaint,
# hotalloc, goleak, syncerr, statflow, snapfreeze, guardedby,
# walorder, xvetignore); -novet because `make vet` already ran the
# standard passes. Results are cached per package under .xvetcache/
# (keyed on the xvet binary's own signature, so a rebuilt analyzer
# re-checks everything); pass -nocache to force a full re-check, or
# -timing for a per-analyzer wall-time summary.
xvet:
	$(GO) run ./cmd/xvet -novet ./...

# Static translation validation: every Table 1 pattern derivation —
# over the synthetic axis/shape matrix and over everything traced
# while translating the fig3 + XPathMark corpora — must be
# language-equivalent to a reference automaton built directly from
# the axis semantics (DESIGN.md section 6).
transcheck:
	$(GO) run ./cmd/xvet -transcheck

# Static plan verification: the fig3 + XPathMark corpora and a seeded
# random query matrix (2500 queries per workload, each compiled under
# both translators) are translated and compiled, and every compiled
# plan is certificate-checked against the logical form of its SQL
# statement; §4.5 path-filter omissions are re-justified independently
# (DESIGN.md section 10).
plancheck:
	$(GO) run ./cmd/xvet -plancheck

# Publication-protocol verification: the interprocedural analyzers
# (snapfreeze, guardedby, walorder) sweep the tree, the seeded-defect
# harness proves every protocol violation class is rejected with a
# call-path witness, and the golden call-graph dumps pin the commit
# protocol's graph shape (DESIGN.md sections 6 and 12).
protocheck:
	$(GO) run ./cmd/xvet -novet -only snapfreeze,guardedby,walorder ./...
	$(GO) test -count=1 -run 'TestProtocolMutations|TestSnapFreeze|TestWALOrder|TestGuardedBy|TestProtocolPackagesClean' ./internal/analysis/
	$(GO) test -count=1 ./internal/analysis/callgraph/

test:
	$(GO) test ./...

# bench-harness vets and tests the repo benchmark: benchmark/ is a Go
# module of its own, invisible to the ./... sweeps above, so an engine
# or xrel API change that breaks it (README.md there lists what it
# calls) would otherwise surface only when the benchmark is next run.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# chaos arms the failpoints (engine/morsel-claim, engine/hash-build,
# engine/plancache-insert, engine/pattern-compile, wal/append under an
# INSERT statement) and the budget matrix under -race: injected faults
# must unwind to typed errors with no goroutine leaks, no held locks
# and no poisoned caches (DESIGN.md section 8). TestParam* put
# statements with parameter slots through the same matrix — batch
# sizes, both executors, budgets, the hash-build fault — and run one
# shared plan from many goroutines with different values; TestShape*
# do that through xrel.Store.Query.
chaos:
	$(GO) test -race -run 'TestChaos|TestBudget|TestRunContext|TestPreparedRunContext|TestConcurrentBudgeted|TestParam' ./internal/engine/ ./internal/failpoint/
	$(GO) test -race -run 'TestVerifyPlan|TestMutationsRejected' ./internal/plancheck/
	$(GO) test -race -count=10 -run 'TestShapeConcurrentQueries' ./xrel/

# batch-smoke checks batch-size invariance: every query in the
# engine's serial/morsel matrix and the Figure 3 corpus must return
# byte-identical results, operator statistics, and governor errors at
# every batch capacity (including the degenerate 1), and a fault
# injected at the engine/batch-flush failpoint must unwind to a typed
# error with no goroutine leaks (DESIGN.md section 11).
batch-smoke:
	$(GO) test -race -count=1 -run 'TestBatchSizeInvariance|TestGovernorBatchInvariance|TestChaosBatchFlush|TestBatchSizeOptionPlumbs' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestBatchSizeInvarianceOnFig3' ./internal/bench/

# crash-smoke is the kill-and-recover matrix: a persistent store is
# crashed at every durability failpoint (wal/append, wal/fsync,
# wal/checkpoint, engine/recovery-replay) plus at the file level (torn
# WAL tail, CRC bit flips), recovery is re-run, and the recovered
# database must answer the fig3 workload oracle-identically while
# concurrent readers only ever see whole-document snapshots — all
# under -race (DESIGN.md section 12).
crash-smoke:
	$(GO) test -race -count=1 -run 'TestCrashAtEverySite|TestCrashDuring|TestDoubleReplay|TestCreateIndexRecovery|TestConcurrentWriter|TestWriteBatch|TestConcurrentDDL' ./internal/engine/
	$(GO) test -race -count=1 ./internal/wal/
	$(GO) test -race -count=1 -run 'TestCrashSmoke|TestConcurrentLoadAndFig3|TestMixedExperiment' ./internal/bench/

# fuzz-smoke gives each native fuzz target a short budget; regression
# inputs from past crashes live in each package's testdata/fuzz and
# also run under plain `go test`.
fuzz-smoke:
	$(GO) test -fuzz=FuzzXPathParse -fuzztime=10s ./internal/xpath/
	$(GO) test -fuzz=FuzzShapeBind -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzDeweyDecode -fuzztime=10s ./internal/dewey/
	$(GO) test -fuzz=FuzzPathPattern -fuzztime=10s ./internal/pathre/
	$(GO) test -fuzz=FuzzPathDFA -fuzztime=10s ./internal/pathre/

# bench-smoke runs a tiny Figure 3 pass at GOMAXPROCS 1 (every
# statement serial) and 2 (the engine's morsel executor wherever it
# decides it pays) with oracle verification on: a fast end-to-end check
# that both configurations still return the native evaluator's node
# sets.
bench-smoke:
	GOMAXPROCS=1 $(GO) run ./cmd/xbench -experiment fig3 -scale 0.02 -reps 1 -budget 30s
	GOMAXPROCS=2 $(GO) run ./cmd/xbench -experiment fig3 -scale 0.02 -reps 1 -budget 30s

# explain-smoke runs EXPLAIN ANALYZE over the Figure 3 query set on
# both workloads, asserting that every operator reports runtime stats
# and that no schema-aware UNION branch joins more relations than the
# Edge-like translation's widest branch.
explain-smoke:
	$(GO) run ./cmd/xbench -experiment explain -scale 0.02 -reps 1

# planquality-smoke compares synopsis-costed plans against the
# pre-synopsis heuristic planner on the fig3 corpus: after adaptive
# settling every operator's cardinality q-error must be at most 2 and
# no query's intermediate-result work may regress past the slack
# bound, with oracle verification on (DESIGN.md section 13).
planquality-smoke:
	$(GO) run ./cmd/xbench -experiment planquality -scale 0.02 -reps 1

# golden-rows is the planner's result-identity harness: the Figure 3
# statements and the six ad-hoc templates, both mappings, 24 runs a
# statement (GOMAXPROCS 1 / 4, batch size 1 / default, in memory /
# persisted-closed-reopened, first plan / re-planned) must return the
# native oracle's rows in order — the rows whose hashes
# internal/bench/testdata/golden_rows.txt commits. A planner change
# that leaves the file alone returns its parent's results byte for
# byte; `go test ./internal/bench -run TestGoldenRows -update` rewrites
# it.
golden-rows:
	$(GO) test -count=1 -run 'TestGoldenRows' ./internal/bench/
